"""Per-layer spans and counts for the traced run.

The tracer wraps, from outside the program, every public function of the
six cohpert layers (``channels``, ``linalg``, ``info``, ``perturbation``,
``criteria``, ``scenarios``), ``DensityMatrix.from_matrix`` and the numpy
eigensolvers.  Wrapping rebinds the name everywhere cohpert holds it:
module attributes, names imported with ``from ... import`` and tuples or
dicts of functions such as the criterion tables.  ``uninstall`` restores
every binding, so untraced passes in the same process run the original
code.

Each wrapper records one span.  A span's duration counts toward the busy
time of each metric group it belongs to only at the outermost span of that
group, so nested calls are not counted twice; its self time (duration minus
the time of the spans it encloses) goes to its layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("channels", "linalg", "info", "perturbation", "criteria", "scenarios")
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eig", "eigvals")

# span name -> metric groups it belongs to
GROUPS = {
    "channels.complement": ("channels.complement",),
    "channels.apply": ("channels.apply",),
    "channels.apply_matrix": ("channels.apply",),
    "channels.make_channel": ("channels.make_channel",),
    "linalg.spectral_decompose": ("linalg.spectral_decompose",),
    "linalg.DensityMatrix.from_matrix": ("linalg.state_check",),
    "linalg.psd_min_eig": ("linalg.psd_min_eig",),
    "info.coherent_information": ("info.coherent_information",),
    "info.von_neumann_entropy": ("info.entropy",),
    "info.golden_section_maximize": ("info.line_search",),
    "perturbation.f_eval": ("perturbation.f_eval",),
    "perturbation.admissible_radius": ("perturbation.admissible_radius",),
    "perturbation.w_trace": ("perturbation.traces",),
    "perturbation.w0_trace": ("perturbation.traces",),
    "perturbation.log_weighted_trace": ("perturbation.traces",),
    "perturbation._support_log_trace": ("perturbation.traces",),
    "perturbation.derivative_profile": ("perturbation.derivative_profile",),
    "criteria.check_criterion1": ("criteria.check",),
    "criteria.check_criterion2": ("criteria.check",),
    "criteria.check_criterion3": ("criteria.check",),
    "criteria.classify_first_order": ("criteria.check",),
    "criteria.detect_superadditivity": ("criteria.detector", "criteria.witness_detector"),
    "criteria.detect_private_gap": ("criteria.detector", "criteria.witness_detector"),
    "criteria.detect_private_gap_via_complement": ("criteria.detector",),
    "criteria.threshold_scan": ("criteria.threshold_scan",),
    "scenarios.run_scenario": ("scenarios.run",),
    "scenarios.run_custom": ("scenarios.run",),
}
GROUPS.update({f"numpy.{name}": ("linalg.eig",) for name in EIG_FUNCTIONS})

# private functions that do a layer's work and get their own span
EXTRA_SPANS = ("perturbation._support_log_trace",)

# groups whose time is also split by operator dimension: first argument's
# ``dim`` (a decomposition) or ``dim_out`` (a channel)
BUCKETED = ("perturbation.traces", "perturbation.derivative_profile")


def dim_bucket(dim: int) -> str:
    return "d4" if dim <= 4 else "d16" if dim <= 16 else "d64"


def _bucket_of(args) -> str | None:
    if not args:
        return None
    dim = getattr(args[0], "dim", None) or getattr(args[0], "dim_out", None)
    return dim_bucket(dim) if isinstance(dim, int) else None


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()  # by span name
        self.group_calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)  # by group, outermost spans only
        self.self_time: defaultdict = defaultdict(float)  # by layer
        self.self_by_name: defaultdict = defaultdict(float)
        self.eig_inside: Counter = Counter()  # numpy eig calls made inside each group
        self.events: Counter = Counter()
        self.channels_seen: set = set()
        self._stack: list = []
        self._active: Counter = Counter()
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording

    def _wrap(self, name: str, layer: str, fn, before=None, after=None):
        base_groups = GROUPS.get(name, ())
        bucketed = [g for g in base_groups if g in BUCKETED]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            groups = base_groups
            if bucketed:
                bucket = _bucket_of(args)
                if bucket is not None:
                    groups = base_groups + tuple(f"{g}.{bucket}" for g in bucketed)
            if before is not None:
                args, kwargs = before(args, kwargs)
            outer = [g for g in groups if not self._active[g]]
            for g in groups:
                self._active[g] += 1
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                for g in groups:
                    self._active[g] -= 1
                    self.group_calls[g] += 1
                for g in outer:
                    self.busy[g] += duration
                self.calls[name] += 1
                self.self_time[layer] += duration - frame[0]
                self.self_by_name[name] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
            if after is not None:
                after(result)
            return result

        return traced

    def _count_eig(self, args, kwargs):
        for g, depth in self._active.items():
            if depth:
                self.eig_inside[g] += 1
        return args, kwargs

    def _count_witness_eval(self, args, kwargs):
        if self._active["criteria.witness_detector"]:
            self.events["witness.f_evals"] += 1
        return args, kwargs

    def _see_channel(self, args, kwargs):
        kraus = getattr(args[0], "kraus", ()) if args else ()
        digest = hashlib.blake2b(digest_size=16)
        for k in kraus:
            digest.update(np.ascontiguousarray(k).tobytes())
        self.channels_seen.add(digest.digest())
        return args, kwargs

    def _count_line_evals(self, args, kwargs):
        def counted(fn):
            @functools.wraps(fn)
            def objective(*a, **k):
                self.events["line_search.evals"] += 1
                return fn(*a, **k)
            return objective

        if args:
            args = (counted(args[0]),) + tuple(args[1:])
        elif "fn" in kwargs:
            kwargs = dict(kwargs, fn=counted(kwargs["fn"]))
        return args, kwargs

    def _witness_outcome(self, report):
        if getattr(report, "numeric_confirmation", None) is not None:
            self.events["witness.hits"] += 1

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self, cohpert) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cohpert" or n.startswith("cohpert."))]
        replace: dict = {}
        hooks = {
            "channels.complement": (self._see_channel, None),
            "info.golden_section_maximize": (self._count_line_evals, None),
            "perturbation.f_eval": (self._count_witness_eval, None),
            "criteria.detect_superadditivity": (None, self._witness_outcome),
            "criteria.detect_private_gap": (None, self._witness_outcome),
        }
        for layer in LAYERS:
            mod = getattr(cohpert, layer, None)
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") or name in EXTRA_SPANS
                if public and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[fn] = self._wrap(name, layer, fn, *hooks.get(name, (None, None)))
        for attr in EIG_FUNCTIONS:
            fn = getattr(np.linalg, attr)
            replace[fn] = self._wrap(f"numpy.{attr}", "numpy_eig", fn, before=self._count_eig)
            self._set(np.linalg, attr, replace[fn])

        density = getattr(getattr(cohpert, "linalg", None), "DensityMatrix", None)
        if density is not None and isinstance(vars(density).get("from_matrix"), classmethod):
            raw = vars(density)["from_matrix"].__func__
            self._set(density, "from_matrix",
                      classmethod(self._wrap("linalg.DensityMatrix.from_matrix", "linalg", raw)))

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = _rebind(value, replace)
                if new is not value:
                    self._set(mod, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # metrics

    def tallies(self) -> tuple:
        """Every count this tracer keeps; equal inputs must give equal tallies."""
        return (dict(self.calls), dict(self.group_calls), dict(self.eig_inside),
                dict(self.events), len(self.channels_seen))

    def metrics(self) -> dict:
        """Per-layer metrics of one traced pass, without the trace.* entries."""
        busy, gcalls, ev = self.busy, self.group_calls, self.events
        verdicts = gcalls["criteria.witness_detector"]
        searches = self.calls["info.golden_section_maximize"]
        radius_calls = gcalls["perturbation.admissible_radius"]
        out = {
            "channels.complement.calls": gcalls["channels.complement"],
            "channels.complement.per_channel":
                gcalls["channels.complement"] / max(1, len(self.channels_seen)),
            "channels.apply.s": busy["channels.apply"],
            "channels.make_channel.s": busy["channels.make_channel"],
            "linalg.eigvalsh.calls": self.calls["numpy.eigvalsh"],
            "linalg.eigh.calls": self.calls["numpy.eigh"],
            "linalg.eig.s": busy["linalg.eig"],
            "linalg.spectral_decompose.s": busy["linalg.spectral_decompose"],
            "linalg.state_check.s": busy["linalg.state_check"],
            "linalg.psd_min_eig.calls": gcalls["linalg.psd_min_eig"],
            "info.coherent_information.calls": gcalls["info.coherent_information"],
            "info.coherent_information.s": busy["info.coherent_information"],
            "info.entropy.s": busy["info.entropy"],
            "info.line_search.s": busy["info.line_search"],
            "info.line_search.evals_per_search": ev["line_search.evals"] / max(1, searches),
            "perturbation.f_eval.calls": gcalls["perturbation.f_eval"],
            "perturbation.f_eval.s": busy["perturbation.f_eval"],
            "perturbation.admissible_radius.probes_per_call":
                self.eig_inside["perturbation.admissible_radius"] / max(1, radius_calls),
            "criteria.check.s": busy["criteria.check"],
            "criteria.detector.s": busy["criteria.detector"],
            "criteria.witness.points_per_verdict":
                ev["witness.f_evals"] / max(1, verdicts),
            "criteria.witness.hit_ratio": ev["witness.hits"] / max(1, verdicts),
            "criteria.threshold_scan.s": busy["criteria.threshold_scan"],
            "scenarios.run.self_s": sum(
                t for name, t in self.self_by_name.items() if GROUPS.get(name) == ("scenarios.run",)
            ),
        }
        for group in BUCKETED:
            out[f"{group}.s"] = busy[group]
            for bucket in ("d4", "d16", "d64"):
                out[f"{group}.{bucket}.s"] = busy[f"{group}.{bucket}"]
        for layer in LAYERS + ("numpy_eig",):
            out[f"layer.{layer}.self_s"] = self.self_time[layer]
        return out


def _mapped(value, replace: dict):
    try:
        return replace.get(value, value)
    except TypeError:  # unhashable values are never wrapped functions
        return value


def _rebind(value, replace: dict):
    """``value`` with wrapped functions substituted, itself or inside a tuple or dict."""
    if isinstance(value, tuple):
        new = tuple(_mapped(v, replace) for v in value)
        return new if any(a is not b for a, b in zip(new, value)) else value
    if isinstance(value, dict):
        new = {k: _mapped(v, replace) for k, v in value.items()}
        return new if any(new[k] is not v for k, v in value.items()) else value
    return _mapped(value, replace)
