"""Named reproduction scenarios, generic criterion runs from JSON configs,
parameter scans and CSV/JSON emission.

Each scenario sweeps one channel parameter over a grid, evaluates criterion
margins and detectors per grid point, and writes a plot-ready CSV table
plus a JSON report with the full detector output.  Exit status of the CLI
reflects execution health only; scans legitimately contain both firing and
failing rows.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import (
    _number,
    amplitude_damping_channel,
    channel_from_json,
    depolarizing_channel,
    dephrasure_channel,
    matrix_from_pairs,
    platypus_channel,
    tensor,
)
from .criteria import (
    CriterionReport,
    check_criterion,
    detect_private_gap,
    detect_private_gap_via_complement,
    detect_superadditivity,
    threshold_scan,
)
from .errors import NoSignChangeError, RankCaseError
from .info import coherent_information
from .linalg import DensityMatrix, HermitianOperator
from .perturbation import (
    PerturbationFamily,
    basis_line,
    line_between,
    optimal_line_search,
    state_at,
)
from .tolerances import DEFAULT, Tolerances

@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 steps, got {self.steps}")

    def values(self) -> tuple[float, ...]:
        return tuple(float(x) for x in np.linspace(self.lo, self.hi, self.steps))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: Mapping[str, float] = field(default_factory=dict)
    grid: GridSpec | None = None
    output: str = "."
    fmt: str = "both"
    tol: Tolerances = DEFAULT

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {tuple(SCENARIOS)}"
            )
        if self.fmt not in ("csv", "json", "both"):
            raise ValueError(f"format must be csv, json or both, got {self.fmt!r}")

    @classmethod
    def from_json(cls, obj: Mapping) -> "ScenarioConfig":
        if not isinstance(obj, Mapping):
            raise ValueError("scenario config must be a JSON object")
        grid = None
        if obj.get("grid") is not None:
            g = obj["grid"]
            if not (isinstance(g, Mapping) and {"lo", "hi", "steps"} <= g.keys()):
                raise ValueError(f"grid must be an object with numeric lo, hi and steps, got {g!r}")
            lo, hi = (_number(f"grid {key}", g[key]) for key in ("lo", "hi"))
            steps = g["steps"]
            if isinstance(steps, bool) or not (
                isinstance(steps, int) or isinstance(steps, float) and steps.is_integer()
            ):
                raise ValueError(f"grid steps must be a whole number, got {steps!r}")
            grid = GridSpec(lo, hi, int(steps))
        params = obj.get("params", {}) or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"params must be an object of numbers, got {params!r}")
        for key, value in params.items():
            _number(f"param {key!r}", value)
        for key in ("scenario", "output", "format"):
            if not isinstance(obj.get(key, ""), str):
                raise ValueError(f"{key} must be a string, got {obj[key]!r}")
        return cls(
            scenario=obj.get("scenario", ""),
            params=dict(params),
            grid=grid,
            output=obj.get("output", "."),
            fmt=obj.get("format", "both"),
        )


# ---------------------------------------------------------------------------
# perturbation families used by the scenarios


def two_qubit_tilt_family() -> PerturbationFamily:
    """Tilt the two-qubit maximally mixed state toward the pure |+>|0>."""
    base = DensityMatrix.maximally_mixed(4)
    psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return line_between(base, DensityMatrix.pure(psi))


def qubit_flip_family() -> PerturbationFamily:
    """Move |0><0| along the diagonal toward |1><1| (first order only)."""
    return basis_line(2, "z")


def platypus_ad_family(w: float, a: float = 0.99) -> PerturbationFamily:
    """Coherent exchange between the |1,1> and |2,0> levels of a qutrit-qubit pair.

    Base state ``((1-w)|0><0| + w|2><2|) (x) |0><0|``; the first-order
    direction couples the two levels with amplitude ``w * a`` and the
    second-order direction moves population between them.  Requires
    ``a^2 <= 1 - eps^2`` for ``rho(eps)`` to stay a state.
    """
    if not 0.0 < w < 1.0:
        raise ValueError(f"w={w!r} outside (0, 1)")
    if not 0.0 < a <= 1.0:
        raise ValueError(f"a={a!r} outside (0, 1]")
    base = np.zeros((6, 6), dtype=complex)
    base[0, 0] = 1.0 - w
    base[4, 4] = w
    a1 = np.zeros((6, 6), dtype=complex)
    a1[3, 4] = a1[4, 3] = w * a
    a2 = np.zeros((6, 6), dtype=complex)
    a2[3, 3] = w
    a2[4, 4] = -w
    return PerturbationFamily.build(
        DensityMatrix.from_matrix(base),
        HermitianOperator.from_matrix(a1),
        HermitianOperator.from_matrix(a2),
    )


def dephrasure_positive_ic_boundary(p: float) -> float:
    """Erasure probability below which diagonal inputs give the primary
    dephrasure channel positive coherent information."""
    t = (1.0 - 2.0 * p) ** 2
    return t / (1.0 + t)


# ---------------------------------------------------------------------------
# scan engine


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def write_csv(path: str, columns: Sequence[str], rows: Sequence[Mapping[str, object]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _bracket_threshold(
    margin_by_param: Sequence[tuple[float, float]],
    margin: Callable[[float], float],
) -> tuple[float | None, str]:
    """Bisect ``margin`` on the first sign change found among grid rows, if any."""
    for (p0, m0), (p1, m1) in zip(margin_by_param, margin_by_param[1:]):
        if np.sign(m0) != np.sign(m1) and m0 != 0.0:
            try:
                threshold = threshold_scan(margin, p0, p1)
            except NoSignChangeError:
                continue
            return threshold, "sign change bracketed on the grid and bisected"
    signs = {np.sign(m) for _, m in margin_by_param if m != 0.0}
    if len(signs) <= 1:
        return None, "margin keeps one sign across the grid; no threshold exists here"
    return None, "sign changes could not be bisected"


# ---------------------------------------------------------------------------
# the scenarios


def _scenario_depolarizing_n2(cfg: ScenarioConfig) -> dict:
    grid = cfg.grid or GridSpec(0.05, 0.26, 43)
    fam = two_qubit_tilt_family()

    def row(p: float) -> dict:
        ch = depolarizing_channel(p)
        mixed = DensityMatrix.maximally_mixed(2)
        detector = detect_superadditivity([ch, ch], [mixed, mixed], fam, tol=cfg.tol)
        # with both outputs full rank the detector decides by C3, whose sides
        # are tr(W) plus 2 tr(N(A2) ln N(rho)) = 0, as the tilt has A2 = 0
        report = detector.criterion_report
        if report.criterion != "C3":
            raise RankCaseError(f"p={p!r}: the w traces need both outputs full rank")
        witness = detector.numeric_confirmation
        return {
            "p": p,
            "trace_w_out": report.rhs,
            "trace_w_env": report.lhs,
            "margin": report.margin,
            "verdict": report.verdict,
            "ic_single": coherent_information(mixed, ch, cfg.tol),
            "witness_eps": None if witness is None else witness[0],
            "witness_f": None if witness is None else witness[1],
            "conclusion": detector.conclusion,
            "_detector": detector,
        }

    def margin(p: float) -> float:
        pair = tensor(depolarizing_channel(p), depolarizing_channel(p))
        return check_criterion(pair, fam, "C3", tol=cfg.tol).margin

    rows = [row(v) for v in grid.values()]
    threshold, note = _bracket_threshold([(r["p"], r["margin"]) for r in rows], margin)
    detectors = [r.pop("_detector") for r in rows]
    firing = [d.to_json() for d in detectors if d.conclusion == "superadditive"]
    return {
        "rows": rows,
        "report": {
            "threshold": threshold,
            "threshold_note": note,
            "superadditive_detections": firing,
        },
    }


def _scenario_hashing_curve(cfg: ScenarioConfig) -> dict:
    grid = cfg.grid or GridSpec(0.0, 0.3, 61)

    def ic_bits(p: float) -> float:
        mixed = DensityMatrix.maximally_mixed(2)
        return coherent_information(mixed, depolarizing_channel(p), cfg.tol)

    rows = [{"p": p, "ic_bits": ic_bits(p)} for p in grid.values()]
    threshold, note = _bracket_threshold([(r["p"], r["ic_bits"]) for r in rows], ic_bits)
    return {
        "rows": rows,
        "report": {"zero_crossing": threshold, "note": note},
    }


def _scenario_gap_depolarizing(cfg: ScenarioConfig) -> dict:
    grid = cfg.grid
    if grid is None:
        p0 = float(cfg.params.get("p", 0.1))
        values: tuple[float, ...] = (p0,)
    else:
        values = grid.values()
    fam = qubit_flip_family()
    sigma = DensityMatrix.maximally_mixed(2)

    def row(p: float) -> dict:
        detector = detect_private_gap(depolarizing_channel(p), sigma, fam, tol=cfg.tol)
        report = detector.criteria[0]  # C1
        witness = detector.numeric_confirmation
        return {
            "p": p,
            "kernel_trace_out": report.rhs,
            "kernel_trace_env": report.lhs,
            "kernel_trace_env_analytic": p * (3.0 - 2.0 * p) / (2.0 - p),
            "margin": report.margin,
            "verdict": report.verdict,
            "admissible_r": detector.admissible_r,
            "witness_eps": None if witness is None else witness[0],
            "witness_f": None if witness is None else witness[1],
            "conclusion": detector.conclusion,
            "_detector": detector,
        }

    rows = [row(v) for v in values]
    detectors = [r.pop("_detector") for r in rows]
    return {
        "rows": rows,
        "report": {"detections": [d.to_json() for d in detectors]},
    }


def _scenario_platypus_ad(cfg: ScenarioConfig) -> dict:
    gamma = float(cfg.params.get("gamma", 0.5))
    a = float(cfg.params.get("a", 0.99))
    grid = cfg.grid or GridSpec(0.05, 0.5, 10)

    def row(s: float) -> dict:
        plat = platypus_channel(s)
        damp = amplitude_damping_channel(gamma)
        if "w" in cfg.params:
            w_star = float(cfg.params["w"])
            state1 = state_at(basis_line(3, "z"), w_star, cfg.tol)
        else:
            state1, _ = optimal_line_search(plat, cfg.tol)
            w_star = float(state1.matrix[2, 2].real)
        state2 = DensityMatrix.pure([1.0, 0.0])
        fam = platypus_ad_family(w_star, a)
        detector = detect_superadditivity([plat, damp], [state1, state2], fam, tol=cfg.tol)
        report = detector.criteria[1]  # C2
        witness = detector.numeric_confirmation
        return {
            "s": s,
            "w_star": w_star,
            "second_order_out": report.lhs,
            "second_order_env": report.rhs,
            "margin": report.margin,
            "verdict": report.verdict,
            "witness_eps": None if witness is None else witness[0],
            "witness_f": None if witness is None else witness[1],
            "conclusion": detector.conclusion,
            "_detector": detector,
        }

    rows = [row(v) for v in grid.values()]
    detectors = [r.pop("_detector") for r in rows]
    firing = [d.to_json() for d in detectors if d.conclusion == "superadditive"]
    return {
        "rows": rows,
        "report": {"gamma": gamma, "a": a, "superadditive_detections": firing},
    }


def _scenario_dephrasure_gap(cfg: ScenarioConfig) -> dict:
    p = float(cfg.params.get("p", 0.1))
    grid = cfg.grid or GridSpec(0.0, 0.44, 23)
    boundary = dephrasure_positive_ic_boundary(p)

    def row(q: float) -> dict:
        ch = dephrasure_channel(p, q)
        sigma, primary = optimal_line_search(ch, cfg.tol)
        detector = detect_private_gap_via_complement(ch, sigma, cfg.tol)
        return {
            "q": q,
            "ic_primary": primary,
            "u_primary": float(sigma.matrix[1, 1].real),
            "ic_complement_line": detector.criterion_report.lhs,
            "below_positive_ic_boundary": q < boundary,
            "admissible_r": detector.admissible_r,
            "conclusion": detector.conclusion,
            "_detector": detector,
        }

    rows = [row(v) for v in grid.values()]
    detectors = [r.pop("_detector") for r in rows]
    return {
        "rows": rows,
        "report": {
            "p": p,
            "positive_ic_boundary": boundary,
            "detections": [d.to_json() for d in detectors if d.conclusion == "gap_detected"],
        },
    }


def family_from_json(obj: Mapping, tol: Tolerances = DEFAULT) -> PerturbationFamily:
    """Decode ``{"base": .., "a1": .., "a2": ..|null, "max_order": ..}`` with
    matrices as nested ``[re, im]`` pairs."""
    if not isinstance(obj, Mapping):
        raise ValueError("perturbation family must be a JSON object")
    for key in ("base", "a1"):
        if key not in obj:
            raise ValueError(f"perturbation family is missing field {key!r}")
    base = DensityMatrix.from_matrix(matrix_from_pairs(obj["base"]), tol)
    a1 = HermitianOperator.from_matrix(matrix_from_pairs(obj["a1"]))
    a2 = None
    if obj.get("a2") is not None:
        a2 = HermitianOperator.from_matrix(matrix_from_pairs(obj["a2"]))
    max_order = obj.get("max_order", 2)
    if isinstance(max_order, bool) or not isinstance(max_order, int):
        raise ValueError(f"max_order must be an integer, got {max_order!r}")
    return PerturbationFamily.build(base, a1, a2, max_order)


def run_custom(
    channel_json: Mapping,
    family_json: Mapping,
    criterion: str,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """Run one named criterion on a channel and family given as JSON."""
    ch = channel_from_json(channel_json)
    return check_criterion(ch, family_from_json(family_json, tol), criterion, sense, tol)


# name -> (runner, CSV columns); the runner returns the rows and the report
SCENARIOS: dict[str, tuple[Callable[[ScenarioConfig], dict], tuple[str, ...]]] = {
    "depolarizing-n2": (_scenario_depolarizing_n2, (
        "p", "trace_w_out", "trace_w_env", "margin", "verdict",
        "ic_single", "witness_eps", "witness_f", "conclusion",
    )),
    "platypus-ad": (_scenario_platypus_ad, (
        "s", "w_star", "second_order_out", "second_order_env", "margin",
        "verdict", "witness_eps", "witness_f", "conclusion",
    )),
    "gap-depolarizing": (_scenario_gap_depolarizing, (
        "p", "kernel_trace_out", "kernel_trace_env", "kernel_trace_env_analytic",
        "margin", "verdict", "admissible_r", "witness_eps", "witness_f", "conclusion",
    )),
    "dephrasure-gap": (_scenario_dephrasure_gap, (
        "q", "ic_primary", "u_primary", "ic_complement_line",
        "below_positive_ic_boundary", "admissible_r", "conclusion",
    )),
    "hashing-curve": (_scenario_hashing_curve, ("p", "ic_bits")),
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute a named scenario and write its CSV table and JSON report.

    Returns a summary with the written paths and the report body.
    """
    os.makedirs(cfg.output, exist_ok=True)
    base = os.path.join(cfg.output, cfg.scenario)
    runner, columns = SCENARIOS[cfg.scenario]
    result = runner(cfg)

    payload = {
        "scenario": cfg.scenario,
        "params": dict(cfg.params),
        "grid": None if cfg.grid is None else {"lo": cfg.grid.lo, "hi": cfg.grid.hi, "steps": cfg.grid.steps},
        "report": result["report"],
        "rows": [{k: v for k, v in row.items()} for row in result["rows"]],
    }
    summary: dict = {"report": payload}
    if cfg.fmt in ("csv", "both"):
        csv_path = base + ".csv"
        write_csv(csv_path, columns, result["rows"])
        summary["csv"] = csv_path
    if cfg.fmt in ("json", "both"):
        json_path = base + ".json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        summary["json"] = json_path
    return summary
