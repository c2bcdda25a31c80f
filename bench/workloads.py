"""The three seeded workloads: op streams built from a seed.

An op is one call a user makes (a ``run_scenario`` call, one detector call
or one ``run_custom`` call).  Each workload yields ops forever in a fixed
cycle of op kinds; the seed only draws the channel parameters, grids,
random Kraus channels and families.  cohpert receives only those generated
inputs.  Each op carries its own oracle from ``oracles``, which checks the
output with plain numpy.

Cycle lengths are chosen so that the 50th and 90th percentiles of op time
fall inside one op kind's band, never on a boundary between two kinds:
3 kinds for witness-grid and search, 15 slots for custom-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import oracles

WORKLOADS = ("witness-grid", "search", "custom-check")

# one op of every kind, in cycle order; also the warm-up before timing
CYCLE = {"witness-grid": 3, "search": 3, "custom-check": 15}
# ops built during set-up; timing walks these first, then the stream
# continues; the traced run replays exactly these, so its counts repeat
POOL_CYCLES = 4


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    verify: Callable[[object], list]
    points: Callable[[object], int] = lambda result: 1


def _scenario_rows(summary) -> int:
    return len(summary["report"]["rows"])


class OpFactory:
    """Turns seeded draws into cohpert inputs and ops."""

    def __init__(self, cohpert, outdir: str):
        self.c = cohpert
        self.outdir = outdir
        self.scenario_fields = set(cohpert.ScenarioConfig.__dataclass_fields__)

    def scenario(self, name: str, params: dict, grid, verify) -> Op:
        kwargs = {"params": params, "output": self.outdir}
        if grid is not None:
            kwargs["grid"] = self.c.scenarios.GridSpec(*grid)
        if "jobs" in self.scenario_fields:
            kwargs["jobs"] = 1
        cfg = self.c.ScenarioConfig(name, **kwargs)
        return Op(name, lambda: self.c.run_scenario(cfg), verify, _scenario_rows)

    def three_copy(self, p: float, psi: np.ndarray) -> Op:
        c = self.c
        ch = c.depolarizing_channel(p)
        mixed = c.DensityMatrix.maximally_mixed(2)
        fam = c.line_between(c.DensityMatrix.maximally_mixed(8), c.DensityMatrix.pure(psi))
        return Op(
            "three-copy",
            lambda: c.detect_superadditivity([ch, ch, ch], [mixed, mixed, mixed], fam),
            lambda report: oracles.check_three_copy(report, p, psi),
        )


def _uniform(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def witness_grid(rng: np.random.Generator, make: OpFactory) -> Iterator[Op]:
    while True:
        grid = (_uniform(rng, 0.05, 0.15), _uniform(rng, 0.17, 0.26), 4)
        yield make.scenario("depolarizing-n2", {}, grid, oracles.check_depolarizing_n2)
        gamma = _uniform(rng, 0.3, 0.7)
        grid = (_uniform(rng, 0.05, 0.25), _uniform(rng, 0.3, 0.5), 3)
        yield make.scenario(
            "platypus-ad", {"gamma": gamma}, grid,
            lambda s, gamma=gamma: oracles.check_platypus_ad(s, gamma, 0.99),
        )
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        yield make.three_copy(_uniform(rng, 0.05, 0.26), psi / np.linalg.norm(psi))


def search(rng: np.random.Generator, make: OpFactory) -> Iterator[Op]:
    while True:
        p = _uniform(rng, 0.05, 0.2)
        grid = (_uniform(rng, 0.0, 0.15), _uniform(rng, 0.25, 0.44), 3)
        yield make.scenario(
            "dephrasure-gap", {"p": p}, grid, lambda s, p=p: oracles.check_dephrasure_gap(s, p)
        )
        yield make.scenario(
            "gap-depolarizing", {"p": _uniform(rng, 0.05, 0.35)}, None, oracles.check_gap_depolarizing
        )
        grid = (_uniform(rng, 0.0, 0.1), _uniform(rng, 0.3, 0.45), 31)
        yield make.scenario("hashing-curve", {}, grid, oracles.check_hashing_curve)


# ---------------------------------------------------------------------------
# custom-check: random Kraus channels with d_in = d_env = sqrt(d_out), so a
# full-rank base gives full-rank outputs on both sides (C3) and a pure base
# leaves a kernel on the output side (C1/C2)

CUSTOM_SIZES = (4, 16, 64)
# (base kind, criterion, sense flipped?) for the five visits to each size in a cycle
CUSTOM_SLOTS = (
    ("full", "C3", False),
    ("pure", "C1", False),
    ("full", "C3", True),
    ("pure", "C2", False),
    ("pure", "C1", True),
)


def _pairs(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _random_kraus(rng, d_in: int, d_out: int, d_env: int) -> np.ndarray:
    a = rng.normal(size=(d_out * d_env, d_in)) + 1j * rng.normal(size=(d_out * d_env, d_in))
    q, _ = np.linalg.qr(a)
    return np.ascontiguousarray(q.reshape(d_out, d_env, d_in).transpose(1, 0, 2))


def _random_state(rng, d: int) -> np.ndarray:
    """Half a Wishart state, half maximally mixed: eigenvalues at least 1/(2d)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = a @ a.conj().T
    return 0.5 * w / np.trace(w).real + 0.5 * np.eye(d) / d


def _random_traceless(rng, d: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2.0
    h -= np.trace(h).real / d * np.eye(d)
    return h * (norm / np.linalg.norm(h))


def _custom_op(rng, c, d_out: int, base_kind: str, criterion: str, sense: str) -> Op:
    d = int(round(d_out ** 0.5))
    kraus = _random_kraus(rng, d, d_out, d)
    if base_kind == "full":
        base = _random_state(rng, d)
        a1 = _random_traceless(rng, d, 0.1 / d)
    else:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        base = np.outer(v, v.conj())
        a1 = _random_state(rng, d) - base
    a2 = _random_traceless(rng, d, 0.05 / d)
    channel_json = {"family": "custom_kraus", "params": {"kraus": [_pairs(k) for k in kraus]}}
    family_json = {"base": _pairs(base), "a1": _pairs(a1), "a2": _pairs(a2), "max_order": 2}
    return Op(
        f"custom-d{d_out}-{base_kind}-{criterion}",
        lambda: c.run_custom(channel_json, family_json, criterion, sense),
        lambda report: oracles.check_custom(report, kraus, base, a1, a2, criterion, sense),
    )


def custom_check(rng: np.random.Generator, make: OpFactory) -> Iterator[Op]:
    cycle = 0
    while True:
        for base_kind, criterion, flipped in CUSTOM_SLOTS:
            for d_out in CUSTOM_SIZES:
                positive = (cycle % 2 == 0) != flipped
                sense = "positive_f" if positive else "negative_f"
                yield _custom_op(rng, make.c, d_out, base_kind, criterion, sense)
        cycle += 1


_STREAMS = {"witness-grid": witness_grid, "search": search, "custom-check": custom_check}


def stream(workload: str, seed: int, cohpert, outdir: str) -> Iterator[Op]:
    """The workload's op stream; the same seed gives the same ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _STREAMS[workload](rng, OpFactory(cohpert, outdir))
