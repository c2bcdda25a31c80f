"""Suboptimality criteria for coherent information and the two detectors
built on them: superadditivity of one-shot quantum capacity and a positive
gap between one-shot private and quantum capacity.

The criteria C1, C2 and C3 share one shape, written once in
``_criterion``: a rank case in which the criterion applies, a first-order
precondition, and a comparison of an output-side trace with an
environment-side trace.  Only the traces differ.  ``sense="positive_f"``
asks whether the perturbation can raise coherent information,
``"negative_f"`` whether it can lower it (the two decisive traces simply
swap roles, so the margin flips sign exactly).  A report never concludes
from the analytic inequality alone: detectors also require a numeric
witness ``f(eps)`` of the right sign before calling the result.  Each
witness detector runs all three criteria on its one
:class:`~cohpert.perturbation.FamilyEvaluator` and keeps every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, complement, tensor_all
from .errors import NoSignChangeError, RankCaseError
from .info import coherent_information
from .linalg import DensityMatrix
from .perturbation import (
    FamilyEvaluator,
    PerturbationFamily,
    admissible_radius,
    basis_line,
    section_maximize,
    state_at,
    state_stacks,
)
from .tolerances import DEFAULT, Tolerances

SENSES = ("positive_f", "negative_f")
CRITERIA = ("C1", "C2", "C3")

WARN_FIRST_ORDER_VIOLATED = "first_order_condition_violated"
WARN_NEAR_ZERO_MARGIN = "margin_within_decision_tolerance"
WARN_NEAR_DEGENERATE = "near_degenerate_clustering"
WARN_KERNEL_PSD = "kernel_block_not_psd"


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion check.

    ``lhs`` and ``rhs`` are the two sides of the decisive inequality after
    sense adjustment, so ``margin = lhs - rhs`` and the criterion fires
    exactly when its preconditions hold and the margin clears
    ``decision_tol``.  ``first_order_checks`` records the per-cluster traces
    a second-order criterion requires to vanish.
    """

    criterion: str
    sense: str
    verdict: str
    lhs: float
    rhs: float
    margin: float
    first_order_checks: tuple[tuple[str, float], ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def fires(self) -> bool:
        return self.verdict == "fires"

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "sense": self.sense,
            "verdict": self.verdict,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "first_order_checks": [
                {"cluster": name, "trace": value} for name, value in self.first_order_checks
            ],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class DetectorReport:
    """Conclusion of an application-level detector run.

    ``conclusion`` is only ``superadditive`` / ``gap_detected`` when the
    analytic criterion fired *and* the numeric confirmation
    ``(eps, f(eps))`` has the matching sign.  ``criteria`` holds the C1, C2
    and C3 reports of a witness detector, inapplicable ones included;
    ``criterion_report`` is the decisive one among them.
    """

    kind: str
    channels: tuple[dict, ...]
    base_states: str
    criterion_report: CriterionReport
    numeric_confirmation: tuple[float, float] | None
    conclusion: str
    admissible_r: float | None = None
    inequality: Mapping[str, float] | None = None
    notes: tuple[str, ...] = ()
    criteria: tuple[CriterionReport, ...] = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "channels": list(self.channels),
            "base_states": self.base_states,
            "criterion": self.criterion_report.to_json(),
            "criteria": [report.to_json() for report in self.criteria],
            "witness": (
                None
                if self.numeric_confirmation is None
                else {"eps": self.numeric_confirmation[0], "f": self.numeric_confirmation[1]}
            ),
            "conclusion": self.conclusion,
            "admissible_r": self.admissible_r,
            "inequality": None if self.inequality is None else dict(self.inequality),
            "notes": list(self.notes),
        }


def _condition_warnings(ev: FamilyEvaluator) -> list[str]:
    """Numerical-trust flags: nearly merged clusters shrink resolvent
    denominators, and a non-PSD kernel block of the first-order image
    breaks the kernel-splitting analysis."""
    out: list[str] = []
    for dec in (ev.out.dec, ev.env.dec):
        gaps = [a - b for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:])]
        if gaps and min(gaps) < 10.0 * dec.cluster_tol:
            out.append(WARN_NEAR_DEGENERATE)
            break
    for side in (ev.out, ev.env):
        if not side.full and not side.kernel_block_psd():
            out.append(f"{WARN_KERNEL_PSD}:{side.name}")
    return out


def check_criterion1(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """First-order kernel-splitting test.

    Applicable when at least one channel output is rank deficient.  Compares
    the kernel traces of the first-order direction on the two sides; a
    winning output side makes the first derivative of ``f`` diverge with the
    requested sign.
    """
    return _criterion(FamilyEvaluator(ch, fam, tol), "C1", sense)


def check_criterion2(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """Second-order kernel-splitting test.

    Applicable when at least one output is rank deficient.  Requires every
    per-cluster first-order trace on both sides to vanish; then compares the
    second-order kernel terms (``w0_trace``; a full-rank side contributes
    zero).
    """
    return _criterion(FamilyEvaluator(ch, fam, tol), "C2", sense)


def check_criterion3(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """Second-order test for the case where both outputs are full rank.

    Requires the first-order log traces of the two sides to agree (which
    pins the first derivative of ``f`` to zero), then compares the full
    second-derivative combinations
    ``2 tr(M(A2) ln M(rho)) + tr(W_M)`` of the two sides.  When the
    second-order log terms are negligible this reduces to the plain
    ``tr(W)`` comparison and the report is labeled ``C3``; otherwise it is
    labeled ``THM2_FULL2``.
    """
    return _criterion(FamilyEvaluator(ch, fam, tol), "C3", sense)


def _criterion(ev: FamilyEvaluator, name: str, sense: str) -> CriterionReport:
    """Criterion ``name`` (one of :data:`CRITERIA`) on one evaluator.

    C1 and C2 apply when an output is rank deficient, C3 when both are full
    rank.  Each criterion has a first-order precondition, recorded in
    ``first_order_checks``, and a decisive pair of traces: the kernel traces
    (C1), the second-order kernel terms ``w0`` (C2), or ``w + 2 tr(A2 ln .)``
    (C3).  ``first`` is the trace that must win for ``f`` to rise; the
    negative sense swaps the pair, so firing always means ``lhs > rhs``.  A
    violated precondition fails the report; otherwise it fires when the
    margin clears ``decision_tol``.
    """
    if sense not in SENSES:
        raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
    if name not in CRITERIA:
        raise ValueError(f"unknown criterion {name!r}; expected one of C1, C2, C3")
    tol, out, env = ev.tol, ev.out, ev.env
    if (out.full and env.full) != (name == "C3"):
        return CriterionReport(name, sense, "inapplicable", 0.0, 0.0, 0.0)

    label, checks, violated = name, (), ""
    if name == "C1":
        first, second = out.kernel_trace(), env.kernel_trace()
    elif name == "C2":
        checks = tuple(
            (f"{side.name}[{i}]", value)
            for side in (out, env)
            for i, value in enumerate(side.cluster_traces())
        )
        violated = ",".join(n for n, value in checks if abs(value) > tol.first_order_tol)
        first = 0.0 if out.full else out.w0()
        second = 0.0 if env.full else env.w0()
    else:
        t1_out, t1_env = out.log_trace(out.a1), env.log_trace(env.a1)
        t2_out, t2_env = out.log_trace(out.a2), env.log_trace(env.a2)
        if max(abs(t2_out), abs(t2_env)) > tol.first_order_tol:
            label = "THM2_FULL2"
        checks = (("out[log_a1]", t1_out), ("env[log_a1]", t1_env))
        if abs(t1_out - t1_env) > tol.first_order_tol:
            violated = "log_a1"
        # firing in the positive sense needs the environment side to dominate:
        # f''(0) = (env side) - (out side) in natural-log units
        first, second = env.w() + 2.0 * t2_env, out.w() + 2.0 * t2_out

    lhs, rhs = (first, second) if sense == "positive_f" else (second, first)
    margin = lhs - rhs
    warnings = _condition_warnings(ev)
    if violated:
        warnings.append(WARN_FIRST_ORDER_VIOLATED + ":" + violated)
        verdict = "fails"
    else:
        verdict = "fires" if margin > tol.decision_tol else "fails"
        if 0.0 < margin <= tol.decision_tol:
            warnings.append(WARN_NEAR_ZERO_MARGIN)
    return CriterionReport(
        label, sense, verdict, lhs, rhs, margin,
        first_order_checks=checks, warnings=tuple(warnings),
    )


def classify_first_order(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """Full-rank first-derivative test: fires when ``f'(0) > 0``.

    Compares the first-order log traces of the two full-rank outputs; the
    margin equals ``f'(0)`` in natural-log units.  At a tensor product of
    optimal states (with all single-channel outputs full rank) this can
    never fire: the first derivative is non-positive for every traceless
    direction.
    """
    ev = FamilyEvaluator(ch, fam, tol)
    if not (ev.out.full and ev.env.full):
        raise RankCaseError("first-order classification needs both outputs full rank")
    t1_out = ev.out.log_trace(ev.out.a1)
    t1_env = ev.env.log_trace(ev.env.a1)
    margin = t1_env - t1_out
    verdict = "fires" if margin > tol.decision_tol else "fails"
    return CriterionReport("THM1_FULLRANK", "positive_f", verdict, t1_env, t1_out, margin)


def _channel_json(ch: QuantumChannel) -> dict:
    if ch.spec is not None:
        return ch.spec.to_json()
    return {
        "family": "custom_kraus",
        "params": {"dim_in": ch.dim_in, "dim_out": ch.dim_out, "dim_env": ch.dim_env},
        "children": [],
    }


def default_witness_grid(radius: float, lo: float = 1e-4, points: int = 25) -> tuple[float, ...]:
    """Log-spaced epsilon grid inside the admissible radius."""
    if radius <= 0.0:
        return ()
    hi = min(radius, 1.0) * 0.999
    if hi <= lo:
        return (hi,)
    return tuple(float(x) for x in np.geomspace(lo, hi, points))


def _decisive(reports: Sequence[CriterionReport]) -> CriterionReport:
    """The first firing report; when nothing fires, the last applicable one,
    so that the caller still sees the decisive traces."""
    applicable = [report for report in reports if report.verdict != "inapplicable"]
    return next((report for report in applicable if report.fires), applicable[-1])


def _witness(
    ev: FamilyEvaluator, eps_grid: Sequence[float], sign: int, notes: list[str]
) -> tuple[float, float] | None:
    """The first grid point with the largest ``sign * f(eps)``, when that
    value exceeds ``numeric_margin`` bits; an empty grid adds a note."""
    if not eps_grid:
        notes.append("family admits no positive radius; no witness grid")
        return None
    eps, f = max(zip(eps_grid, map(float, ev.f_values(eps_grid))), key=lambda t: sign * t[1])
    return (eps, f) if sign * f > ev.tol.numeric_margin else None


def detect_superadditivity(
    channels: Sequence[QuantumChannel],
    optimal_states: Sequence[DensityMatrix],
    fam: PerturbationFamily,
    eps_grid: Sequence[float] | None = None,
    tol: Tolerances = DEFAULT,
) -> DetectorReport:
    """Detect strict superadditivity of one-shot quantum capacity.

    ``optimal_states[i]`` is asserted by the caller to be optimal for
    ``channels[i]``; the family must perturb their tensor product.  The
    criteria run in precedence order C1 -> C2 -> C3 in the positive sense;
    a firing criterion alone is not enough, a grid point with
    ``f(eps) > tol.numeric_margin`` bits must confirm it.  On success the
    one-shot capacity of the joint channel strictly exceeds the sum of the
    single-channel coherent informations at the asserted optimal states.
    """
    if len(channels) < 2 or len(channels) != len(optimal_states):
        raise ValueError("need at least two channels with one asserted optimal state each")
    product = optimal_states[0].matrix
    for state in optimal_states[1:]:
        product = np.kron(product, state.matrix)
    if np.linalg.norm(product - fam.base.matrix) > 1e-10:
        raise ValueError("family base state is not the tensor product of the optimal states")
    ev = FamilyEvaluator(tensor_all(list(channels)), fam, tol)
    reports = tuple(_criterion(ev, name, "positive_f") for name in CRITERIA)
    report = _decisive(reports)

    if eps_grid is None:
        eps_grid = default_witness_grid(admissible_radius(fam, tol))
    notes: list[str] = []
    witness = _witness(ev, eps_grid, +1, notes)

    inequality = None
    if witness is not None:
        inequality = {
            "joint_coherent_information_at_witness": float(
                ev.coherent_information([witness[0]])[0]
            ),
            "sum_of_single_channel_coherent_information": sum(
                coherent_information(state, ch, tol).value
                for ch, state in zip(channels, optimal_states)
            ),
        }

    if report.fires and witness is not None:
        conclusion = "superadditive"
    else:
        conclusion = "inconclusive"
        if report.fires and witness is None:
            notes.append("criterion fired but no grid point yielded a positive witness")
        if not report.fires and witness is not None:
            notes.append("numeric witness exists but no criterion fired")

    return DetectorReport(
        kind="superadditivity",
        channels=tuple(_channel_json(ch) for ch in channels),
        base_states="tensor product of caller-asserted optimal states",
        criterion_report=report,
        numeric_confirmation=witness,
        conclusion=conclusion,
        inequality=inequality,
        notes=tuple(notes),
        criteria=reports,
    )


def _largest_admissible_r(
    sigma: DensityMatrix,
    states: np.ndarray,
    tol: Tolerances,
    r_tol: float = 1e-6,
) -> float:
    """Largest ``r`` in (0, 1] with ``sigma - r * state`` PSD for every state
    in the stack ``states``, by bisection with one eigensolver call per probe.
    Each state's predicate is monotone in ``r``, so this is exactly the least
    of the per-state bisections."""

    def ok(r: float) -> bool:
        return bool(np.all(np.linalg.eigvalsh(sigma.matrix - r * states)[:, 0] >= -tol.psd_tol))

    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > r_tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def detect_private_gap(
    ch: QuantumChannel,
    sigma: DensityMatrix,
    fam: PerturbationFamily,
    eps_grid: Sequence[float] | None = None,
    tol: Tolerances = DEFAULT,
    r_tol: float = 1e-6,
) -> DetectorReport:
    """Detect a positive gap between one-shot private and quantum capacity.

    ``sigma`` is asserted by the caller to be an optimal mixed state for the
    channel; the family base must be pure.  The detector needs three pieces:
    a positive ``r`` with ``sigma - r * rho(eps)`` PSD across the witness
    grid, a negative-sense criterion firing, and a grid point with
    ``f(eps) < -tol.numeric_margin`` bits.  A detected gap also implies the
    complementary channel has positive private capacity.
    """
    top = float(np.linalg.eigvalsh(fam.base.matrix)[-1])
    if abs(top - 1.0) > tol.psd_tol:
        raise ValueError(f"family base must be pure; largest eigenvalue is {top!r}")

    if eps_grid is None:
        radius = admissible_radius(fam, tol)
        eps_grid = default_witness_grid(min(radius, 0.25), lo=1e-8, points=40)

    notes: list[str] = []
    r_bar: float | None = None
    if eps_grid:
        r_bar = min(
            _largest_admissible_r(sigma, stack, tol, r_tol)
            for stack in state_stacks(fam, eps_grid, tol)
        )

    ev = FamilyEvaluator(ch, fam, tol)
    reports = tuple(_criterion(ev, name, "negative_f") for name in CRITERIA)
    report = _decisive(reports)
    witness = _witness(ev, eps_grid, -1, notes)

    if r_bar is None or r_bar <= r_tol:
        conclusion = "inconclusive"
        notes.append("no admissible r > 0 keeps sigma - r * rho(eps) positive semidefinite")
    elif report.fires and witness is not None:
        conclusion = "gap_detected"
        notes.append("a positive gap also implies positive private capacity of the complement")
    else:
        conclusion = "inconclusive"
        if report.fires and witness is None:
            notes.append("criterion fired but no grid point yielded a negative witness")

    return DetectorReport(
        kind="private_gap",
        channels=(_channel_json(ch),),
        base_states="pure family base; sigma caller-asserted optimal",
        criterion_report=report,
        numeric_confirmation=witness,
        conclusion=conclusion,
        admissible_r=r_bar,
        notes=tuple(notes),
        criteria=reports,
    )


def complement_line_witness(
    ch: QuantumChannel,
    bases: Sequence[str] = ("z", "x"),
    param_tol: float = 1e-8,
    tol: Tolerances = DEFAULT,
) -> tuple[DensityMatrix, float, str]:
    """Best diagonal-line input for coherent information of the complement.

    Searches mixing lines between two orthogonal pure states in each listed
    basis, each by :func:`~cohpert.perturbation.section_maximize` on one
    evaluator, and returns ``(state, value_bits, basis)`` for the largest
    ``I_c(state, complement(ch))`` found.
    """
    comp = complement(ch)
    lines = []
    for basis in bases:
        fam = basis_line(ch.dim_in, basis)
        ev = FamilyEvaluator(comp, fam, tol)
        lines.append((*section_maximize(ev.coherent_information, 0.0, 1.0, param_tol), fam, basis))
    # the first basis wins ties
    u_star, value, fam, basis = max(lines, key=lambda line: line[1])
    return state_at(fam, u_star, tol), value, basis


def detect_private_gap_via_complement(
    ch: QuantumChannel,
    sigma: DensityMatrix,
    bases: Sequence[str] = ("z", "x"),
    tol: Tolerances = DEFAULT,
    r_tol: float = 1e-6,
) -> DetectorReport:
    """Shortcut gap detector through the complementary channel.

    Finds a diagonal-line state with ``I_c(rho, complement(ch)) > 0`` and an
    ``r > 0`` keeping ``sigma - r * rho`` PSD; both together imply the
    one-shot private capacity strictly exceeds the one-shot quantum
    capacity, with ``sigma`` caller-asserted optimal.
    """
    state, value, basis = complement_line_witness(ch, bases, tol=tol)
    r_bar = _largest_admissible_r(sigma, state.matrix[None], tol, r_tol)

    # the decisive quantity doubles as a degenerate criterion report
    verdict = "fires" if value > tol.numeric_margin else "fails"
    report = CriterionReport(
        criterion="COMPLEMENT_IC",
        sense="negative_f",
        verdict=verdict,
        lhs=value,
        rhs=0.0,
        margin=value,
    )
    notes = [f"line-search basis: {basis}"]
    if verdict == "fires" and r_bar > r_tol:
        conclusion = "gap_detected"
        notes.append("a positive gap also implies positive private capacity of the complement")
    else:
        conclusion = "inconclusive"
        if r_bar <= r_tol:
            notes.append("no admissible r > 0 keeps sigma - r * rho positive semidefinite")
    return DetectorReport(
        kind="private_gap",
        channels=(_channel_json(ch),),
        base_states="diagonal-line witness; sigma caller-asserted optimal",
        criterion_report=report,
        numeric_confirmation=(0.0, value) if verdict == "fires" else None,
        conclusion=conclusion,
        admissible_r=r_bar,
        notes=tuple(notes),
    )


def criterion_margin(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    criterion: str,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> float:
    """Margin of one named criterion for scan and root-finding use."""
    return _criterion(FamilyEvaluator(ch, fam, tol), criterion, sense).margin


def threshold_scan(
    channel_builder: Callable[[float], QuantumChannel],
    family_builder: Callable[[float], PerturbationFamily] | None,
    criterion: str,
    sense: str,
    lo: float,
    hi: float,
    param_tol: float = 1e-4,
    tol: Tolerances = DEFAULT,
) -> float:
    """Bisect a channel parameter for the zero of a criterion margin.

    ``criterion`` is one of ``C1``, ``C2``, ``C3`` (margin of that check,
    needing ``family_builder``) or ``hashing`` (coherent information of the
    maximally mixed state, in bits).  Raises when the margin has the same
    sign at both ends of the interval.
    """
    if criterion == "hashing":
        def margin(p: float) -> float:
            ch = channel_builder(p)
            return coherent_information(DensityMatrix.maximally_mixed(ch.dim_in), ch, tol).value
    else:
        if family_builder is None:
            raise ValueError(f"criterion {criterion!r} needs a family builder")

        def margin(p: float) -> float:
            return criterion_margin(channel_builder(p), family_builder(p), criterion, sense, tol)

    f_lo, f_hi = margin(lo), margin(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoSignChangeError(
            f"margin has no sign change on [{lo}, {hi}]: {f_lo:.6e} and {f_hi:.6e}"
        )
    a, b = lo, hi
    while b - a > param_tol:
        mid = 0.5 * (a + b)
        f_mid = margin(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            a, f_lo = mid, f_mid
        else:
            b = mid
    return 0.5 * (a + b)
