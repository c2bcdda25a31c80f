"""Suboptimality criteria for coherent information and the two detectors
built on them: superadditivity of one-shot quantum capacity and a positive
gap between one-shot private and quantum capacity.

:func:`check_criterion` runs one of the criteria C1, C2 and C3.  Each is a
report on one comparison, made by
:meth:`~cohpert.perturbation.FamilyEvaluator.comparison`, which
:func:`~cohpert.perturbation.derivative_profile` reads too: a rank case, a
first-order precondition and a pair of traces.  ``sense="positive_f"`` asks
whether the perturbation can raise coherent information, ``"negative_f"``
whether it can lower it (the pair swaps, so the margin flips sign exactly).
A report never concludes from the analytic inequality alone: detectors also
require a numeric witness ``f(eps)`` of the right sign.  Each witness
detector runs all three criteria on its one evaluator and keeps every report.
:func:`threshold_scan` bisects any margin function of one parameter, such as
a criterion margin or the coherent information of a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channels import QuantumChannel, tensor_all
from .errors import NoSignChangeError
from .info import coherent_information
from .linalg import DensityMatrix
from .perturbation import (
    CRITERIA,
    FamilyEvaluator,
    PerturbationFamily,
    admissible_radius,
    basis_line,
    section_maximize,
    state_at,
    state_stacks,
    _kernel_warnings,
)
from .tolerances import DEFAULT, Tolerances

SENSES = ("positive_f", "negative_f")

R_TOL = 1e-6
"""Cut below which the gap detectors read the exact ``r``-bar as no admissible ``r > 0``."""

WARN_FIRST_ORDER_VIOLATED = "first_order_condition_violated"
WARN_NEAR_ZERO_MARGIN = "margin_within_decision_tolerance"
WARN_NEAR_DEGENERATE = "near_degenerate_clustering"


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
    return out + _kernel_warnings(ev)


def check_criterion(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    criterion: str,
    sense: str = "positive_f",
    tol: Tolerances = DEFAULT,
) -> CriterionReport:
    """Criterion ``C1``, ``C2`` or ``C3`` on a channel and a family.

    - ``C1`` is the first-order kernel-splitting test, for an output rank
      deficient: a winning output-side kernel trace makes ``f'`` diverge
      with the requested sign.
    - ``C2`` is the second-order kernel-splitting test, for an output rank
      deficient and every cluster trace zero: it compares the ``w0_trace``
      terms, a full-rank side contributing zero.
    - ``C3`` is the second-order test with both outputs full rank and equal
      first-order log traces: it compares ``tr(W_M) + 2 tr(M(A2) ln M(rho))``
      of the two sides, labeled ``THM2_FULL2`` when the ``A2`` log terms are
      not negligible.

    A criterion whose rank case does not hold is ``inapplicable``; an
    unknown name raises :class:`ValueError`.
    """
    return _criterion(FamilyEvaluator(ch, fam, tol), criterion, sense)


def _criterion(ev: FamilyEvaluator, name: str, sense: str) -> CriterionReport:
    """Criterion ``name`` on one evaluator, from the traces of
    :meth:`FamilyEvaluator.comparison`.  The negative sense swaps the pair,
    so firing always means ``lhs > rhs``: a report fires when its
    precondition holds and the margin clears ``decision_tol``."""
    if sense not in SENSES:
        raise ValueError(f"sense must be one of {SENSES}, got {sense!r}")
    comparison = ev.comparison(name)
    if comparison is None:
        return CriterionReport(name, sense, "inapplicable", 0.0, 0.0, 0.0)
    first, second = comparison.first, comparison.second
    lhs, rhs = (first, second) if sense == "positive_f" else (second, first)
    margin = lhs - rhs
    warnings = _condition_warnings(ev)
    if comparison.violated:
        warnings.append(WARN_FIRST_ORDER_VIOLATED + ":" + comparison.violated)
        verdict = "fails"
    else:
        verdict = "fires" if margin > ev.tol.decision_tol else "fails"
        if 0.0 < margin <= ev.tol.decision_tol:
            warnings.append(WARN_NEAR_ZERO_MARGIN)
    return CriterionReport(
        comparison.label, sense, verdict, lhs, rhs, margin,
        first_order_checks=comparison.checks, warnings=tuple(warnings),
    )


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
                coherent_information(state, ch, tol)
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


def _largest_admissible_r(sigma: DensityMatrix, states: np.ndarray, tol: Tolerances) -> float:
    """Largest ``r`` in [0, 1] keeping ``sigma - r * state`` at or above
    ``-psd_tol`` for every state in ``states``: with ``S = sigma + psd_tol I``
    that is ``1 / lambda_max(S^-1/2 state S^-1/2)``, from one ``eigh`` and one
    stacked ``eigvalsh`` (0.0 when ``S`` is singular)."""
    lam, v = np.linalg.eigh(sigma.matrix)
    if lam[0] + tol.psd_tol <= 0.0:
        return 0.0
    w = v / np.sqrt(lam + tol.psd_tol)
    top = np.linalg.eigvalsh(w.conj().T @ states @ w)[:, -1].max()
    return float(min(1.0, 1.0 / top))


def detect_private_gap(
    ch: QuantumChannel,
    sigma: DensityMatrix,
    fam: PerturbationFamily,
    eps_grid: Sequence[float] | None = None,
    tol: Tolerances = DEFAULT,
) -> DetectorReport:
    """Detect a positive gap between one-shot private and quantum capacity.

    ``sigma`` is asserted by the caller to be an optimal mixed state for the
    channel; the family base must be pure.  The detector needs three pieces:
    an exact ``r``-bar above ``R_TOL`` with ``sigma - r * rho(eps)`` PSD
    within ``psd_tol`` across the witness grid, a negative-sense criterion
    firing, and a grid point with ``f(eps) < -tol.numeric_margin`` bits.
    A detected gap also implies the complementary channel has positive
    private capacity.
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
            _largest_admissible_r(sigma, stack, tol)
            for stack in state_stacks(fam, eps_grid, tol)
        )

    ev = FamilyEvaluator(ch, fam, tol)
    reports = tuple(_criterion(ev, name, "negative_f") for name in CRITERIA)
    report = _decisive(reports)
    witness = _witness(ev, eps_grid, -1, notes)

    if r_bar is None or r_bar <= R_TOL:
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
    ch: QuantumChannel, tol: Tolerances = DEFAULT
) -> tuple[DensityMatrix, float, str]:
    """Best diagonal-line input for coherent information of the complement.

    Searches the :func:`~cohpert.perturbation.basis_line` lines, ``z`` and
    ``x`` for a qubit input and ``z`` otherwise, each by
    :func:`~cohpert.perturbation.section_maximize` on one evaluator, and
    returns ``(state, value_bits, basis)`` for the largest
    ``I_c(state, complement(ch))`` found.  That is ``-I_c(state, ch)``,
    since the complement swaps the roles of output and environment, so each
    line is searched on an evaluator of ``ch`` itself.
    """
    lines = []
    for basis in ("z", "x") if ch.dim_in == 2 else ("z",):
        fam = basis_line(ch.dim_in, basis)
        ev = FamilyEvaluator(ch, fam, tol)
        # 0.0 - x rather than -x, so that a zero value stays +0.0
        line_max = section_maximize(lambda u: 0.0 - ev.coherent_information(u), 0.0, 1.0)
        lines.append((*line_max, fam, basis))
    # the first basis wins ties
    u_star, value, fam, basis = max(lines, key=lambda line: line[1])
    return state_at(fam, u_star, tol), value, basis


def detect_private_gap_via_complement(
    ch: QuantumChannel, sigma: DensityMatrix, tol: Tolerances = DEFAULT
) -> DetectorReport:
    """Shortcut gap detector through the complementary channel.

    Finds a diagonal-line state with ``I_c(rho, complement(ch)) > 0`` and an
    ``r > 0`` keeping ``sigma - r * rho`` PSD; both together imply the
    one-shot private capacity strictly exceeds the one-shot quantum
    capacity, with ``sigma`` caller-asserted optimal.
    """
    state, value, basis = complement_line_witness(ch, tol)
    r_bar = _largest_admissible_r(sigma, state.matrix[None], tol)

    # the decisive quantity doubles as a degenerate criterion report
    verdict = "fires" if value > tol.numeric_margin else "fails"
    report = CriterionReport("COMPLEMENT_IC", "negative_f", verdict, value, 0.0, value)
    notes = [f"line-search basis: {basis}"]
    if verdict == "fires" and r_bar > R_TOL:
        conclusion = "gap_detected"
        notes.append("a positive gap also implies positive private capacity of the complement")
    else:
        conclusion = "inconclusive"
        if r_bar <= R_TOL:
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


def threshold_scan(
    margin: Callable[[float], float], lo: float, hi: float, param_tol: float = 1e-4
) -> float:
    """Bisect a parameter on ``[lo, hi]`` for a zero of ``margin``, to
    within ``param_tol``.  Raises :class:`NoSignChangeError` when the margin
    has the same sign at both ends of the interval."""
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
