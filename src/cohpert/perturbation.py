"""Degenerate-eigenvalue perturbation machinery for channel outputs.

Given a base state ``rho`` perturbed along traceless Hermitian directions,
``rho(eps) = rho + eps A1 + eps^2 A2``, this module computes the spectral
quantities that control the first and second derivatives of the output
entropies and classifies the full-rank / rank-deficient cases.
:class:`FamilyEvaluator` holds the channel images and spectra of one
(channel, family) pair, so that each is computed once, and the one table of
the traces each criterion compares, which :func:`derivative_profile` and the
criteria read; the line searches run on one evaluator per line.

Internally every logarithm here is natural: the trace formulas below are
derivatives of the natural-log entropy.  Finite derivative values are
converted to bits (divide by ln 2) at the reporting boundary; divergent
cases are reported as signed-infinity markers, which no unit convention
can change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .channels import QuantumChannel, apply_matrix, complement
from .errors import RankCaseError
from .info import _entropy_bits
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    spectral_decompose,
    state_spectra,
)
from .tolerances import DEFAULT, Tolerances

LN2 = float(np.log(2.0))

POSITIVE_INFINITY = "+inf"
NEGATIVE_INFINITY = "-inf"

DerivativeValue = Union[float, str, None]

STACK_ENTRIES = 2 ** 12
"""Complex entries (64 KiB) in one stacked ``eigvalsh`` call along a family:
a grid is evaluated in chunks of ``STACK_ENTRIES // dim**2`` points (at
least one), so peak memory does not grow with the grid."""

SECTION_POINTS = 16
"""Interior points per round of :func:`section_maximize`; a round keeps 2 of
its 17 cells, so a unit bracket shrinks to ``PARAM_TOL`` in at most 9 rounds."""

PARAM_TOL = 1e-8
"""Bracket width at which :func:`section_maximize` stops."""

RANK_BOTH_FULL = "both_full"
RANK_ONE_DEFICIENT = "one_deficient"
RANK_BOTH_DEFICIENT = "both_deficient"

CRITERIA = ("C1", "C2", "C3")

WARN_KERNEL_PSD = "kernel_block_not_psd"
WARN_FIRST_ORDER_CANCEL = "kernel_log_terms_cancel_with_nonzero_splitting"
WARN_SECOND_ORDER_CANCEL = "second_order_log_terms_cancel"


@dataclass(frozen=True)
class PerturbationFamily:
    """State line ``rho(eps) = rho + eps A1 + eps^2 A2``.

    ``A1`` and ``A2`` must be traceless Hermitian; ``A2`` may be zero.
    :func:`admissible_radius` gives the exact ``eps`` up to which
    ``rho(eps)`` stays a state within ``psd_tol``.
    """

    base: DensityMatrix
    a1: HermitianOperator
    a2: HermitianOperator
    max_order: int = 2

    @classmethod
    def build(
        cls,
        base: DensityMatrix,
        a1: HermitianOperator,
        a2: HermitianOperator | None = None,
        max_order: int = 2,
    ) -> "PerturbationFamily":
        if max_order not in (1, 2):
            raise ValueError(f"max_order must be 1 or 2, got {max_order}")
        if a2 is None:
            a2 = HermitianOperator.zero(base.dim)
        for name, op in (("a1", a1), ("a2", a2)):
            if op.dim != base.dim:
                raise ValueError(f"{name} dimension {op.dim} does not match base {base.dim}")
            if abs(op.trace()) > 1e-12:
                raise ValueError(f"{name} must be traceless, got trace {op.trace()!r}")
        if max_order == 1 and a2.fro_norm() > 0.0:
            raise ValueError("max_order=1 family cannot carry a second-order direction")
        return cls(base, a1, a2, max_order)

    def matrix_at(self, eps: float) -> np.ndarray:
        return self.base.matrix + eps * self.a1.matrix + eps * eps * self.a2.matrix


def line_between(base: DensityMatrix, target: DensityMatrix) -> PerturbationFamily:
    """First-order family along the segment from ``base`` toward ``target``."""
    direction = HermitianOperator.from_matrix(target.matrix - base.matrix)
    return PerturbationFamily.build(base, direction, None, max_order=2)


def _line_stacks(
    base: np.ndarray, a1: np.ndarray, a2: np.ndarray, eps: np.ndarray
) -> Iterator[np.ndarray]:
    """``base + e a1 + e^2 a2`` for each ``e`` in ``eps``, in stacks of at most
    ``STACK_ENTRIES`` entries (or one matrix); the arithmetic is that of
    ``matrix_at``."""
    size = max(1, STACK_ENTRIES // base.size)
    for start in range(0, len(eps), size):
        e = eps[start:start + size, None, None]
        yield base + e * a1 + (e * e) * a2


def admissible_radius(fam: PerturbationFamily, tol: Tolerances = DEFAULT) -> float:
    """Largest ``eps`` in [0, 1] up to which ``rho(eps)`` keeps every
    eigenvalue at or above ``-psd_tol``, as :func:`state_at` requires; 0.0
    when a base eigenvalue sits at ``-psd_tol``.

    With ``w = V (L + psd_tol)^{-1/2}`` from the base's ``eigh``, every
    boundary is an ``eps = 1/mu`` for an eigenvalue ``mu`` of
    ``[[0, I], [-w^dag A2 w, -w^dag A1 w]]`` (Tisseur and Meerbergen, SIAM Rev.
    43, 235 (2001)).  One stacked ``eigvalsh`` at the midpoints between these
    finds the first interval outside the family, and two Newton steps on
    ``lambda_min + psd_tol`` polish its left end.
    """
    t, d = tol.psd_tol, fam.base.dim
    lam, v = np.linalg.eigh(fam.base.matrix)
    if lam[0] + t <= 0.0:
        return 0.0
    w = v / np.sqrt(lam + t)
    a1, a2 = (w.conj().T @ op.matrix @ w for op in (fam.a1, fam.a2))
    mu = np.linalg.eigvals(np.concatenate([np.eye(2 * d)[d:], -np.hstack([a2, a1])])).real
    # every real root is a candidate; the real parts of complex pairs only split intervals
    roots = np.sort(np.concatenate(([0.0, 1.0], 1.0 / mu[mu >= 1.0])))
    mids = 0.5 * (roots[:-1] + roots[1:])
    stacks = _line_stacks(fam.base.matrix, fam.a1.matrix, fam.a2.matrix, mids)
    bad = np.flatnonzero(np.concatenate([np.linalg.eigvalsh(s)[:, 0] for s in stacks]) < -t)
    if not bad.size:
        return 1.0
    eps = float(roots[bad[0]])
    for _ in range(2):
        lam, v = np.linalg.eigh(fam.matrix_at(eps))
        slope = (v[:, 0].conj() @ (fam.a1.matrix + 2.0 * eps * fam.a2.matrix) @ v[:, 0]).real
        eps -= (lam[0] + t) / slope
    return float(eps)


def state_at(fam: PerturbationFamily, eps: float, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """The validated state ``rho(eps)``; raises when ``eps`` leaves the family."""
    if eps < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps!r}")
    return DensityMatrix.from_matrix(fam.matrix_at(eps), tol)


def state_stacks(
    fam: PerturbationFamily, eps: Sequence[float], tol: Tolerances
) -> list[np.ndarray]:
    """The states ``rho(eps)`` in the stacks of :func:`_line_stacks`, each
    checked as :func:`state_at` checks one, with the same exceptions; the
    matrices equal those of ``state_at``."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0.0):
        raise ValueError(f"eps must be non-negative, got {float(eps[eps < 0.0][0])!r}")
    stacks = list(_line_stacks(fam.base.matrix, fam.a1.matrix, fam.a2.matrix, eps))
    for stack in stacks:
        state_spectra(stack, tol)
    return stacks


def _as_array(B: Union[HermitianOperator, np.ndarray]) -> np.ndarray:
    return B.matrix if isinstance(B, HermitianOperator) else np.asarray(B, dtype=complex)


def _diagonal(decomp: SpectralDecomposition, b: np.ndarray) -> np.ndarray:
    """Real diagonal of ``V^dag b V``, one entry per column of ``decomp.vectors``."""
    v = decomp.vectors
    return (v.conj() * (b @ v)).sum(axis=0).real


def log_weighted_trace(decomp: SpectralDecomposition, B: Union[HermitianOperator, np.ndarray],
                       tol: Tolerances = DEFAULT) -> float:
    """``tr(B ln M) = sum_a ln(lambda_a) (V^dag B V)_aa`` for full-rank ``M``."""
    if not decomp.is_full_rank(tol):
        raise RankCaseError("log trace needs a strictly positive spectrum")
    return float(np.log(decomp.column_values) @ _diagonal(decomp, _as_array(B)))


def _support_log_trace(decomp: SpectralDecomposition, b: np.ndarray, tol: Tolerances) -> float:
    """Log trace restricted to the strictly positive part of the spectrum."""
    keep = ~decomp.kernel_columns(tol)
    return float(np.log(decomp.column_values[keep]) @ _diagonal(decomp, b)[keep])


def w_trace(
    decomp: SpectralDecomposition,
    B: Union[HermitianOperator, np.ndarray],
    tol: Tolerances = DEFAULT,
) -> float:
    """Second-derivative trace for a strictly full-rank output spectrum.

    With ``B~ = V^dag B V`` the image of the first-order direction in the
    eigenbasis of the output, computes the Daleckii-Krein form
    ``sum_ab |B~_ab|^2 g(lambda_a, lambda_b)``, where
    ``g = (ln lambda_a - ln lambda_b) / (lambda_a - lambda_b)`` between
    clusters (evaluated as ``log1p((lambda_a - lambda_b) / lambda_b)`` over
    the gap, which stays accurate for close clusters) and ``g = 1 / lambda``
    within one.  This equals ``sum_i tr(P_i B V_i B P_i)`` with
    ``V_i = P_i / lambda_i - 2 ln(lambda_i) * sum_{j != i} (lambda_j - lambda_i)^-1 P_j``.
    The negative of this trace is the second derivative at 0+ of the
    natural-log output entropy when the second-order direction vanishes.
    """
    if not decomp.is_full_rank(tol):
        raise RankCaseError(
            "w_trace needs all cluster values above kernel_tol; "
            "use w0_trace for rank-deficient outputs"
        )
    lam = decomp.column_values
    gap = lam[:, None] - lam
    same = gap == 0.0
    gap = np.where(same, 1.0, gap)
    g = np.where(same, 1.0 / lam, np.log1p(gap / lam) / gap)
    bt = decomp.in_eigenbasis(_as_array(B))
    return float(np.sum((bt.real ** 2 + bt.imag ** 2) * g))


def w0_trace(
    decomp: SpectralDecomposition,
    B1: Union[HermitianOperator, np.ndarray],
    B2: Union[HermitianOperator, np.ndarray],
    tol: Tolerances = DEFAULT,
) -> float:
    """Second-order kernel-splitting trace for a rank-deficient output.

    With ``B~1 = V^dag B1 V`` in the eigenbasis of the output, computes
    ``sum_{a in ker} (V^dag B2 V)_aa - sum_{a in ker, b not in ker} |B~1_ab|^2 / lambda_b``.
    This is ``tr(P0 B2 - P0 B1 C0 B1 P0)`` with ``P0`` the kernel projector
    and ``C0 = sum_{lambda_j > 0} lambda_j^-1 P_j``: the sum of the
    second-order coefficients of the eigenvalues emerging from the kernel.
    ``B1`` and ``B2`` are the channel images of the two directions.
    """
    ker = decomp.kernel_columns(tol)
    if not ker.any():
        raise RankCaseError("w0_trace needs a kernel cluster; use w_trace for full-rank outputs")
    b1t = decomp.in_eigenbasis(_as_array(B1))[np.ix_(ker, ~ker)]
    splitting = float(np.sum((b1t.real ** 2 + b1t.imag ** 2) / decomp.column_values[~ker]))
    return float(_diagonal(decomp, _as_array(B2))[ker].sum()) - splitting


@dataclass(frozen=True)
class DerivativeProfile:
    """Classified derivative behaviour of ``f(eps)`` at ``eps = 0+``.

    ``fprime0`` and ``fsecond0`` are finite values in bits, the markers
    ``"+inf"`` / ``"-inf"``, or ``None`` when leading terms cancel and the
    limit is not resolved by this machinery.  ``leading_terms`` holds the
    natural-log traces that entered the classification.
    """

    rank_case: str
    fprime0: DerivativeValue
    fsecond0: DerivativeValue
    fprime0_divergence: str | None
    fsecond0_divergence: str | None
    leading_terms: Mapping[str, float | None]
    cluster_traces_out: tuple[float, ...]
    cluster_traces_env: tuple[float, ...]
    warnings: tuple[str, ...]


class _Side:
    """One channel's images of a family's ``base``, ``A1`` and ``A2``, with the
    spectral decomposition of the base image made on first use."""

    def __init__(self, name: str, ch: QuantumChannel, fam: PerturbationFamily, tol: Tolerances):
        self.name = name
        self.tol = tol
        self.state = apply_matrix(ch, fam.base.matrix)
        self.a1 = apply_matrix(ch, fam.a1.matrix)
        self.a2 = apply_matrix(ch, fam.a2.matrix)

    @cached_property
    def dec(self) -> SpectralDecomposition:
        return spectral_decompose(self.state)

    @property
    def full(self) -> bool:
        return self.dec.is_full_rank(self.tol)

    @cached_property
    def b1(self) -> np.ndarray:
        """``A1``'s image in the eigenbasis of the base image."""
        return self.dec.in_eigenbasis(self.a1)

    @cached_property
    def ker(self) -> np.ndarray:
        """Mask of the eigenbasis columns that span the kernel of the base image."""
        return self.dec.kernel_columns(self.tol)

    def kernel_trace(self) -> float:
        """``tr(P0 B1)``, the first-order splitting of the kernel."""
        return float(np.diagonal(self.b1).real[self.ker].sum())

    def cluster_traces(self) -> tuple[float, ...]:
        """``tr(P_i B1)`` for every eigenvalue cluster ``i`` of the base image."""
        starts = np.cumsum((0,) + self.dec.multiplicities[:-1])
        return tuple(map(float, np.add.reduceat(np.diagonal(self.b1).real, starts)))

    def kernel_block_psd(self) -> bool:
        """Whether the first-order block ``P0 B1 P0`` is PSD within
        ``first_order_tol``; the kernel-splitting analysis assumes it is."""
        block = self.b1[np.ix_(self.ker, self.ker)]
        return not block.size or float(np.linalg.eigvalsh(block)[0]) >= -self.tol.first_order_tol

    # full-rank traces are None on a deficient base image; w0 is 0.0 on a full one

    @cached_property
    def log_a1(self) -> float | None:
        return log_weighted_trace(self.dec, self.a1, self.tol) if self.full else None

    @cached_property
    def log_a2(self) -> float | None:
        return log_weighted_trace(self.dec, self.a2, self.tol) if self.full else None

    @cached_property
    def w(self) -> float | None:
        return w_trace(self.dec, self.a1, self.tol) if self.full else None

    @cached_property
    def w0(self) -> float:
        return 0.0 if self.full else w0_trace(self.dec, self.a1, self.a2, self.tol)


class _Comparison(NamedTuple):
    """The traces one criterion compares, ``f`` rising when ``first`` wins;
    ``violated`` names, comma-separated, the first-order ``checks`` that
    fail the criterion's precondition."""

    label: str
    first: float
    second: float
    checks: tuple[tuple[str, float], ...] = ()
    violated: str = ""

    @property
    def margin(self) -> float:
        return self.first - self.second


class FamilyEvaluator:
    """Everything one (channel, family) pair needs, computed once.

    Builds the canonical complement once, applies the channel (``out``) and
    the complement (``env``) to ``base``, ``A1`` and ``A2`` once, and keeps
    each side's spectral decomposition after first use.  The criteria,
    :func:`derivative_profile` and the detectors read their traces from
    here.  ``f(eps)`` over a whole grid follows from linearity,
    ``N(rho(eps)) = N(rho) + eps N(A1) + eps^2 N(A2)``, in one stacked
    eigensolver call per side and chunk.  Every rank decision and state
    check here uses the tolerances ``tol``; the entropies are continuous and
    read no tolerance.
    """

    def __init__(self, ch: QuantumChannel, fam: PerturbationFamily, tol: Tolerances = DEFAULT):
        self.family = fam
        self.tol = tol
        self.out = _Side("out", ch, fam, tol)
        self.env = _Side("env", complement(ch), fam, tol)

    @property
    def rank_case(self) -> str:
        if self.out.full and self.env.full:
            return RANK_BOTH_FULL
        if self.out.full or self.env.full:
            return RANK_ONE_DEFICIENT
        return RANK_BOTH_DEFICIENT

    def comparison(self, name: str) -> _Comparison | None:
        """The traces criterion ``name`` (one of :data:`CRITERIA`) compares,
        or ``None`` outside its rank case; the criteria and
        :func:`derivative_profile` read their comparisons here.

        C1 (an output rank deficient) compares the kernel traces.  C2 (the
        same rank case) needs every cluster trace to vanish and compares the
        ``w0`` terms.  C3 (both outputs full rank) needs the ``tr(A1 ln .)``
        traces to agree and compares ``w + 2 tr(A2 ln .)``, environment side
        first, labeled ``THM2_FULL2`` when a ``tr(A2 ln .)`` trace is not
        negligible (above ``first_order_tol``)."""
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; expected one of C1, C2, C3")
        tol, out, env = self.tol, self.out, self.env
        if (out.full and env.full) != (name == "C3"):
            return None
        if name == "C1":
            return _Comparison(name, out.kernel_trace(), env.kernel_trace())
        if name == "C2":
            checks = tuple((f"{side.name}[{i}]", value) for side in (out, env)
                           for i, value in enumerate(side.cluster_traces()))
            violated = ",".join(n for n, value in checks if abs(value) > tol.first_order_tol)
            return _Comparison(name, out.w0, env.w0, checks, violated)
        label = "THM2_FULL2" if max(abs(out.log_a2), abs(env.log_a2)) > tol.first_order_tol else name
        checks = (("out[log_a1]", out.log_a1), ("env[log_a1]", env.log_a1))
        violated = "log_a1" if abs(out.log_a1 - env.log_a1) > tol.first_order_tol else ""
        # f''(0) = (env side) - (out side) in natural-log units
        return _Comparison(label, env.w + 2.0 * env.log_a2, out.w + 2.0 * out.log_a2, checks, violated)

    def coherent_information(self, eps: Sequence[float]) -> np.ndarray:
        """``I_c(rho(eps))`` in bits at each ``eps``.

        Makes the checks that :func:`state_at` and
        :func:`~cohpert.info.coherent_information` make at one point, at the
        same tolerances and with the same exceptions: ``rho(eps)`` and both
        images must be states and round-off negatives are clamped; every
        positive eigenvalue enters the entropy, as in
        :func:`~cohpert.info.von_neumann_entropy`.
        """
        tol = self.tol
        eps = np.asarray(eps, dtype=float)
        state_stacks(self.family, eps, tol)
        out, env = (
            np.concatenate([np.empty(0)] + [
                _entropy_bits(np.clip(state_spectra(stack, tol), 0.0, None))
                for stack in _line_stacks(side.state, side.a1, side.a2, eps)
            ])
            for side in (self.out, self.env)
        )
        return out - env

    def f_values(self, eps: Sequence[float]) -> np.ndarray:
        """``f(eps) = I_c(rho(eps)) - I_c(rho)`` in bits at each ``eps``;
        ``I_c(rho)`` comes from the same stacked calls, at ``eps = 0``."""
        values = self.coherent_information(np.concatenate(([0.0], np.asarray(eps, dtype=float))))
        return values[1:] - values[0]


def basis_line(dim: int, basis: str) -> PerturbationFamily:
    """Line from ``|0>`` to ``|dim-1>`` (``"z"``) or from ``|+>`` to ``|->`` (``"x"``)."""
    if basis == "z":
        vec_lo, vec_hi = np.eye(dim)[0], np.eye(dim)[dim - 1]
    elif basis == "x":
        if dim != 2:
            raise ValueError("x-basis line search needs a qubit input")
        vec_lo, vec_hi = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown line basis {basis!r}")
    return line_between(DensityMatrix.pure(vec_lo), DensityMatrix.pure(vec_hi))


def section_maximize(
    fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> tuple[float, float]:
    """``(argmax, value)`` of ``fn``, which maps an array of parameters to
    their values, on ``[lo, hi]``.

    Each round evaluates ``fn`` once, on the bracket's ends and
    ``SECTION_POINTS`` evenly spaced points between them, and keeps the two
    cells around the first maximum, so that ties go to the smaller parameter.
    It stops before sampling a bracket of width ``PARAM_TOL`` or less.
    """
    a, b = float(lo), float(hi)
    while True:
        u = np.linspace(a, b, SECTION_POINTS + 2)
        values = fn(u)
        k = int(np.argmax(values))
        a, b = float(u[max(k - 1, 0)]), float(u[min(k + 1, SECTION_POINTS + 1)])
        if b - a <= PARAM_TOL:
            return float(u[k]), float(values[k])


def optimal_line_search(
    ch: QuantumChannel, tol: Tolerances = DEFAULT
) -> tuple[DensityMatrix, float]:
    """Maximize coherent information on the diagonal input line
    ``(1-u)|0><0| + u|d-1><d-1|``, ``d = ch.dim_in`` (:func:`basis_line` ``"z"``).

    The line has pure endpoints, so its maximum is never negative; when no
    interior point beats the endpoints the result is clamped to 0 at ``u = 0``.
    """
    fam = basis_line(ch.dim_in, "z")
    ev = FamilyEvaluator(ch, fam, tol)
    u_star, value = section_maximize(ev.coherent_information, 0.0, 1.0)
    if value > 0.0:
        return state_at(fam, u_star, tol), value
    # no interior point beats the pure endpoint u = 0, whose I_c is exactly 0
    return fam.base, 0.0


def _infinity(value: float) -> str:
    return POSITIVE_INFINITY if value > 0 else NEGATIVE_INFINITY


def _kernel_warnings(ev: FamilyEvaluator) -> list[str]:
    """``kernel_block_not_psd:<side>`` for each rank-deficient side whose
    kernel block fails :meth:`_Side.kernel_block_psd`."""
    return [f"{WARN_KERNEL_PSD}:{s.name}" for s in (ev.out, ev.env) if not (s.full or s.kernel_block_psd())]


def derivative_profile(
    ch: QuantumChannel,
    fam: PerturbationFamily,
    tol: Tolerances = DEFAULT,
) -> DerivativeProfile:
    """Classify the rank case and assemble every derivative-controlling trace.

    A view of the criteria's comparisons (:meth:`FamilyEvaluator.comparison`)
    at the same tolerances.  With both outputs full rank, ``ln 2 * f'(0+)``
    is the environment-side minus the output-side ``tr(A1 ln .)`` trace of
    C3's first-order checks, and ``ln 2 * f''(0+)`` is C3's margin.
    Otherwise ``f'`` diverges (``log``, and ``f''`` the other way like
    ``1/eps``: ``inverse``) exactly when C1 fires, cut at ``decision_tol``;
    failing that, when C2's first-order traces vanish, ``f'(0+) = 0`` and
    ``f''`` diverges (``log``) exactly when C2 fires.
    """
    ev = FamilyEvaluator(ch, fam, tol)
    out, env = ev.out, ev.env
    terms: dict[str, float | None] = {
        f"{key}_{side.name}": value
        for side in (out, env)
        for key, value in (("kernel_trace", side.kernel_trace()), ("log_trace_a1", side.log_a1),
                           ("log_trace_a2", side.log_a2), ("w", side.w), ("w0", side.w0))
    }
    warnings = _kernel_warnings(ev)
    fprime0: DerivativeValue = None
    fsecond0: DerivativeValue = None
    fprime0_div = fsecond0_div = None

    if ev.rank_case == RANK_BOTH_FULL:
        c3 = ev.comparison("C3")
        (_, t1_out), (_, t1_env) = c3.checks
        fprime0, fsecond0 = (t1_env - t1_out) / LN2, c3.margin / LN2
    else:
        c1, c2 = ev.comparison("C1"), ev.comparison("C2")
        if abs(c1.margin) > tol.decision_tol:
            # the kernel-splitting log(eps) term dominates f'; the matching
            # 1/eps term dominates f'' with the opposite sign
            fprime0, fsecond0 = _infinity(c1.margin), _infinity(-c1.margin)
            fprime0_div, fsecond0_div = "log", "inverse"
        elif not c2.violated:
            fprime0 = 0.0
            if abs(c2.margin) > tol.decision_tol:
                fsecond0, fsecond0_div = _infinity(c2.margin), "log"
            else:
                warnings.append(WARN_SECOND_ORDER_CANCEL)
        elif max(abs(c1.first), abs(c1.second)) <= tol.first_order_tol and not warnings:
            # no kernel_block_not_psd warning, so the kernel blocks vanish at
            # first order (a zero trace of a PSD block forces the block to zero),
            # the kernel only splits at second order and the first derivative
            # is finite, driven by the strictly positive part of both spectra
            t_out = _support_log_trace(out.dec, out.a1, tol)
            t_env = _support_log_trace(env.dec, env.a1, tol)
            terms.update(log_trace_a1_out=t_out, log_trace_a1_env=t_env)
            fprime0 = (-t_out + t_env) / LN2
            warnings.append(WARN_SECOND_ORDER_CANCEL)
        else:
            warnings.append(WARN_FIRST_ORDER_CANCEL)

    return DerivativeProfile(
        rank_case=ev.rank_case,
        fprime0=fprime0,
        fsecond0=fsecond0,
        fprime0_divergence=fprime0_div,
        fsecond0_divergence=fsecond0_div,
        leading_terms=terms,
        cluster_traces_out=out.cluster_traces(),
        cluster_traces_env=env.cluster_traces(),
        warnings=tuple(warnings),
    )
