"""Entropic quantities: von Neumann entropy, coherent information, private
and Holevo information of ensembles, and one-parameter optimal-state
searches for the named channel families.

All values are reported in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import QuantumChannel, apply, complement
from .errors import DimensionError, PositivityError
from .linalg import DensityMatrix
from .tolerances import resolve

LINE_FAMILIES = ("ad_diagonal", "platypus_diagonal", "fixed_maximally_mixed")

FLAG_NEAR_KERNEL = "near_kernel_eigenvalue"
FLAG_CLAMPED = "negative_eigenvalue_clamped"
FLAG_LINE_MAX_NONPOSITIVE = "line_maximum_nonpositive"


@dataclass(frozen=True)
class InfoValue:
    """A scalar information quantity in bits plus numerical condition flags."""

    value: float
    flags: frozenset[str] = frozenset()

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of states ``{p_i, rho_i}`` on a common system."""

    weights: tuple[float, ...]
    states: tuple[DensityMatrix, ...]

    @classmethod
    def build(cls, weights: Sequence[float], states: Sequence[DensityMatrix]) -> "Ensemble":
        w = tuple(float(x) for x in weights)
        if not w or len(w) != len(states):
            raise ValueError("ensemble needs matching, non-empty weights and states")
        if any(x < 0 for x in w):
            raise ValueError("ensemble weights must be non-negative")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {sum(w)!r}, not 1")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionError(f"ensemble states have mixed dimensions {sorted(dims)}")
        return cls(w, tuple(states))

    def mixture(self) -> DensityMatrix:
        acc = sum(p * s.matrix for p, s in zip(self.weights, self.states))
        return DensityMatrix.from_matrix(acc)


def _entropy_bits(eigenvalues: np.ndarray, kernel_tol: float) -> tuple[float, set[str]]:
    flags: set[str] = set()
    if np.any((eigenvalues > 0.0) & (eigenvalues <= kernel_tol)):
        flags.add(FLAG_NEAR_KERNEL)
    kept = eigenvalues[eigenvalues > kernel_tol]
    if kept.size == 0:
        return 0.0, flags
    return float(-(kept * np.log2(kept)).sum()), flags


def von_neumann_entropy(
    rho: DensityMatrix,
    kernel_tol: float | None = None,
    psd_tol: float | None = None,
) -> InfoValue:
    """Entropy ``-sum_i w_i log2 w_i`` with the continuous ``0 log 0 = 0`` rule.

    Eigenvalues in ``[-psd_tol, 0)`` are clamped to zero (flagged);
    eigenvalues in ``(0, kernel_tol]`` contribute zero (flagged).
    """
    kernel_tol = resolve(kernel_tol, "KERNEL_TOL")
    psd_tol = resolve(psd_tol, "PSD_TOL")
    raw = np.linalg.eigvalsh(rho.matrix)
    if raw[0] < -psd_tol:
        raise PositivityError(f"eigenvalue {raw[0]:.3e} below -{psd_tol:.1e}")
    flags: set[str] = set()
    if raw[0] < 0.0:
        flags.add(FLAG_CLAMPED)
    value, more = _entropy_bits(np.clip(raw, 0.0, None), kernel_tol)
    return InfoValue(value, frozenset(flags | more))


def coherent_information(
    rho: DensityMatrix,
    ch: QuantumChannel,
    kernel_tol: float | None = None,
    psd_tol: float | None = None,
) -> InfoValue:
    """``S(N(rho)) - S(Nc(rho))`` in bits, with ``Nc`` the canonical complement."""
    out = von_neumann_entropy(apply(ch, rho), kernel_tol=kernel_tol, psd_tol=psd_tol)
    env = von_neumann_entropy(
        apply(complement(ch), rho), kernel_tol=kernel_tol, psd_tol=psd_tol
    )
    return InfoValue(out.value - env.value, out.flags | env.flags)


def holevo_information(ens: Ensemble, ch: QuantumChannel) -> InfoValue:
    """``S(N(rho)) - sum_i p_i S(N(rho_i))`` for the ensemble mixture ``rho``."""
    flags: frozenset[str] = frozenset()
    mixed = von_neumann_entropy(apply(ch, ens.mixture()))
    flags |= mixed.flags
    total = mixed.value
    for p, state in zip(ens.weights, ens.states):
        member = von_neumann_entropy(apply(ch, state))
        flags |= member.flags
        total -= p * member.value
    return InfoValue(total, flags)


def private_information(ens: Ensemble, ch: QuantumChannel) -> InfoValue:
    """Coherent information of the mixture minus the ensemble average of members."""
    flags: frozenset[str] = frozenset()
    mixed = coherent_information(ens.mixture(), ch)
    flags |= mixed.flags
    total = mixed.value
    for p, state in zip(ens.weights, ens.states):
        member = coherent_information(state, ch)
        flags |= member.flags
        total -= p * member.value
    return InfoValue(total, flags)


def golden_section_maximize(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    param_tol: float = 1e-8,
) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on ``[lo, hi]``.

    Deterministic; on plateaus the bracket collapses toward the smaller
    parameter.  Returns ``(argmax, value)``.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > param_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = a if fn(a) >= fn(b) else b
    return x, fn(x)


def _diagonal_line_state(dim: int, lo_index: int, hi_index: int, u: float) -> DensityMatrix:
    m = np.zeros((dim, dim), dtype=complex)
    m[lo_index, lo_index] = 1.0 - u
    m[hi_index, hi_index] = u
    return DensityMatrix.from_matrix(m)


def optimal_line_search(
    ch: QuantumChannel,
    family: str,
    param_tol: float = 1e-8,
) -> tuple[DensityMatrix, InfoValue]:
    """Maximize coherent information along a named one-parameter input line.

    ``ad_diagonal`` searches ``(1-u)|0><0| + u|1><1|`` on qubit inputs,
    ``platypus_diagonal`` searches ``(1-u)|0><0| + u|2><2|`` on qutrit
    inputs, and ``fixed_maximally_mixed`` evaluates the maximally mixed
    state with no search.  The searched lines include pure endpoints, so
    the line maximum is never negative; when no interior point beats the
    endpoints the result is clamped to 0 and flagged.
    """
    if family not in LINE_FAMILIES:
        raise ValueError(f"unknown line family {family!r}; expected one of {LINE_FAMILIES}")
    if family == "fixed_maximally_mixed":
        rho = DensityMatrix.maximally_mixed(ch.dim_in)
        return rho, coherent_information(rho, ch)
    if family == "ad_diagonal":
        if ch.dim_in != 2:
            raise DimensionError(f"ad_diagonal needs a qubit input, channel has dim_in={ch.dim_in}")
        hi_index = 1
    else:  # platypus_diagonal
        if ch.dim_in != 3:
            raise DimensionError(
                f"platypus_diagonal needs a qutrit input, channel has dim_in={ch.dim_in}"
            )
        hi_index = 2

    comp = complement(ch)

    def objective(u: float) -> float:
        rho = _diagonal_line_state(ch.dim_in, 0, hi_index, u)
        out = von_neumann_entropy(apply(ch, rho))
        env = von_neumann_entropy(apply(comp, rho))
        return out.value - env.value

    u_star, value = golden_section_maximize(objective, 0.0, 1.0, param_tol=param_tol)
    # the endpoints are pure states with exactly zero coherent information
    candidates = [(0.0, 0.0), (u_star, value), (1.0, 0.0)]
    u_best, v_best = max(candidates, key=lambda t: (t[1], -t[0]))
    flags = {FLAG_LINE_MAX_NONPOSITIVE} if value <= 0.0 else set()
    rho = _diagonal_line_state(ch.dim_in, 0, hi_index, u_best)
    return rho, InfoValue(max(v_best, 0.0), frozenset(flags))
