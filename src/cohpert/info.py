"""Entropic quantities: von Neumann entropy, coherent information, and
private and Holevo information of ensembles.

All values are reported in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import QuantumChannel, apply, apply_matrix, complement
from .errors import DimensionError, PositivityError
from .linalg import DensityMatrix
from .tolerances import DEFAULT, Tolerances

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


def _entropy_bits(eigenvalues: np.ndarray) -> np.ndarray:
    """``-sum_i w_i log2 w_i`` over the last axis of clipped eigenvalues, with
    ``0 log 0 = 0``; a stack row gets its own value."""
    kept = np.where(eigenvalues > 0.0, eigenvalues, 1.0)
    return -(kept * np.log2(kept)).sum(axis=-1)


def _spectrum_entropy(raw: np.ndarray, tol: Tolerances) -> InfoValue:
    """:func:`von_neumann_entropy` of a state with ascending eigenvalues ``raw``."""
    if raw[0] < -tol.psd_tol:
        raise PositivityError(f"eigenvalue {raw[0]:.3e} below -{tol.psd_tol:.1e}")
    flags = frozenset({FLAG_CLAMPED} if raw[0] < 0.0 else ())
    return InfoValue(float(_entropy_bits(np.clip(raw, 0.0, None))), flags)


def von_neumann_entropy(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> InfoValue:
    """Entropy ``-sum_i w_i log2 w_i`` with the continuous ``0 log 0 = 0`` rule.

    Eigenvalues in ``[-tol.psd_tol, 0)`` are clamped to zero (flagged);
    every positive eigenvalue contributes, however small.
    """
    return _spectrum_entropy(np.linalg.eigvalsh(rho.matrix), tol)


def coherent_information(
    rho: DensityMatrix, ch: QuantumChannel, tol: Tolerances = DEFAULT
) -> InfoValue:
    """``S(N(rho)) - S(Nc(rho))`` in bits, with ``Nc`` the canonical complement.
    Each image's entropy comes from the spectrum that its validation computes."""
    out, env = (
        _spectrum_entropy(
            DensityMatrix.with_spectrum(apply_matrix(side, rho.matrix), tol)[1], tol
        )
        for side in (ch, complement(ch))
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
