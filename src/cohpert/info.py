"""Entropic quantities: von Neumann entropy, coherent information, and
private and Holevo information of ensembles.

Every value is a plain ``float`` in bits (log base 2).  Eigenvalues in
``[-psd_tol, 0)`` are round-off and clamped to zero; a lower one raises
:class:`~cohpert.errors.PositivityError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import QuantumChannel, apply, apply_matrix, complement
from .errors import DimensionError, PositivityError
from .linalg import DensityMatrix
from .tolerances import DEFAULT, Tolerances


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


def _spectrum_entropy(raw: np.ndarray, tol: Tolerances) -> float:
    """:func:`von_neumann_entropy` of a state with ascending eigenvalues ``raw``."""
    if raw[0] < -tol.psd_tol:
        raise PositivityError(f"eigenvalue {raw[0]:.3e} below -{tol.psd_tol:.1e}")
    return float(_entropy_bits(np.clip(raw, 0.0, None)))


def von_neumann_entropy(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> float:
    """Entropy ``-sum_i w_i log2 w_i`` with the continuous ``0 log 0 = 0`` rule.

    Eigenvalues in ``[-tol.psd_tol, 0)`` are clamped to zero; every positive
    eigenvalue contributes, however small.
    """
    return _spectrum_entropy(np.linalg.eigvalsh(rho.matrix), tol)


def coherent_information(
    rho: DensityMatrix, ch: QuantumChannel, tol: Tolerances = DEFAULT
) -> float:
    """``S(N(rho)) - S(Nc(rho))`` in bits, with ``Nc`` the canonical complement.
    Each image's entropy comes from the spectrum that its validation computes."""
    out, env = (
        _spectrum_entropy(
            DensityMatrix.with_spectrum(apply_matrix(side, rho.matrix), tol)[1], tol
        )
        for side in (ch, complement(ch))
    )
    return out - env


def holevo_information(ens: Ensemble, ch: QuantumChannel) -> float:
    """``S(N(rho)) - sum_i p_i S(N(rho_i))`` for the ensemble mixture ``rho``."""
    return von_neumann_entropy(apply(ch, ens.mixture())) - sum(
        p * von_neumann_entropy(apply(ch, state)) for p, state in zip(ens.weights, ens.states)
    )


def private_information(ens: Ensemble, ch: QuantumChannel) -> float:
    """Coherent information of the mixture minus the ensemble average of members."""
    return coherent_information(ens.mixture(), ch) - sum(
        p * coherent_information(state, ch) for p, state in zip(ens.weights, ens.states)
    )
