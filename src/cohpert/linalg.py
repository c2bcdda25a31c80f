"""Dense complex Hermitian linear algebra.

Eigendecomposition with eigenvalue clustering (eigenvectors kept), kernel
detection and positive-semidefiniteness checks.  All types are immutable
after construction and all operations are pure functions, so everything
here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, HermiticityError, PositivityError
from .tolerances import (
    DEFAULT,
    HERM_TOL,
    PROJ_TOL,
    RECON_TOL,
    TRACE_TOL,
    Tolerances,
    default_cluster_tol,
)

MatrixLike = Union[np.ndarray, Sequence[Sequence[complex]]]


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HermitianOperator:
    """A complex square matrix with certified Hermiticity.

    Use :meth:`from_matrix` to build one from raw data: the constructor
    symmetrizes ``(M + M^dag)/2`` and rejects inputs whose anti-Hermitian
    part exceeds ``HERM_TOL`` relative to the Frobenius norm.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix: MatrixLike) -> "HermitianOperator":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        sym = (m + m.conj().T) / 2.0
        residual = np.linalg.norm(m - sym)
        scale = max(1.0, np.linalg.norm(sym))
        if residual > HERM_TOL * scale:
            raise HermiticityError(
                f"matrix is not Hermitian: residual {residual:.3e} exceeds "
                f"{HERM_TOL:.1e} * |H|_F"
            )
        return cls(_frozen(sym))

    @classmethod
    def zero(cls, dim: int) -> "HermitianOperator":
        return cls(_frozen(np.zeros((dim, dim))))

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def fro_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian operator certified to be a quantum state.

    Trace must equal 1 within ``TRACE_TOL`` and the minimum eigenvalue must
    not fall below ``-tol.psd_tol``.  Negative round-off eigenvalues are
    kept in the matrix and clamped to zero only on spectral read-out.
    """

    op: HermitianOperator

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    @classmethod
    def from_matrix(cls, matrix: MatrixLike, tol: Tolerances = DEFAULT) -> "DensityMatrix":
        return cls.with_spectrum(matrix, tol)[0]

    @classmethod
    def with_spectrum(
        cls, matrix: MatrixLike, tol: Tolerances = DEFAULT
    ) -> tuple["DensityMatrix", np.ndarray]:
        """:meth:`from_matrix`, also returning the ascending eigenvalues that
        its positivity check computes."""
        op = HermitianOperator.from_matrix(matrix)
        tr = op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL:.1e}")
        w = np.linalg.eigvalsh(op.matrix)
        if w[0] < -tol.psd_tol:
            raise PositivityError(
                f"density matrix has eigenvalue {float(w[0]):.3e} below -{tol.psd_tol:.1e}"
            )
        return cls(op), w

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(HermitianOperator(_frozen(np.eye(dim) / dim)))

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "DensityMatrix":
        """State |psi><psi| from a (normalized) amplitude vector."""
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero vector")
        v = v / norm
        return cls(HermitianOperator(_frozen(np.outer(v, v.conj()))))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct (clustered) eigenvalues with their eigenvectors.

    ``eigenvalues`` are descending cluster values and ``multiplicities[i]``
    counts the eigenvectors merged into cluster ``i``.  The columns of
    ``vectors`` are orthonormal eigenvectors grouped by cluster in the same
    order, and ``column_values`` gives each column its cluster value.
    Clustering is by transitive closure: raw eigenvalues whose chain of
    mutual gaps stays within ``cluster_tol`` merge into one cluster whose
    value is the mean of its members.
    """

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    cluster_tol: float
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def column_values(self) -> np.ndarray:
        return np.repeat(self.eigenvalues, self.multiplicities)

    def kernel_columns(self, tol: Tolerances = DEFAULT) -> np.ndarray:
        """Mask of the columns of ``vectors`` that span the kernel."""
        return np.abs(self.column_values) <= tol.kernel_tol

    def is_full_rank(self, tol: Tolerances = DEFAULT) -> bool:
        return not self.kernel_columns(tol).any()

    def in_eigenbasis(self, b: np.ndarray) -> np.ndarray:
        """``V^dag b V``, with ``V`` the matrix of ``vectors``."""
        return self.vectors.conj().T @ b @ self.vectors

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.column_values) @ self.vectors.conj().T


def _as_matrix(H: Union[HermitianOperator, DensityMatrix, MatrixLike]) -> np.ndarray:
    if isinstance(H, HermitianOperator):
        return H.matrix
    if isinstance(H, DensityMatrix):
        return H.matrix
    return HermitianOperator.from_matrix(H).matrix


def spectral_decompose(
    H: Union[HermitianOperator, DensityMatrix, MatrixLike],
    cluster_tol: float | None = None,
) -> SpectralDecomposition:
    """Eigendecompose ``H`` and merge near-degenerate eigenvalues.

    Raw eigenvalues are sorted and chained: consecutive gaps at most
    ``cluster_tol`` merge into a single cluster (transitive closure, so the
    grouping is order-independent).  The cluster value is the mean of the
    merged raw eigenvalues.  Clusters are returned in descending order.

    Raises if the eigensolver fails or the spectral data does not
    reconstruct ``H`` within ``RECON_TOL`` (relative to its norm).
    """
    m = _as_matrix(H)
    dim = m.shape[0]
    norm = float(np.linalg.norm(m))
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(norm)
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")

    try:
        w, V = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise np.linalg.LinAlgError(f"eigendecomposition failed: {exc}") from exc

    # cluster index of each raw eigenvalue, 0 for the largest
    cluster = np.concatenate(([0], np.cumsum(np.diff(w) > cluster_tol)))
    cluster = cluster[-1] - cluster
    counts = np.bincount(cluster)
    means = np.bincount(cluster, weights=w) / counts
    decomp = SpectralDecomposition(
        eigenvalues=tuple(means.tolist()),
        multiplicities=tuple(counts.tolist()),
        cluster_tol=cluster_tol,
        vectors=_frozen(V[:, np.argsort(cluster, kind="stable")]),
    )

    vectors = decomp.vectors
    if np.linalg.norm(vectors.conj().T @ vectors - np.eye(dim)) > PROJ_TOL:
        raise ValueError("spectral projectors do not sum to the identity")
    # merged clusters legitimately shift eigenvalues by up to their spread
    allowed = RECON_TOL * max(1.0, norm) + float(np.abs(w - means[cluster]).max()) * np.sqrt(dim)
    if np.linalg.norm(decomp.reconstruct() - m) > allowed:
        raise ValueError("spectral data does not reconstruct the operator")
    return decomp


def state_spectra(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a stack, in one ``eigvalsh`` call.

    Each matrix is checked as :meth:`DensityMatrix.from_matrix` checks one,
    with the same exceptions: its anti-Hermitian part must stay within
    ``HERM_TOL`` of its Frobenius norm, its trace within ``TRACE_TOL`` of 1
    and its smallest eigenvalue at least ``-tol.psd_tol``.  The eigenvalues
    are those of the Hermitian parts.  ``DensityMatrix.from_matrix`` keeps
    its own single-matrix checks, which cost less per call on small states.
    """
    sym = (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2.0
    residual = np.linalg.norm(stack - sym, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(sym, axis=(-2, -1)))
    if np.any(residual > HERM_TOL * scale):
        worst = float(np.max(residual / scale))
        raise HermiticityError(
            f"matrix is not Hermitian: residual {worst:.3e} exceeds {HERM_TOL:.1e} * |H|_F"
        )
    traces = np.trace(sym, axis1=-2, axis2=-1).real
    off = np.abs(traces - 1.0) > TRACE_TOL
    if np.any(off):
        tr = float(traces[off][0])
        raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL:.1e}")
    w = np.linalg.eigvalsh(sym)
    if np.any(w[..., 0] < -tol.psd_tol):
        raise PositivityError(
            f"density matrix has eigenvalue {float(w[..., 0].min()):.3e} below -{tol.psd_tol:.1e}"
        )
    return w
