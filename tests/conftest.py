import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    HermitianOperator,
    apply_matrix,
    complement,
    depolarizing_channel,
    PositivityError,
    make_channel,
    spectral_decompose,
    state_at,
    tensor,
    w_trace,
)
from cohpert.scenarios import two_qubit_tilt_family
from cohpert.tolerances import DEFAULT


def random_channel(rng, d_in, d_out, d_env):
    """Random channel from a Haar-ish isometry (requires d_out*d_env >= d_in)."""
    a = rng.normal(size=(d_out * d_env, d_in)) + 1j * rng.normal(size=(d_out * d_env, d_in))
    q, _ = np.linalg.qr(a)
    v = q.reshape(d_out, d_env, d_in)
    return make_channel([v[:, k, :] for k in range(d_env)])


def random_density(rng, dim, rank=None):
    """Random state of rank ``rank`` (full rank by default)."""
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.pure(v)


def random_traceless(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    return HermitianOperator.from_matrix(scale * h)


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def rotated_spectrum(rng, values):
    """``U diag(values) U^dag`` for a random unitary ``U``."""
    u = random_unitary(rng, len(values))
    return u @ np.diag(values) @ u.conj().T


@dataclass(frozen=True)
class Projector:
    """An orthogonal projector together with its rank."""

    op: HermitianOperator
    rank: int

    @property
    def matrix(self):
        return self.op.matrix


def projectors(dec):
    """Reference spectral projectors: ``P_i`` onto the span of cluster ``i``
    of a decomposition, built from that cluster's columns of ``vectors``."""
    stops = np.cumsum(dec.multiplicities)
    out = []
    for start, stop in zip(stops - dec.multiplicities, stops):
        block = dec.vectors[:, start:stop]
        out.append(HermitianOperator.from_matrix(block @ block.conj().T))
    return tuple(out)


def kernel_indices(dec, kernel_tol=DEFAULT.kernel_tol):
    """Indices of the clusters with ``|value| <= kernel_tol``."""
    return tuple(i for i, v in enumerate(dec.eigenvalues) if abs(v) <= kernel_tol)


def kernel_projector(dec, kernel_tol=DEFAULT.kernel_tol):
    """Reference kernel projector: the sum of the projectors of the kernel
    clusters, rank 0 and zero for a full-rank operator.  A cluster value
    below ``-kernel_tol`` signals a non-PSD source and raises."""
    negative = [v for v in dec.eigenvalues if v < -kernel_tol]
    if negative:
        raise PositivityError(
            f"operator has negative eigenvalue {min(negative):.3e}; kernel is undefined"
        )
    idx = kernel_indices(dec, kernel_tol)
    if not idx:
        return Projector(HermitianOperator.zero(dec.dim), 0)
    ps = projectors(dec)
    total = sum(ps[i].matrix for i in idx)
    return Projector(HermitianOperator.from_matrix(total), sum(dec.multiplicities[i] for i in idx))


def reduced_resolvent(dec, target_index, ps=None):
    """Reference reduced resolvent: ``S_i = sum_{j != i} P_j / (lambda_j - lambda_i)``.

    ``S_i`` satisfies ``S_i P_i = P_i S_i = 0`` and inverts ``H - lambda_i``
    on the orthogonal complement of cluster ``i``.  A single-cluster
    decomposition gives the zero operator (empty sum).  ``ps`` passes
    ``projectors(dec)`` when the caller has already built them.
    """
    n = len(dec)
    if not 0 <= target_index < n:
        raise IndexError(f"target_index {target_index} out of range for {n} clusters")
    target = dec.eigenvalues[target_index]
    out = np.zeros((dec.dim, dec.dim), dtype=complex)
    for j, p in enumerate(projectors(dec) if ps is None else ps):
        if j != target_index:
            out += p.matrix / (dec.eigenvalues[j] - target)
    return HermitianOperator.from_matrix(out)


def projector_w_trace(dec, b):
    """Reference ``w_trace``: ``sum_i tr(P_i B V_i B P_i)`` with
    ``V_i = P_i / lambda_i - 2 ln(lambda_i) S_i``, built from the spectral
    projectors and the reduced resolvents ``S_i``."""
    total = 0.0
    ps = projectors(dec)
    for i, (lam, p) in enumerate(zip(dec.eigenvalues, ps)):
        v = p.matrix / lam - 2.0 * np.log(lam) * reduced_resolvent(dec, i, ps).matrix
        total += np.trace(p.matrix @ b @ v @ b @ p.matrix).real
    return total


def projector_w0_trace(dec, b1, b2):
    """Reference ``w0_trace``: ``tr(P0 B2 - P0 B1 C0 B1 P0)`` with
    ``C0 = sum_{lambda_j > 0} P_j / lambda_j``."""
    p0 = kernel_projector(dec).matrix
    kernel = kernel_indices(dec)
    c0 = sum(
        (p.matrix / lam for i, (lam, p) in enumerate(zip(dec.eigenvalues, projectors(dec)))
         if i not in kernel),
        np.zeros_like(p0),
    )
    return np.trace(p0 @ b2 - p0 @ b1 @ c0 @ b1 @ p0).real


def projector_log_trace(dec, b):
    """Reference log trace ``sum_i ln(lambda_i) tr(P_i B)`` over the clusters
    outside the kernel."""
    kernel = kernel_indices(dec)
    return sum(
        np.log(lam) * np.trace(p.matrix @ b).real
        for i, (lam, p) in enumerate(zip(dec.eigenvalues, projectors(dec)))
        if i not in kernel
    )


def decimal_w_trace(dec, b, digits=40):
    """``sum_ab |B~_ab|^2 g(lambda_a, lambda_b)`` with the divided differences
    ``g`` of ``ln`` taken in ``digits``-digit decimal arithmetic.

    The projector form loses digits in proportion to ``1 / gap`` between
    close clusters; this oracle does not.
    """
    bt = dec.vectors.conj().T @ b @ dec.vectors
    weights = bt.real ** 2 + bt.imag ** 2
    with localcontext() as ctx:
        ctx.prec = digits
        lam = [Decimal(float(x)) for x in dec.column_values]
        logs = [x.ln() for x in lam]
        total = Decimal(0)
        for a, (lam_a, log_a) in enumerate(zip(lam, logs)):
            for c, (lam_c, log_c) in enumerate(zip(lam, logs)):
                g = 1 / lam_a if lam_a == lam_c else (log_a - log_c) / (lam_a - lam_c)
                total += Decimal(float(weights[a, c])) * g
        return float(total)


def shannon_bits(probs):
    """Independent scalar entropy oracle, plain Python."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def compacted_entropy_bits(eigenvalues):
    """Reference entropy of one clipped spectrum: ``-sum w log2 w`` over the
    positive eigenvalues only."""
    kept = eigenvalues[eigenvalues > 0.0]
    return float(-(kept * np.log2(kept)).sum()) if kept.size else 0.0


def plain_images(kraus, m):
    """``(N(m), N^c(m))`` from the Kraus operators alone, with
    ``N^c(m) = [tr(K_k m K_l^dag)]_kl``."""
    out = sum(k @ m @ k.conj().T for k in kraus)
    env = np.array([[np.trace(k @ m @ l.conj().T) for l in kraus] for k in kraus])
    return out, env


def matrix_to_pairs(m):
    """A matrix as the nested rows of ``[re, im]`` pairs that JSON configs use."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def plain_coherent_information(kraus, rho):
    """``S(N(rho)) - S(N^c(rho))`` in bits from the Kraus operators alone, with
    no eigenvalue cut."""
    def entropy(m):
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        w = w[w > 0.0]
        return float(-(w * np.log2(w)).sum())

    out, env = plain_images(kraus, rho)
    return entropy(out) - entropy(env)


def plain_log_trace(state, b):
    """``tr(B ln state)`` for a full-rank state, from one ``eigh``."""
    lam, vec = np.linalg.eigh(state)
    return float(np.trace(vec @ np.diag(np.log(lam)) @ vec.conj().T @ b).real)


def plain_kernel_split(state, kernel_tol=DEFAULT.kernel_tol):
    """``(P0, C0)``: the projector onto the eigenvectors with eigenvalue at
    most ``kernel_tol``, and ``sum_j P_j / lambda_j`` over the others."""
    lam, vec = np.linalg.eigh(state)
    ker = lam <= kernel_tol
    return vec[:, ker] @ vec[:, ker].conj().T, (vec[:, ~ker] / lam[~ker]) @ vec[:, ~ker].conj().T


def plain_kernel_trace(state, b1):
    """C1's trace ``tr(P0 B1)``."""
    p0, _ = plain_kernel_split(state)
    return float(np.trace(p0 @ b1).real)


def plain_w0(state, b1, b2):
    """C2's trace ``tr(P0 B2) - tr(P0 B1 C0 B1 P0)``; 0 for a full-rank state."""
    p0, c0 = plain_kernel_split(state)
    return float(np.trace(p0 @ b2 - p0 @ b1 @ c0 @ b1 @ p0).real)


def plain_first_derivative_bits(kraus, base, a1, a2, h=4e-3):
    """``f'(0)`` in bits along ``base + eps a1 + eps^2 a2``, by central
    differences of :func:`plain_coherent_information` with one Richardson step;
    the family must stay a state on ``[-h, h]``."""
    def f(eps):
        return plain_coherent_information(kraus, base + eps * a1 + eps * eps * a2)

    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def plain_second_derivative_nats(kraus, base, a1, a2, h=4e-3):
    """``f''(0)`` in nats along ``base + eps a1 + eps^2 a2``, by central
    differences of :func:`plain_coherent_information` with one Richardson step."""
    def f(eps):
        return plain_coherent_information(kraus, base + eps * a1 + eps * eps * a2) * math.log(2.0)

    def central(step):
        return (f(step) - 2.0 * f(0.0) + f(-step)) / (step * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def golden_section_max(fn, lo=0.0, hi=1.0, tol=1e-9):
    """Reference scalar maximizer: plain golden-section search on ``[lo, hi]``,
    returning ``(argmax, value)``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
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


def loop_admissible_r(sigma, fam, eps_grid, psd_tol=1e-9, r_tol=1e-6):
    """Reference r-bar: for each ``eps`` on its own, the largest ``r`` in (0, 1]
    with ``sigma - r * rho(eps)`` PSD by bisection, one eigensolver call per
    matrix; the least of these."""
    def one(state):
        def ok(r):
            m = HermitianOperator.from_matrix(sigma.matrix - r * state.matrix).matrix
            return float(np.linalg.eigvalsh(m)[0]) >= -psd_tol

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

    return min(one(state_at(fam, eps)) for eps in eps_grid)


def depolarizing_pair_w_traces(p):
    """Both w traces of the two-qubit tilt family under two depolarizing channels."""
    fam = two_qubit_tilt_family()
    joint = tensor(depolarizing_channel(p), depolarizing_channel(p))
    comp = complement(joint)
    out_dec = spectral_decompose(apply_matrix(joint, fam.base.matrix))
    env_dec = spectral_decompose(apply_matrix(comp, fam.base.matrix))
    tw_out = w_trace(out_dec, apply_matrix(joint, fam.a1.matrix))
    tw_env = w_trace(env_dec, apply_matrix(comp, fam.a1.matrix))
    return tw_out, tw_env


def stated_tilt_env_trace(p):
    """The stated environment-side trace expression (natural logs).

    It is the w trace at ``sigma = N^c(1/4)`` along the un-centred image
    ``N^c(|psi><psi|)``, not along the family's direction
    ``|psi><psi| - 1/4``; ``closed_form_w_traces`` gives the latter.
    """
    q0, q1 = 1 - 3 * p / 4, p / 4
    return (
        q0 ** 2 + 12 * q0 * q1 + 25 * q1 ** 2
        + 4 * q0 * q1 * (q0 ** 2 + 7 * q0 * q1 + 5 * q1 ** 2)
        / ((1 - p) * (q0 + q1)) * math.log(q0 / q1)
    )


def closed_form_w_traces(p):
    """Closed forms for ``depolarizing_pair_w_traces`` (natural logs).

    The output-side value is ``(1 + (1-p)^2)^2 - 1``.  The environment side
    is the stated expression minus 1: with ``B = N^c(|psi><psi|)`` and
    ``tr B = tr sigma = 1``, the derivative of ``ln`` at ``sigma`` maps
    ``sigma`` to the identity, so ``w_sigma(B - sigma) = w_sigma(B) - 2 tr B
    + tr sigma = w_sigma(B) - 1``.  Finite differences of the actual
    environment entropy confirm this value.
    """
    out = (1 + (1 - p) ** 2) ** 2 - 1
    return out, stated_tilt_env_trace(p) - 1


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
