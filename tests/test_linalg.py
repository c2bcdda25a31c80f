import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    HermitianOperator,
    HermiticityError,
    PositivityError,
    spectral_decompose,
)
from conftest import (
    kernel_projector,
    projectors,
    random_traceless,
    reduced_resolvent,
    rotated_spectrum,
)


def test_hermitian_symmetrizes_small_residual():
    m = np.array([[1.0, 0.1 + 1e-13j], [0.1, 2.0]])
    op = HermitianOperator.from_matrix(m)
    assert np.allclose(op.matrix, op.matrix.conj().T)


def test_hermitian_rejects_large_residual():
    with pytest.raises(HermiticityError):
        HermitianOperator.from_matrix([[0.0, 1.0], [0.0, 0.0]])


def test_density_matrix_validation():
    DensityMatrix.from_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.eye(2))
    with pytest.raises(PositivityError):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]))


def test_spectral_identity_single_cluster():
    dec = spectral_decompose(np.eye(2), cluster_tol=1e-9)
    assert dec.eigenvalues == (1.0,)
    assert dec.multiplicities == (2,)
    assert np.allclose(projectors(dec)[0].matrix, np.eye(2))


def test_spectral_clusters_depolarized_spectrum():
    dec = spectral_decompose(np.diag([0.85, 0.05, 0.05, 0.05]), cluster_tol=1e-9)
    assert dec.eigenvalues == pytest.approx((0.85, 0.05), abs=1e-14)
    assert dec.multiplicities == (1, 3)


def test_spectral_merges_near_degenerate_pair():
    dec = spectral_decompose(np.diag([0.5 + 1e-12, 0.5 - 1e-12]), cluster_tol=1e-9)
    assert len(dec) == 1
    assert dec.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)
    assert dec.multiplicities == (2,)


def test_spectral_chain_merging_is_transitive():
    # pairwise gaps of 0.8e-9 chain together even though the ends differ by more
    values = [0.1, 0.1 + 0.8e-9, 0.1 + 1.6e-9, 0.7]
    dec = spectral_decompose(np.diag(values), cluster_tol=1e-9)
    assert dec.multiplicities == (1, 3)


def test_spectral_invariants_random(rng):
    for _ in range(10):
        h = random_traceless(rng, 5).matrix + np.eye(5)
        dec = spectral_decompose(h)
        ps = projectors(dec)
        total = sum(p.matrix for p in ps)
        assert np.linalg.norm(total - np.eye(5)) < 1e-9
        for i, p in enumerate(ps):
            for j, q in enumerate(ps):
                expect = p.matrix if i == j else np.zeros((5, 5))
                assert np.linalg.norm(p.matrix @ q.matrix - expect) < 1e-9
        assert np.linalg.norm(dec.reconstruct() - h) < 1e-9 * max(1.0, np.linalg.norm(h))


def test_spectral_permutation_invariance(rng):
    h = random_traceless(rng, 4).matrix
    perm = np.eye(4)[rng.permutation(4)]
    dec = spectral_decompose(h)
    dec_p = spectral_decompose(perm @ h @ perm.T)
    assert np.allclose(dec.eigenvalues, dec_p.eigenvalues, atol=1e-9)
    for p, q in zip(projectors(dec), projectors(dec_p)):
        assert np.linalg.norm(perm @ p.matrix @ perm.T - q.matrix) < 1e-9


def test_kernel_projector_full_rank_is_zero():
    dec = spectral_decompose(np.eye(2) / 2)
    proj = kernel_projector(dec)
    assert proj.rank == 0
    assert np.allclose(proj.matrix, 0.0)


def test_kernel_projector_pure_state():
    dec = spectral_decompose(np.diag([1.0, 0.0]))
    proj = kernel_projector(dec)
    assert proj.rank == 1
    assert np.allclose(proj.matrix, np.diag([0.0, 1.0]))


def test_kernel_projector_rejects_negative():
    dec = spectral_decompose(np.diag([1.1, -0.1]))
    with pytest.raises(PositivityError):
        kernel_projector(dec)


def test_reduced_resolvent_single_cluster_is_zero():
    dec = spectral_decompose(np.eye(3))
    assert np.allclose(reduced_resolvent(dec, 0).matrix, 0.0)


def test_reduced_resolvent_two_level():
    dec = spectral_decompose(np.diag([0.0, 1.0]))
    # eigenvalues descend, so the zero cluster is index 1
    res = reduced_resolvent(dec, 1)
    assert np.allclose(res.matrix, np.diag([0.0, 1.0]))


def test_reduced_resolvent_depolarized_spectrum():
    dec = spectral_decompose(np.diag([0.85, 0.05, 0.05, 0.05]))
    res = reduced_resolvent(dec, 0)
    expected = np.diag([0.0, 1.0, 1.0, 1.0]) / (0.05 - 0.85)
    assert np.allclose(res.matrix, expected, atol=1e-12)


def test_reduced_resolvent_identities(rng):
    h = random_traceless(rng, 4).matrix
    dec = spectral_decompose(h)
    for i in range(len(dec)):
        res = reduced_resolvent(dec, i).matrix
        p_i = projectors(dec)[i].matrix
        assert np.linalg.norm(res @ p_i) < 1e-9
        assert np.linalg.norm(p_i @ res) < 1e-9
        lhs = (h - dec.eigenvalues[i] * np.eye(4)) @ res
        assert np.linalg.norm(lhs - (np.eye(4) - p_i)) < 1e-9


def test_reduced_resolvent_bad_index():
    dec = spectral_decompose(np.eye(2))
    with pytest.raises(IndexError):
        reduced_resolvent(dec, 3)


def test_kernel_projector_platypus_damping_complement():
    from cohpert import apply_matrix, complement, tensor
    from cohpert import amplitude_damping_channel, platypus_channel
    from cohpert.scenarios import platypus_ad_family

    joint = tensor(platypus_channel(0.2), amplitude_damping_channel(0.5))
    fam = platypus_ad_family(0.3)
    env_dec = spectral_decompose(apply_matrix(complement(joint), fam.base.matrix))
    assert kernel_projector(env_dec).rank == 2
    out_dec = spectral_decompose(apply_matrix(joint, fam.base.matrix))
    assert kernel_projector(out_dec).rank == 3


def test_decomposition_vectors_reconstruct_and_give_projectors_of_raw_eigenvectors(rng):
    for values in ([0.4, 0.4, 0.1, 0.1], [0.3, 0.2, 0.2, 0.2, 0.1, 0.0, 0.0], list(range(1, 17))):
        h = rotated_spectrum(rng, np.array(values, dtype=float))
        d = h.shape[0]
        dec = spectral_decompose(h)
        v = dec.vectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-12
        assert np.linalg.norm((v * dec.column_values) @ v.conj().T - h) < 1e-12 * max(
            1.0, np.linalg.norm(h)
        )
        assert np.allclose(dec.reconstruct(), h, atol=1e-12 * max(1.0, np.linalg.norm(h)))
        # each projector is the sum over the cluster's raw eigenvectors, as the
        # decomposition built it before it kept the eigenvectors
        _, raw = np.linalg.eigh(h)
        stop = d
        for mult, proj in zip(dec.multiplicities, projectors(dec)):
            block = raw[:, stop - mult:stop]
            stop -= mult
            expected = block @ block.conj().T
            assert np.allclose(proj.matrix, (expected + expected.conj().T) / 2.0, atol=1e-14)
