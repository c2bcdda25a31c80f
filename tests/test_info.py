import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianOperator,
    PositivityError,
    amplitude_damping_channel,
    coherent_information,
    complement,
    depolarizing_channel,
    dephrasure_channel,
    holevo_information,
    identity_channel,
    optimal_line_search,
    platypus_channel,
    private_information,
    tensor,
    von_neumann_entropy,
)
from cohpert.info import FLAG_CLAMPED, FLAG_LINE_MAX_NONPOSITIVE, golden_section_maximize
from conftest import random_channel, random_density, random_pure, shannon_bits


def test_entropy_maximally_mixed():
    assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)).value == pytest.approx(1.0)


def test_entropy_pure_state(rng):
    psi = random_pure(rng, 3)
    assert von_neumann_entropy(psi).value == pytest.approx(0.0, abs=1e-10)


def test_entropy_clamps_round_off_negative_eigenvalue(monkeypatch):
    rho = DensityMatrix.from_matrix(np.diag([0.6 + 1e-12, 0.4, -1e-12]))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    entropy = von_neumann_entropy(rho)
    assert len(calls) == 1
    assert FLAG_CLAMPED in entropy.flags
    assert entropy.value == pytest.approx(shannon_bits([0.6 + 1e-12, 0.4]), abs=1e-15)
    assert FLAG_CLAMPED not in von_neumann_entropy(DensityMatrix.from_matrix(np.diag([0.6, 0.4]))).flags


def test_entropy_rejects_eigenvalue_below_psd_tol():
    rho = DensityMatrix(HermitianOperator.from_matrix(np.diag([0.6 + 1e-6, 0.4, -1e-6])))
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho)
    assert FLAG_CLAMPED in von_neumann_entropy(rho, psd_tol=1e-5).flags


def test_entropy_against_scalar_oracle():
    p = 0.2
    probs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    rho = DensityMatrix.from_matrix(np.diag(probs))
    assert von_neumann_entropy(rho).value == pytest.approx(shannon_bits(probs), abs=1e-12)


def test_entropy_unitary_invariance(rng):
    rho = random_density(rng, 4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = DensityMatrix.from_matrix(q @ rho.matrix @ q.conj().T)
    assert von_neumann_entropy(rotated).value == pytest.approx(
        von_neumann_entropy(rho).value, abs=1e-10
    )


def test_coherent_information_vanishes_on_pure_inputs(rng):
    for ch in (depolarizing_channel(0.2), random_channel(rng, 2, 3, 2)):
        for _ in range(10):
            psi = random_pure(rng, 2)
            assert coherent_information(psi, ch).value == pytest.approx(0.0, abs=1e-10)


def test_coherent_information_hashing_formula():
    p = 0.2
    probs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    mixed = DensityMatrix.maximally_mixed(2)
    value = coherent_information(mixed, depolarizing_channel(p)).value
    assert value == pytest.approx(1.0 - shannon_bits(probs), abs=1e-12)


def test_coherent_information_sign_flips_near_hashing_point():
    mixed = DensityMatrix.maximally_mixed(2)
    assert coherent_information(mixed, depolarizing_channel(0.25)).value > 0
    assert coherent_information(mixed, depolarizing_channel(0.26)).value < 0


def test_coherent_information_additive_on_products(rng):
    a = depolarizing_channel(0.1)
    b = amplitude_damping_channel(0.3)
    joint = tensor(a, b)
    for _ in range(5):
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        product = DensityMatrix.from_matrix(np.kron(r1.matrix, r2.matrix))
        total = coherent_information(product, joint).value
        parts = coherent_information(r1, a).value + coherent_information(r2, b).value
        assert total == pytest.approx(parts, abs=1e-10)


def test_ensemble_validation(rng):
    states = [random_density(rng, 2), random_density(rng, 2)]
    Ensemble.build([0.5, 0.5], states)
    with pytest.raises(ValueError):
        Ensemble.build([0.6, 0.5], states)
    with pytest.raises(ValueError):
        Ensemble.build([], [])
    with pytest.raises(DimensionError):
        Ensemble.build([0.5, 0.5], [random_density(rng, 2), random_density(rng, 3)])


def test_private_information_of_pure_decomposition_matches_mixture(rng):
    ch = depolarizing_channel(0.15)
    rho = random_density(rng, 2)
    w, v = np.linalg.eigh(rho.matrix)
    ens = Ensemble.build(list(w / w.sum()), [DensityMatrix.pure(v[:, i]) for i in range(2)])
    assert private_information(ens, ch).value == pytest.approx(
        coherent_information(rho, ch).value, abs=1e-10
    )


def test_private_information_single_member_is_zero(rng):
    ens = Ensemble.build([1.0], [random_density(rng, 2)])
    assert private_information(ens, depolarizing_channel(0.2)).value == pytest.approx(0.0, abs=1e-12)


def test_private_information_equals_holevo_difference(rng):
    ch = random_channel(rng, 2, 3, 2)
    comp = complement(ch)
    for _ in range(5):
        weights = rng.dirichlet([1.0] * 3)
        states = [random_density(rng, 2) for _ in range(3)]
        ens = Ensemble.build(list(weights), states)
        gap = holevo_information(ens, ch).value - holevo_information(ens, comp).value
        assert private_information(ens, ch).value == pytest.approx(gap, abs=1e-10)


def test_holevo_single_member_is_zero(rng):
    ens = Ensemble.build([1.0], [random_density(rng, 2)])
    assert holevo_information(ens, identity_channel(2)).value == pytest.approx(0.0, abs=1e-12)


def test_holevo_classical_bit():
    ens = Ensemble.build(
        [0.5, 0.5], [DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0])]
    )
    assert holevo_information(ens, identity_channel(2)).value == pytest.approx(1.0)


def test_holevo_dominates_private_information(rng):
    ch = random_channel(rng, 2, 2, 2)
    for _ in range(5):
        weights = rng.dirichlet([1.0, 1.0])
        ens = Ensemble.build(list(weights), [random_density(rng, 2) for _ in range(2)])
        chi = holevo_information(ens, ch).value
        assert chi >= -1e-10
        assert chi >= private_information(ens, ch).value - 1e-10


def test_golden_section_finds_quadratic_peak():
    x, v = golden_section_maximize(lambda u: -(u - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_line_search_amplitude_damping_at_half():
    # the channel equals its own complement, so the line is identically zero
    _, value = optimal_line_search(amplitude_damping_channel(0.5), "ad_diagonal")
    assert value.value == pytest.approx(0.0, abs=1e-9)


def test_line_search_amplitude_damping_antidegradable():
    _, value = optimal_line_search(amplitude_damping_channel(0.75), "ad_diagonal")
    assert value.value == pytest.approx(0.0, abs=1e-9)
    assert FLAG_LINE_MAX_NONPOSITIVE in value.flags


def test_line_search_amplitude_damping_low_noise():
    state, value = optimal_line_search(amplitude_damping_channel(0.2), "ad_diagonal")
    assert value.value > 0.3
    u = state.matrix[1, 1].real
    assert 0.0 < u < 1.0


def test_line_search_maximally_mixed():
    p = 0.2
    probs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    state, value = optimal_line_search(depolarizing_channel(p), "fixed_maximally_mixed")
    assert np.allclose(state.matrix, np.eye(2) / 2)
    assert value.value == pytest.approx(1.0 - shannon_bits(probs), abs=1e-12)


def test_line_search_platypus():
    state, value = optimal_line_search(platypus_channel(0.2), "platypus_diagonal")
    assert value.value > 0.5
    assert state.matrix[1, 1].real == pytest.approx(0.0, abs=1e-12)


def test_line_search_family_mismatch():
    with pytest.raises(DimensionError):
        optimal_line_search(platypus_channel(0.2), "ad_diagonal")
    with pytest.raises(DimensionError):
        optimal_line_search(dephrasure_channel(0.1, 0.2), "platypus_diagonal")
    with pytest.raises(ValueError):
        optimal_line_search(identity_channel(2), "bloch_sphere")


def test_entropy_flags_near_kernel_eigenvalue():
    rho = DensityMatrix.from_matrix(np.diag([1.0 - 5e-11, 5e-11]))
    info = von_neumann_entropy(rho)
    assert "near_kernel_eigenvalue" in info.flags
    assert info.value == pytest.approx(0.0, abs=1e-9)
