import math

import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    DimensionError,
    Ensemble,
    HermitianOperator,
    PositivityError,
    Tolerances,
    amplitude_damping_channel,
    apply,
    coherent_information,
    complement,
    complement_line_witness,
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
from cohpert import perturbation
from cohpert.info import _entropy_bits
from cohpert.perturbation import SECTION_POINTS, FamilyEvaluator, basis_line, section_maximize, state_at
from conftest import (
    compacted_entropy_bits,
    golden_section_max,
    plain_coherent_information,
    random_channel,
    random_density,
    random_pure,
    shannon_bits,
)


def count_eigvalsh(monkeypatch):
    """Route ``np.linalg.eigvalsh`` through a counter; returns the call list."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    return calls


def test_entropy_maximally_mixed():
    assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(1.0)


def test_entropy_pure_state(rng):
    psi = random_pure(rng, 3)
    assert von_neumann_entropy(psi) == pytest.approx(0.0, abs=1e-10)


def test_entropy_clamps_round_off_negative_eigenvalue(monkeypatch):
    rho = DensityMatrix.from_matrix(np.diag([0.6 + 1e-12, 0.4, -1e-12]))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    entropy = von_neumann_entropy(rho)
    assert len(calls) == 1
    assert entropy == pytest.approx(shannon_bits([0.6 + 1e-12, 0.4]), abs=1e-15)


def test_entropy_rejects_eigenvalue_below_psd_tol():
    rho = DensityMatrix(HermitianOperator.from_matrix(np.diag([0.6 + 1e-6, 0.4, -1e-6])))
    with pytest.raises(PositivityError):
        von_neumann_entropy(rho)
    # a looser psd_tol reads the same eigenvalue as round-off and clamps it
    loose = von_neumann_entropy(rho, tol=Tolerances(psd_tol=1e-5))
    assert loose == pytest.approx(shannon_bits([0.6 + 1e-6, 0.4]), abs=1e-15)


def test_entropy_against_scalar_oracle():
    p = 0.2
    probs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    rho = DensityMatrix.from_matrix(np.diag(probs))
    assert von_neumann_entropy(rho) == pytest.approx(shannon_bits(probs), abs=1e-12)


def test_entropy_unitary_invariance(rng):
    rho = random_density(rng, 4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rotated = DensityMatrix.from_matrix(q @ rho.matrix @ q.conj().T)
    assert von_neumann_entropy(rotated) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10
    )


def test_coherent_information_vanishes_on_pure_inputs(rng):
    for ch in (depolarizing_channel(0.2), random_channel(rng, 2, 3, 2)):
        for _ in range(10):
            psi = random_pure(rng, 2)
            assert coherent_information(psi, ch) == pytest.approx(0.0, abs=1e-10)


def test_coherent_information_hashing_formula():
    p = 0.2
    probs = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    mixed = DensityMatrix.maximally_mixed(2)
    value = coherent_information(mixed, depolarizing_channel(p))
    assert value == pytest.approx(1.0 - shannon_bits(probs), abs=1e-12)


def test_coherent_information_sign_flips_near_hashing_point():
    mixed = DensityMatrix.maximally_mixed(2)
    assert coherent_information(mixed, depolarizing_channel(0.25)) > 0
    assert coherent_information(mixed, depolarizing_channel(0.26)) < 0


def test_coherent_information_additive_on_products(rng):
    a = depolarizing_channel(0.1)
    b = amplitude_damping_channel(0.3)
    joint = tensor(a, b)
    for _ in range(5):
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        product = DensityMatrix.from_matrix(np.kron(r1.matrix, r2.matrix))
        total = coherent_information(product, joint)
        parts = coherent_information(r1, a) + coherent_information(r2, b)
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
    assert private_information(ens, ch) == pytest.approx(
        coherent_information(rho, ch), abs=1e-10
    )


def test_private_information_single_member_is_zero(rng):
    ens = Ensemble.build([1.0], [random_density(rng, 2)])
    assert private_information(ens, depolarizing_channel(0.2)) == pytest.approx(0.0, abs=1e-12)


def test_private_information_equals_holevo_difference(rng):
    ch = random_channel(rng, 2, 3, 2)
    comp = complement(ch)
    for _ in range(5):
        weights = rng.dirichlet([1.0] * 3)
        states = [random_density(rng, 2) for _ in range(3)]
        ens = Ensemble.build(list(weights), states)
        gap = holevo_information(ens, ch) - holevo_information(ens, comp)
        assert private_information(ens, ch) == pytest.approx(gap, abs=1e-10)


def test_holevo_single_member_is_zero(rng):
    ens = Ensemble.build([1.0], [random_density(rng, 2)])
    assert holevo_information(ens, identity_channel(2)) == pytest.approx(0.0, abs=1e-12)


def test_holevo_classical_bit():
    ens = Ensemble.build(
        [0.5, 0.5], [DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0])]
    )
    assert holevo_information(ens, identity_channel(2)) == pytest.approx(1.0)


def test_holevo_dominates_private_information(rng):
    ch = random_channel(rng, 2, 2, 2)
    for _ in range(5):
        weights = rng.dirichlet([1.0, 1.0])
        ens = Ensemble.build(list(weights), [random_density(rng, 2) for _ in range(2)])
        chi = holevo_information(ens, ch)
        assert chi >= -1e-10
        assert chi >= private_information(ens, ch) - 1e-10


def test_section_search_finds_quadratic_peak():
    x, v = section_maximize(lambda u: -(u - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_section_search_plateau_resolves_to_smaller_parameter():
    # flat maximum on [0.2, 0.4]: ties go to the smaller parameter
    x, v = section_maximize(lambda u: np.minimum(0.1 - np.abs(u - 0.3), 0.0), 0.0, 1.0)
    assert v == 0.0
    assert x == pytest.approx(0.2, abs=1e-8)
    assert x >= 0.2 - 1e-12


def test_section_search_evaluates_one_stack_per_round():
    rounds = []

    def fn(u):
        rounds.append(len(u))
        return -(u - 0.3) ** 2

    section_maximize(fn, 0.0, 1.0)
    assert set(rounds) == {SECTION_POINTS + 2}
    # each round keeps at most 2 of its SECTION_POINTS + 1 cells
    assert len(rounds) <= 9


def _line_value(kraus, lo, hi):
    """Reference line maximum: golden section on each half of the line."""
    def value(u):
        return plain_coherent_information(kraus, (1.0 - u) * lo + u * hi)

    return max(golden_section_max(value, 0.0, 0.5), golden_section_max(value, 0.5, 1.0),
               key=lambda t: t[1])


def _basis_pair(dim, basis):
    if basis == "z":
        return np.diag(np.eye(dim)[0]).astype(complex), np.diag(np.eye(dim)[dim - 1]).astype(complex)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return np.outer(plus, plus).astype(complex), np.outer(minus, minus).astype(complex)


# (channel, name of its diagonal z-line); the name only labels the case
LINE_CASES = [
    (dephrasure_channel(0.1, 0.2), "ad_diagonal"),
    (dephrasure_channel(0.1, 0.3), "ad_diagonal"),
    (platypus_channel(0.2), "platypus_diagonal"),
    (amplitude_damping_channel(0.2), "ad_diagonal"),
    (amplitude_damping_channel(0.75), "ad_diagonal"),
    # beyond the positive-I_c boundary the search closes in on u = 0, where
    # points below ~3e-10 give both sides eigenvalues below kernel_tol, which
    # the entropy must count: cutting them reads a spurious +2.9e-9 bits
    (dephrasure_channel(0.16146341678303697, 0.32317905922203954), "ad_diagonal"),
]


@pytest.mark.parametrize("ch,line", LINE_CASES)
def test_optimal_line_search_matches_golden_section_oracle(ch, line):
    state, value = optimal_line_search(ch)
    kraus = np.array(ch.kraus)
    lo, hi = _basis_pair(ch.dim_in, "z")
    _, expected = _line_value(kraus, lo, hi)
    assert value == pytest.approx(max(expected, 0.0), abs=1e-10)
    assert coherent_information(state, ch) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("ch,line", LINE_CASES)
def test_complement_line_witness_matches_golden_section_oracle(ch, line):
    # a qubit input searches the z and x lines, a larger one the z line
    bases = ("z", "x") if ch.dim_in == 2 else ("z",)
    state, value, basis = complement_line_witness(ch)
    # complement Kraus operators from the definition: [L_m]_{k,:} = row m of K_k
    env_kraus = np.transpose(np.array(ch.kraus), (1, 0, 2))
    expected = {b: _line_value(env_kraus, *_basis_pair(ch.dim_in, b))[1] for b in bases}
    assert value == pytest.approx(max(expected.values()), abs=1e-10)
    assert expected[basis] == pytest.approx(value, abs=1e-10)
    assert coherent_information(state, complement(ch)) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("u", [1e-10, 2.87e-10])
def test_coherent_information_is_continuous_where_eigenvalues_leave_the_kernel(u):
    # near u = 0 on this z-line both sides have eigenvalues below kernel_tol;
    # cutting them reads +2.875e-9 bits at u = 2.87e-10, where the uncut
    # value is -2.158e-10
    ch = dephrasure_channel(0.16146341678303697, 0.32317905922203954)
    fam = basis_line(2, "z")
    reference = plain_coherent_information(np.array(ch.kraus), fam.matrix_at(u))
    stacked = FamilyEvaluator(ch, fam).coherent_information([u])[0]
    pointwise = coherent_information(state_at(fam, u), ch)
    assert stacked == pytest.approx(reference, abs=1e-14)
    assert pointwise == pytest.approx(reference, abs=1e-14)


def test_line_search_symmetric_dephrasure_returns_a_maximizer():
    # I_c along diag(1-u, u) is symmetric under u <-> 1-u; at q = 0.34 it has
    # two mirror maxima and neither is at u = 1/2
    ch = dephrasure_channel(0.1, 0.34)
    state, value = optimal_line_search(ch)
    kraus = np.array(ch.kraus)
    u_half, best = golden_section_max(
        lambda u: plain_coherent_information(kraus, np.diag([1.0 - u, u]).astype(complex)), 0.0, 0.5
    )
    assert best > plain_coherent_information(kraus, np.eye(2) / 2.0) + 1e-6
    assert value == pytest.approx(best, abs=1e-10)
    u = state.matrix[1, 1].real
    assert min(abs(u - u_half), abs(u - (1.0 - u_half))) < 1e-6
    mirrored = np.diag([u, 1.0 - u]).astype(complex)
    assert plain_coherent_information(kraus, mirrored) == pytest.approx(value, abs=1e-12)


def test_line_search_stays_within_three_eigensolver_calls_per_round(monkeypatch):
    rounds = []
    search = perturbation.section_maximize

    def counted(fn, *args, **kwargs):
        return search(lambda u: rounds.append(u) or fn(u), *args, **kwargs)

    monkeypatch.setattr(perturbation, "section_maximize", counted)
    calls = count_eigvalsh(monkeypatch)
    optimal_line_search(dephrasure_channel(0.1, 0.2))
    assert 0 < len(rounds) <= 9
    # the returned state's own validation is the one call outside the rounds
    assert len(calls) <= 3 * len(rounds) + 1


def test_line_searches_build_one_complement_per_line(monkeypatch):
    from cohpert import criteria

    built = []
    build = perturbation.complement

    def counted(ch):
        built.append(ch)
        return build(ch)

    monkeypatch.setattr(perturbation, "complement", counted)
    # patched in criteria too, so that a complement built there is counted
    monkeypatch.setattr(criteria, "complement", counted, raising=False)
    ch = dephrasure_channel(0.1, 0.3)
    optimal_line_search(ch)
    assert built == [ch]
    built.clear()
    complement_line_witness(ch)
    # one evaluator of ch itself, so one complement, per line
    assert built == [ch, ch]


def test_complement_line_witness_zero_value_is_positive_zero():
    # at q = 0 the complement's line maximum is the pure endpoint's exact 0,
    # which the dephrasure-gap CSV writes as "0"; a negative zero reads "-0"
    _, value, _ = complement_line_witness(dephrasure_channel(0.1, 0.0))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_line_search_amplitude_damping_at_half():
    # the channel equals its own complement, so the line is identically zero
    _, value = optimal_line_search(amplitude_damping_channel(0.5))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_line_search_amplitude_damping_antidegradable():
    _, value = optimal_line_search(amplitude_damping_channel(0.75))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_line_search_amplitude_damping_low_noise():
    state, value = optimal_line_search(amplitude_damping_channel(0.2))
    assert value > 0.3
    u = state.matrix[1, 1].real
    assert 0.0 < u < 1.0


def test_line_search_platypus():
    state, value = optimal_line_search(platypus_channel(0.2))
    assert value > 0.5
    assert state.matrix[1, 1].real == pytest.approx(0.0, abs=1e-12)


def test_coherent_information_takes_entropies_from_the_validation_spectra(monkeypatch):
    rho = DensityMatrix.from_matrix(np.diag([0.7, 0.3]))
    for ch in (depolarizing_channel(0.1), amplitude_damping_channel(0.3), dephrasure_channel(0.1, 0.2)):
        out = von_neumann_entropy(apply(ch, rho))
        env = von_neumann_entropy(apply(complement(ch), rho))
        calls = count_eigvalsh(monkeypatch)
        info = coherent_information(rho, ch)
        assert len(calls) == 2
        monkeypatch.undo()
        assert info == out - env


def test_coherent_information_keeps_both_positivity_checks():
    # images of a state with a negative eigenvalue under the identity channel:
    # the image validation and the entropy both reject below the caller's
    # psd_tol, so the image validation is the one that raises
    ch = identity_channel(2)
    far = DensityMatrix(HermitianOperator.from_matrix(np.diag([1.0 + 1e-8, -1e-8])))
    with pytest.raises(PositivityError, match="density matrix has eigenvalue"):
        coherent_information(far, ch)
    near = DensityMatrix(HermitianOperator.from_matrix(np.diag([1.0 + 1e-11, -1e-11])))
    with pytest.raises(PositivityError, match=r"^density matrix has eigenvalue .* below -1.0e-12"):
        coherent_information(near, ch, tol=Tolerances(psd_tol=1e-12))
    # the default psd_tol reads the same eigenvalue as round-off and clamps it
    assert coherent_information(near, ch) == pytest.approx(0.0, abs=1e-10)


def test_stacked_entropy_equals_each_row_alone(rng):
    for dim in (4, 7, 16, 64):
        rows = []
        for _ in range(6):
            # a clamped eigenvalue and two of order kernel_tol below the rest
            small = np.array([-1e-12, 5e-11, 1e-10])
            w = np.sort(rng.dirichlet(np.ones(dim - 3))) * (1.0 - small.sum())
            rows.append(np.concatenate((small, w)))
        spectra = np.clip(np.array(rows), 0.0, None)
        stacked = _entropy_bits(spectra)
        for w, value in zip(spectra, stacked):
            assert value == _entropy_bits(w)
            reference = compacted_entropy_bits(w)
            if dim < 8:
                # numpy sums fewer than eight terms in order, so the masked
                # zeros leave the compacted sum's rounding unchanged
                assert value == reference
            else:
                assert value == pytest.approx(reference, rel=4 * dim * np.finfo(float).eps)


def test_entropy_flags_near_kernel_eigenvalue():
    # an eigenvalue below kernel_tol still counts: 0 log 0 = 0 is the limit,
    # so the entropy is continuous where eigenvalues leave the kernel
    rho = DensityMatrix.from_matrix(np.diag([1.0 - 5e-11, 5e-11]))
    info = von_neumann_entropy(rho)
    assert info == pytest.approx(shannon_bits([1.0 - 5e-11, 5e-11]), rel=1e-12)
    assert info > 1.7e-9
