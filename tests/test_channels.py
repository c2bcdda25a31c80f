import numpy as np
import pytest

from cohpert import (
    CPTPError,
    ChannelSpec,
    QuantumChannel,
    DensityMatrix,
    DimensionError,
    amplitude_damping_channel,
    apply,
    apply_matrix,
    builtin,
    channel_from_json,
    complement,
    depolarizing_channel,
    dephrasure_channel,
    erasure_channel,
    identity_channel,
    make_channel,
    pauli_channel,
    platypus_channel,
    tensor,
    tensor_all,
)
from cohpert.channels import DEFAULT_DIM_CAP, matrix_from_pairs
from conftest import matrix_to_pairs, random_channel, random_density, random_pure


def kraus_oracle(kraus, rho):
    out = np.zeros((kraus[0].shape[0],) * 2, dtype=complex)
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def nonzero_spectrum(m, tol=1e-12):
    w = np.linalg.eigvalsh(m)
    return np.sort(w[np.abs(w) > tol])[::-1]


def test_make_channel_identity():
    ch = identity_channel(2)
    assert (ch.dim_in, ch.dim_out, ch.dim_env) == (2, 2, 1)
    assert ch.cptp_residual() < 1e-12


def test_make_channel_rejects_non_cptp():
    with pytest.raises(CPTPError):
        make_channel([np.diag([1.0, 0.5])])


def test_make_channel_rejects_mixed_shapes():
    with pytest.raises(DimensionError):
        make_channel([np.eye(2), np.zeros((3, 2))])


def test_depolarizing_matches_convex_form(rng):
    p = 0.2
    ch = depolarizing_channel(p)
    for _ in range(5):
        rho = random_density(rng, 2)
        expected = (1 - p) * rho.matrix + p * np.eye(2) / 2
        assert np.linalg.norm(apply(ch, rho).matrix - expected) < 1e-12


def test_depolarizing_unital_and_basis_action():
    ch = depolarizing_channel(0.3)
    mixed = DensityMatrix.maximally_mixed(2)
    assert np.allclose(apply(ch, mixed).matrix, np.eye(2) / 2)
    zero = DensityMatrix.pure([1.0, 0.0])
    assert np.allclose(apply(ch, zero).matrix, np.diag([1 - 0.15, 0.15]))


def test_depolarizing_p_zero_is_identity(rng):
    ch = depolarizing_channel(0.0)
    rho = random_density(rng, 2)
    assert np.linalg.norm(apply(ch, rho).matrix - rho.matrix) < 1e-12


def test_amplitude_damping_action():
    ch = amplitude_damping_channel(0.25)
    one = DensityMatrix.pure([0.0, 1.0])
    assert np.allclose(apply(ch, one).matrix, np.diag([0.25, 0.75]))


def test_amplitude_damping_complement_is_damping_with_flipped_parameter(rng):
    gamma = 0.3
    comp = complement(amplitude_damping_channel(gamma))
    flipped = amplitude_damping_channel(1.0 - gamma)
    assert comp.spec is not None and comp.spec.params["gamma"] == pytest.approx(0.7)
    for _ in range(5):
        rho = random_density(rng, 2)
        assert np.linalg.norm(apply(comp, rho).matrix - apply(flipped, rho).matrix) < 1e-12


def test_complement_of_identity_is_trace():
    comp = complement(identity_channel(2))
    assert comp.dim_out == 1
    rho = DensityMatrix.maximally_mixed(2)
    assert apply(comp, rho).matrix == pytest.approx(np.array([[1.0]]))


def test_complement_of_depolarizing_on_mixed_state():
    p = 0.2
    comp = complement(depolarizing_channel(p))
    out = apply(comp, DensityMatrix.maximally_mixed(2)).matrix
    assert np.allclose(out, np.diag([1 - 3 * p / 4, p / 4, p / 4, p / 4]), atol=1e-12)


def test_complement_gram_matrix_definition(rng):
    ch = random_channel(rng, 3, 2, 3)
    rho = random_density(rng, 3)
    gram = np.array(
        [
            [np.trace(k @ rho.matrix @ l.conj().T) for l in ch.kraus]
            for k in ch.kraus
        ]
    )
    assert np.linalg.norm(apply(complement(ch), rho).matrix - gram) < 1e-12


def test_complement_involution_spectra_on_pure_inputs(rng):
    ch = random_channel(rng, 3, 3, 2)
    comp = complement(ch)
    for _ in range(5):
        psi = random_pure(rng, 3)
        s_out = nonzero_spectrum(apply(ch, psi).matrix, tol=1e-10)
        s_env = nonzero_spectrum(apply(comp, psi).matrix, tol=1e-10)
        n = min(len(s_out), len(s_env))
        assert np.allclose(s_out[:n], s_env[:n], atol=1e-9)


def test_kraus_padding_and_recombination_invariance(rng):
    ch = random_channel(rng, 2, 3, 2)
    rho = random_density(rng, 2)
    padded = make_channel(list(ch.kraus) + [np.zeros((3, 2))] * 2)
    q, _ = np.linalg.qr(rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4)))
    mixed = make_channel(
        [sum(q[m, k] * ch.kraus[k] for k in range(2)) for m in range(5)]
    )
    for other in (padded, mixed):
        assert np.linalg.norm(apply(ch, rho).matrix - apply(other, rho).matrix) < 1e-12
        s0 = nonzero_spectrum(apply(complement(ch), rho).matrix, tol=1e-10)
        s1 = nonzero_spectrum(apply(complement(other), rho).matrix, tol=1e-10)
        assert np.allclose(s0, s1[: len(s0)], atol=1e-10)


def test_tensor_of_identities():
    joint = tensor(identity_channel(2), identity_channel(2))
    assert (joint.dim_in, joint.dim_out, joint.dim_env) == (4, 4, 1)


def test_tensor_unitality():
    ch = depolarizing_channel(0.37)
    joint = tensor(ch, ch)
    mixed = DensityMatrix.maximally_mixed(4)
    assert np.allclose(apply(joint, mixed).matrix, np.eye(4) / 4)


def test_tensor_factorizes_on_products(rng):
    a = depolarizing_channel(0.15)
    b = amplitude_damping_channel(0.4)
    joint = tensor(a, b)
    for _ in range(5):
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        product = DensityMatrix.from_matrix(np.kron(r1.matrix, r2.matrix))
        expected = np.kron(apply(a, r1).matrix, apply(b, r2).matrix)
        assert np.linalg.norm(apply(joint, product).matrix - expected) < 1e-12


def test_complement_commutes_with_tensor(rng):
    a = random_channel(rng, 2, 2, 2)
    b = random_channel(rng, 2, 3, 2)
    joint = tensor(a, b)
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    product = DensityMatrix.from_matrix(np.kron(r1.matrix, r2.matrix))
    lhs = apply(complement(joint), product).matrix
    rhs = np.kron(apply(complement(a), r1).matrix, apply(complement(b), r2).matrix)
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_tensor_associativity_spectra(rng):
    chans = [random_channel(rng, 2, 2, 2) for _ in range(3)]
    rho = random_density(rng, 8)
    left = tensor(tensor(chans[0], chans[1]), chans[2])
    right = tensor(chans[0], tensor(chans[1], chans[2]))
    s_left = np.linalg.eigvalsh(apply(left, rho).matrix)
    s_right = np.linalg.eigvalsh(apply(right, rho).matrix)
    assert np.allclose(s_left, s_right, atol=1e-9)


def test_tensor_dimension_cap():
    ch = identity_channel(20)
    with pytest.raises(DimensionError):
        tensor(ch, ch)


def test_platypus_relay_level():
    ch = platypus_channel(0.2)
    one = DensityMatrix.pure([0.0, 1.0, 0.0])
    out = apply(ch, one).matrix
    assert np.allclose(out, np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_platypus_coherent_branch():
    s = 0.3
    ch = platypus_channel(s)
    zero = DensityMatrix.pure([1.0, 0.0, 0.0])
    assert np.allclose(apply(ch, zero).matrix, np.diag([s, 1 - s, 0.0]), atol=1e-12)


def test_dephrasure_erasure_weight(rng):
    p, q = 0.15, 0.35
    ch = dephrasure_channel(p, q)
    for _ in range(5):
        rho = random_density(rng, 2)
        out = apply(ch, rho).matrix
        assert out[2, 2].real == pytest.approx(q, abs=1e-12)


def test_erasure_channel_action(rng):
    q = 0.4
    ch = erasure_channel(q, dim=2)
    rho = random_density(rng, 2)
    out = apply(ch, rho).matrix
    assert np.allclose(out[:2, :2], (1 - q) * rho.matrix, atol=1e-12)
    assert out[2, 2].real == pytest.approx(q)


def test_pauli_channel_validation():
    pauli_channel([0.7, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        pauli_channel([0.7, 0.2, 0.1, 0.1])
    with pytest.raises(ValueError):
        pauli_channel([1.1, -0.1, 0.0, 0.0])


def test_parameter_ranges_rejected():
    with pytest.raises(ValueError):
        depolarizing_channel(1.2)
    with pytest.raises(ValueError):
        platypus_channel(0.6)
    with pytest.raises(ValueError):
        amplitude_damping_channel(-0.1)


@pytest.mark.parametrize(
    "params",
    [
        {"family": "identity", "params": {"dim": 2.5}},
        {"family": "erasure", "params": {"q": 0.1, "dim": True}},
        {"family": "identity", "params": {"dim": 0}},
        {"family": "erasure", "params": {"q": 0.1, "dim": -2}},
        {"family": "identity", "params": {"dim": "3"}},
        {"family": "identity", "params": {"dim": float("inf")}},
    ],
)
def test_builtin_rejects_dim_that_is_not_a_positive_integer(params):
    with pytest.raises(ValueError, match="^parameter dim must be an integer of at least 1, got "):
        channel_from_json(params)


def test_builtin_keeps_whole_number_dim():
    identity = channel_from_json({"family": "identity", "params": {"dim": 3.0}})
    assert (identity.dim_in, identity.dim_out) == (3, 3)
    assert identity.spec.params["dim"] == 3 and type(identity.spec.params["dim"]) is int
    erasure = channel_from_json({"family": "erasure", "params": {"q": 0.1, "dim": 3}})
    assert (erasure.dim_in, erasure.dim_out) == (3, 4)
    assert erasure_channel(0.1, np.int64(2)).dim_out == 3


def test_channel_spec_json_round_trip():
    spec = ChannelSpec(
        "tensor",
        {},
        (ChannelSpec("depolarizing", {"p": 0.2}), ChannelSpec("amplitude_damping", {"gamma": 0.5})),
    )
    rebuilt = ChannelSpec.from_json(spec.to_json())
    assert rebuilt == spec
    joint = builtin(rebuilt)
    assert (joint.dim_in, joint.dim_out, joint.dim_env) == (4, 4, 8)


def test_channel_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        ChannelSpec.from_json({"family": "teleporter", "params": {}})


def test_custom_kraus_from_json_pairs():
    pairs = [matrix_to_pairs(np.eye(2))]
    ch = channel_from_json({"family": "custom_kraus", "params": {"kraus": pairs}})
    assert ch.dim_env == 1
    with pytest.raises(ValueError):
        matrix_from_pairs([[1.0, 0.0], [0.0, 1.0]])


def test_kraus_is_one_read_only_copy_of_the_input():
    kraus = np.array([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.diag([1.0, -1.0])], dtype=complex)
    for given in (kraus, list(kraus)):
        ch = make_channel(given)
        assert ch.kraus.shape == (ch.dim_env, ch.dim_out, ch.dim_in) == (2, 2, 2)
        assert ch.kraus.dtype == complex
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 5.0
        kraus[0, 0, 0] = 5.0
        assert ch.kraus[0, 0, 0] == np.sqrt(0.5)
        kraus[0, 0, 0] = np.sqrt(0.5)


@pytest.mark.parametrize(
    "kraus, error",
    [
        ([], ValueError),
        (np.zeros((0, 2, 2)), ValueError),
        ([np.ones(2)], DimensionError),
        (np.array([np.diag([1.0, 0.5])]), CPTPError),
    ],
)
def test_make_channel_errors_for_lists_and_arrays(kraus, error):
    with pytest.raises(error):
        make_channel(kraus)


def test_tensor_and_complement_check_trace_preservation():
    leaky = np.array([np.diag([1.0, 0.5])], dtype=complex)
    unchecked = QuantumChannel(kraus=leaky, dim_in=2, dim_out=2, dim_env=1)
    with pytest.raises(CPTPError):
        tensor(unchecked, identity_channel(2))
    with pytest.raises(CPTPError):
        complement(unchecked)


def test_tensor_equals_kron_of_each_kraus_pair_exactly():
    chans = [depolarizing_channel(0.2), dephrasure_channel(0.1, 0.3), platypus_channel(0.4)]
    joint = tensor_all(chans)
    kron = [np.kron(np.kron(a, b), c) for a in chans[0].kraus for b in chans[1].kraus for c in chans[2].kraus]
    assert (joint.dim_env, joint.dim_out, joint.dim_in) == (32, 18, 12)
    assert np.array_equal(joint.kraus, np.array(kron))


def test_complement_equals_row_copy_construction_exactly(rng):
    for ch in (random_channel(rng, 3, 2, 4), tensor(dephrasure_channel(0.1, 0.3), platypus_channel(0.4))):
        rows = []
        for m in range(ch.dim_out):
            L = np.zeros((ch.dim_env, ch.dim_in), dtype=complex)
            for k, K in enumerate(ch.kraus):
                L[k, :] = K[m, :]
            rows.append(L)
        assert np.array_equal(complement(ch).kraus, np.array(rows))


@pytest.mark.parametrize("d_out", [4, 16, 64])
def test_apply_matrix_matches_kraus_loop(d_out):
    rng = np.random.default_rng(d_out)
    d = int(round(d_out**0.5))
    ch = random_channel(rng, d, d_out, d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    want = kraus_oracle(ch.kraus, m)
    assert np.linalg.norm(apply_matrix(ch, m) - want) <= 1e-14 * np.linalg.norm(want)


def test_dim_is_capped_before_anything_is_built():
    assert identity_channel(DEFAULT_DIM_CAP).dim_out == DEFAULT_DIM_CAP
    with pytest.raises(ValueError, match="^parameter dim must be at most 256, got 257$"):
        identity_channel(DEFAULT_DIM_CAP + 1)
    # the erasure flag adds one output level
    with pytest.raises(ValueError, match="^parameter dim must be at most 255, got 256$"):
        erasure_channel(0.1, DEFAULT_DIM_CAP)


def test_apply_dimension_mismatch():
    ch = identity_channel(2)
    with pytest.raises(DimensionError):
        apply_matrix(ch, np.eye(3))
