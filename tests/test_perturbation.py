import math

import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    HermitianOperator,
    PerturbationFamily,
    PositivityError,
    RankCaseError,
    Tolerances,
    admissible_radius,
    amplitude_damping_channel,
    apply_matrix,
    check_criterion,
    complement,
    depolarizing_channel,
    derivative_profile,
    identity_channel,
    line_between,
    platypus_channel,
    coherent_information,
    spectral_decompose,
    state_at,
    tensor,
    tensor_all,
    w0_trace,
    w_trace,
)
from cohpert.perturbation import (
    LN2,
    NEGATIVE_INFINITY,
    RANK_BOTH_DEFICIENT,
    RANK_ONE_DEFICIENT,
    STACK_ENTRIES,
    FamilyEvaluator,
    _support_log_trace,
    log_weighted_trace,
)
from cohpert.scenarios import platypus_ad_family, qubit_flip_family, two_qubit_tilt_family
from cohpert.tolerances import DEFAULT
from conftest import (
    closed_form_w_traces,
    decimal_w_trace,
    depolarizing_pair_w_traces,
    kernel_indices,
    plain_first_derivative_bits,
    plain_second_derivative_nats,
    projector_log_trace,
    projector_w0_trace,
    projector_w_trace,
    projectors,
    random_channel,
    random_density,
    random_traceless,
    reduced_resolvent,
    rotated_spectrum,
)


def plain_family(fam):
    """``(base, A1, A2)`` of a family as plain matrices."""
    return fam.base.matrix, fam.a1.matrix, fam.a2.matrix


def plain_derivatives_bits(ch, fam):
    """``(f'(0), f''(0))`` in bits by central differences of the plain-numpy
    coherent information, a route that does not go through FamilyEvaluator."""
    args = (ch.kraus, *plain_family(fam))
    return plain_first_derivative_bits(*args), plain_second_derivative_nats(*args) / LN2


def test_family_requires_traceless_directions():
    base = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError):
        PerturbationFamily.build(base, HermitianOperator.from_matrix(np.diag([1.0, 0.0])))


def test_family_dimension_mismatch():
    base = DensityMatrix.maximally_mixed(2)
    with pytest.raises(ValueError):
        PerturbationFamily.build(base, HermitianOperator.zero(3))


def test_family_max_order_one_rejects_second_direction():
    base = DensityMatrix.maximally_mixed(2)
    a = HermitianOperator.from_matrix(np.diag([0.1, -0.1]))
    with pytest.raises(ValueError):
        PerturbationFamily.build(base, a, a, max_order=1)


def test_admissible_radius_zero_directions():
    fam = PerturbationFamily.build(DensityMatrix.maximally_mixed(2), HermitianOperator.zero(2))
    assert admissible_radius(fam) == 1.0


def test_admissible_radius_qubit_flip_family():
    # rho(eps) = diag(1 - eps, eps) stays a state on all of [0, 1]
    assert admissible_radius(qubit_flip_family()) == 1.0


def test_admissible_radius_two_qubit_tilt():
    assert admissible_radius(two_qubit_tilt_family()) == 1.0


def test_admissible_radius_platypus_family():
    a = 0.99
    fam = platypus_ad_family(0.3, a)
    assert admissible_radius(fam) == pytest.approx(math.sqrt(1 - a * a), abs=1e-4)


def test_admissible_radius_zero_when_direction_breaks_immediately():
    # rho(eps) = diag(1 + 2 eps, -2 eps) keeps its eigenvalues at or above
    # -psd_tol exactly up to eps = psd_tol / 2
    base = DensityMatrix.pure([1.0, 0.0])
    a1 = HermitianOperator.from_matrix(np.diag([2.0, -2.0]))
    fam = PerturbationFamily.build(base, a1)
    assert admissible_radius(fam) == pytest.approx(DEFAULT.psd_tol / 2, rel=1e-12)
    # a base eigenvalue already at -psd_tol leaves no room at all
    edge = DensityMatrix.from_matrix(np.diag([1.0 + DEFAULT.psd_tol, -DEFAULT.psd_tol]))
    assert admissible_radius(PerturbationFamily.build(edge, a1)) == 0.0


def test_admissible_radius_stops_at_a_narrow_hole():
    # rho(eps) = diag(c (eps - r1)(eps - r2), 1 - c (eps - r1)(eps - r2)) dips
    # to -1.9e-6 on (r1, r2), a hole narrower than a 64-point scan's spacing
    r1, r2 = 0.5068, 0.5088
    c = 1.0 / (2.0 * r1 * r2)
    a1 = HermitianOperator.from_matrix(np.diag([-c * (r1 + r2), c * (r1 + r2)]))
    a2 = HermitianOperator.from_matrix(np.diag([c, -c]))
    fam = PerturbationFamily.build(DensityMatrix.maximally_mixed(2), a1, a2)
    # the first root of c (eps - r1)(eps - r2) = -psd_tol
    exact = 0.5 * (r1 + r2 - math.sqrt((r2 - r1) ** 2 - 4.0 * DEFAULT.psd_tol / c))
    radius = admissible_radius(fam)
    assert radius == pytest.approx(exact, rel=1e-12)
    state_at(fam, 0.999 * radius)
    with pytest.raises(PositivityError):
        state_at(fam, 0.5 * (r1 + r2))


def test_admissible_radius_matches_a_dense_scan_on_random_families():
    # 256 seeded families, d = 2..5, every base rank (pure ones included),
    # half with A2 != 0.  A plain stacked eigvalsh scan of 2000 points on
    # (0, 1] finds no state below -psd_tol up to the radius, and the family
    # already fails a relative 1e-5 past it.
    rng = np.random.default_rng(17)
    t = DEFAULT.psd_tol
    grid = np.linspace(0.0, 1.0, 2001)[1:]
    capped = 0
    for k in range(256):
        dim = 2 + k % 4
        base = random_density(rng, dim, rank=1 + (k // 4) % dim)
        a1 = random_traceless(rng, dim, rng.uniform(0.1, 3.0) / dim)
        a2 = random_traceless(rng, dim, rng.uniform(0.1, 3.0) / dim) if (k // 16) % 2 else None
        fam = PerturbationFamily.build(base, a1, a2)
        radius = admissible_radius(fam)

        def lowest(eps):
            e = eps[:, None, None]
            return np.linalg.eigvalsh(fam.base.matrix + e * fam.a1.matrix + e * e * fam.a2.matrix)[:, 0]

        assert np.all(lowest(grid[grid <= radius]) >= -t), k
        if radius < 1.0:
            assert lowest(np.array([radius * (1.0 + 1e-5) + 1e-11]))[0] < -t, k
        else:
            capped += 1
            assert radius == 1.0 and np.all(lowest(grid) >= -t), k
    assert 0 < capped < 32


def test_state_at_base_and_diagonal():
    fam = qubit_flip_family()
    assert np.allclose(state_at(fam, 0.0).matrix, np.diag([1.0, 0.0]))
    assert np.allclose(state_at(fam, 0.3).matrix, np.diag([0.7, 0.3]))


def test_state_at_out_of_range():
    fam = qubit_flip_family()
    with pytest.raises(ValueError):
        state_at(fam, -0.1)
    with pytest.raises(PositivityError):
        state_at(fam, 1.2)


def test_state_at_matches_hand_assembled_matrix():
    w, a = 0.3, 0.99
    fam = platypus_ad_family(w, a)
    eps = 0.05
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 1 - w
    expected[4, 4] = w - eps * eps * w
    expected[3, 3] = eps * eps * w
    expected[3, 4] = expected[4, 3] = eps * w * a
    assert np.linalg.norm(state_at(fam, eps).matrix - expected) < 1e-12


def test_w_trace_zero_direction():
    dec = spectral_decompose(np.diag([0.6, 0.4]))
    assert w_trace(dec, np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("p", [0.10, 0.20])
def test_w_trace_closed_forms(p):
    tw_out, tw_env = depolarizing_pair_w_traces(p)
    cf_out, cf_env = closed_form_w_traces(p)
    assert abs(tw_out - cf_out) <= 1e-10 * abs(cf_out)
    assert abs(tw_env - cf_env) <= 1e-10 * abs(cf_env)


def test_w_trace_matches_entropy_curvature_oracle():
    # independent check: -w_trace is the second derivative of the natural-log
    # entropy of the channel output along the family
    p = 0.2
    fam = two_qubit_tilt_family()
    joint = tensor(depolarizing_channel(p), depolarizing_channel(p))
    comp = complement(joint)

    def env_entropy_nats(eps):
        w = np.linalg.eigvalsh(apply_matrix(comp, fam.matrix_at(eps)))
        w = w[w > 1e-15]
        return float(-(w * np.log(w)).sum())

    h = 1e-3
    fd = (env_entropy_nats(2 * h) - 2 * env_entropy_nats(h) + env_entropy_nats(0.0)) / h**2
    _, tw_env = depolarizing_pair_w_traces(p)
    assert -fd == pytest.approx(tw_env, rel=2e-3)


def test_w_trace_rejects_kernel():
    dec = spectral_decompose(np.diag([1.0, 0.0]))
    with pytest.raises(RankCaseError):
        w_trace(dec, np.zeros((2, 2)))


def test_w_trace_invariant_under_recluster_of_degenerate_spectrum(rng):
    d = np.diag([0.5, 0.25, 0.25])
    b = random_traceless(rng, 3).matrix
    base = w_trace(spectral_decompose(d, cluster_tol=1e-9), b)
    wide = w_trace(spectral_decompose(d, cluster_tol=1e-8), b)
    assert abs(base - wide) < 1e-9


def test_w_traces_basis_covariant(rng):
    d = np.diag([0.5, 0.3, 0.2])
    b = random_traceless(rng, 3).matrix
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    plain = w_trace(spectral_decompose(d), b)
    rotated = w_trace(spectral_decompose(q @ d @ q.conj().T), q @ b @ q.conj().T)
    assert abs(plain - rotated) < 1e-10

    d0 = np.diag([0.7, 0.3, 0.0])
    b2 = random_traceless(rng, 3).matrix
    plain0 = w0_trace(spectral_decompose(d0), b, b2)
    rotated0 = w0_trace(
        spectral_decompose(q @ d0 @ q.conj().T), q @ b @ q.conj().T, q @ b2 @ q.conj().T
    )
    assert abs(plain0 - rotated0) < 1e-10


def test_w0_trace_zero_directions():
    dec = spectral_decompose(np.diag([1.0, 0.0]))
    assert w0_trace(dec, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def platypus_damping_setup(s, w, gamma, a):
    joint = tensor(platypus_channel(s), amplitude_damping_channel(gamma))
    fam = platypus_ad_family(w, a)
    comp = complement(joint)
    out_dec = spectral_decompose(apply_matrix(joint, fam.base.matrix))
    env_dec = spectral_decompose(apply_matrix(comp, fam.base.matrix))
    out = w0_trace(out_dec, apply_matrix(joint, fam.a1.matrix), apply_matrix(joint, fam.a2.matrix))
    env = w0_trace(env_dec, apply_matrix(comp, fam.a1.matrix), apply_matrix(comp, fam.a2.matrix))
    return out, env


def test_w0_trace_closed_forms():
    s, w, gamma, a = 0.2, 0.3, 0.5, 0.99
    out, env = platypus_damping_setup(s, w, gamma, a)
    expected_env = w * gamma - w * w * a * a * gamma / ((1 - s) * (1 - w) + w)
    assert out == pytest.approx(w * (1 - gamma), abs=1e-12)
    assert env == pytest.approx(expected_env, abs=1e-12)


def test_w0_trace_rejects_full_rank():
    dec = spectral_decompose(np.diag([0.6, 0.4]))
    with pytest.raises(RankCaseError):
        w0_trace(dec, np.zeros((2, 2)), np.zeros((2, 2)))


def eigenbasis_test_spectrum(rng, kind, d):
    """Random positive spectrum of size ``d``: distinct (``full``), in clusters of
    equal values (``clusters``), or with a zero block (``kernel``)."""
    values = rng.uniform(0.05, 1.0, d)
    if kind == "clusters":
        k = max(2, d // 4)
        values = np.repeat(values[:k], d // k)
    if kind == "kernel":
        values[: d // 4 + 1] = 0.0
    return values / values.sum()


@pytest.mark.parametrize("kind", ["full", "clusters"])
@pytest.mark.parametrize("d", [4, 16, 64])
def test_eigenbasis_traces_match_projector_form(rng, d, kind):
    for _ in range(3):
        dec = spectral_decompose(rotated_spectrum(rng, eigenbasis_test_spectrum(rng, kind, d)))
        assert (max(dec.multiplicities) > 1) == (kind == "clusters")
        b = random_traceless(rng, d).matrix
        assert w_trace(dec, b) == pytest.approx(projector_w_trace(dec, b), rel=1e-12)
        assert log_weighted_trace(dec, b) == pytest.approx(
            projector_log_trace(dec, b), rel=1e-12, abs=1e-14
        )


@pytest.mark.parametrize("d", [4, 16])
def test_w_trace_close_unmerged_pair(rng, d):
    # a gap of 1e3 cluster_tol: the divided difference there is accurate, while
    # the projector form cancels two terms of size ln(lambda) / gap
    for _ in range(3):
        values = eigenbasis_test_spectrum(rng, "full", d)
        values[1] = values[0] + 1e-6
        dec = spectral_decompose(rotated_spectrum(rng, values))
        assert len(dec) == d
        assert dec.cluster_tol == pytest.approx(1e-9)
        b = random_traceless(rng, d).matrix
        assert w_trace(dec, b) == pytest.approx(decimal_w_trace(dec, b), rel=1e-13)
        assert w_trace(dec, b) == pytest.approx(projector_w_trace(dec, b), rel=1e-9)


@pytest.mark.parametrize("d", [4, 16, 64])
def test_eigenbasis_kernel_traces_match_projector_form(rng, d):
    for _ in range(3):
        base = DensityMatrix.from_matrix(
            rotated_spectrum(rng, eigenbasis_test_spectrum(rng, "kernel", d))
        )
        b1, b2 = random_traceless(rng, d).matrix, random_traceless(rng, d).matrix
        dec = spectral_decompose(base)
        assert w0_trace(dec, b1, b2) == pytest.approx(projector_w0_trace(dec, b1, b2), rel=1e-12)
        assert _support_log_trace(dec, b1, Tolerances(kernel_tol=1e-10)) == pytest.approx(
            projector_log_trace(dec, b1), rel=1e-12, abs=1e-14
        )

        fam = PerturbationFamily.build(base, HermitianOperator.from_matrix(b1))
        side = FamilyEvaluator(identity_channel(d), fam).out
        ps = projectors(dec)
        p0 = sum(ps[i].matrix for i in kernel_indices(dec))
        assert side.cluster_traces() == pytest.approx(
            [np.trace(p.matrix @ b1).real for p in ps], rel=1e-12, abs=1e-13
        )
        assert side.kernel_trace() == pytest.approx(np.trace(p0 @ b1).real, rel=1e-12)
        block_min = np.linalg.eigvalsh(p0 @ b1 @ p0)[0]
        assert side.kernel_block_psd() == (block_min >= -1e-9)


def test_kernel_block_check_reads_first_order_tol():
    # P0 B1 P0 = diag(1e-8, -1e-8) is a first-order quantity: it fails the
    # default 1e-9 check and passes under first_order_tol = 1e-7
    base = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    a1 = HermitianOperator.from_matrix(np.diag([0.0, 0.0, 1e-8, -1e-8]))
    fam = PerturbationFamily.build(base, a1)
    ch = identity_channel(4)
    warning = "kernel_block_not_psd:out"
    assert warning in derivative_profile(ch, fam).warnings
    assert warning in check_criterion(ch, fam, "C1").warnings
    loose = Tolerances(first_order_tol=1e-7)
    assert warning not in derivative_profile(ch, fam, loose).warnings
    assert warning not in check_criterion(ch, fam, "C1", tol=loose).warnings


def test_sum_rules(rng):
    for _ in range(10):
        h = random_density(rng, 4).matrix
        a = random_traceless(rng, 4).matrix
        dec = spectral_decompose(h)
        first = sum(np.trace(p.matrix @ a).real for p in projectors(dec))
        assert abs(first) < 1e-10
        second = 0.0
        ps = projectors(dec)
        for i, p in enumerate(ps):
            c_i = reduced_resolvent(dec, i, ps).matrix
            second += np.trace(p.matrix @ a @ c_i @ a).real
        assert abs(second) < 1e-9


def test_derivative_profile_identity_channel_full_rank():
    rho = DensityMatrix.from_matrix(np.diag([0.7, 0.3]))
    a1 = HermitianOperator.from_matrix(np.diag([-0.1, 0.1]))
    fam = PerturbationFamily.build(rho, a1)
    profile = derivative_profile(identity_channel(2), fam)
    assert profile.rank_case == "both_full"
    expected = -np.trace(a1.matrix @ np.diag(np.log2([0.7, 0.3]))).real
    assert profile.fprime0 == pytest.approx(expected, abs=1e-10)
    fd_first = plain_first_derivative_bits(identity_channel(2).kraus, *plain_family(fam))
    assert fd_first == pytest.approx(expected, rel=1e-6, abs=1e-8)


def test_derivative_profile_two_qubit_tilt():
    p = 0.2
    joint = tensor(depolarizing_channel(p), depolarizing_channel(p))
    fam = two_qubit_tilt_family()
    profile = derivative_profile(joint, fam)
    assert profile.rank_case == "both_full"
    assert profile.fprime0 == pytest.approx(0.0, abs=1e-10)
    tw_out, tw_env = depolarizing_pair_w_traces(p)
    assert profile.fsecond0 == pytest.approx((tw_env - tw_out) / math.log(2), abs=1e-10)
    assert profile.fsecond0 < 0


def test_derivative_profile_flip_family_is_one_deficient():
    p = 0.1
    profile = derivative_profile(depolarizing_channel(p), qubit_flip_family())
    assert profile.rank_case == "one_deficient"
    assert profile.fprime0 == NEGATIVE_INFINITY
    assert profile.fprime0_divergence == "log"
    assert profile.leading_terms["kernel_trace_out"] == pytest.approx(0.0, abs=1e-12)
    expected = p * (3 - 2 * p) / (2 - p)
    assert profile.leading_terms["kernel_trace_env"] == pytest.approx(expected, abs=1e-12)


def test_derivative_profile_second_order_markers():
    s, w, gamma, a = 0.2, 0.3, 0.5, 0.99
    joint = tensor(platypus_channel(s), amplitude_damping_channel(gamma))
    fam = platypus_ad_family(w, a)
    profile = derivative_profile(joint, fam)
    assert profile.rank_case == "both_deficient"
    assert profile.fprime0 == 0.0
    assert profile.fsecond0 == "+inf"
    assert profile.fsecond0_divergence == "log"


def test_f_eval_zero_at_origin():
    fam = two_qubit_tilt_family()
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    assert FamilyEvaluator(joint, fam).f_values([0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_f_eval_two_qubit_tilt_is_negative():
    # consistent with the negative second derivative of this family
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    fam = two_qubit_tilt_family()
    assert FamilyEvaluator(joint, fam).f_values([0.05])[0] < 0.0


def test_f_eval_flip_family_signs():
    fam = qubit_flip_family()
    assert FamilyEvaluator(depolarizing_channel(0.2), fam).f_values([1e-3])[0] < 0.0
    # at p = 0.1 the log divergence only wins at much smaller eps
    assert FamilyEvaluator(depolarizing_channel(0.1), fam).f_values([1e-3])[0] > 0.0
    assert FamilyEvaluator(depolarizing_channel(0.1), fam).f_values([1e-7])[0] < 0.0


def test_f_eval_platypus_family_positive():
    joint = tensor(platypus_channel(0.2), amplitude_damping_channel(0.5))
    fam = platypus_ad_family(0.3, 0.99)
    assert FamilyEvaluator(joint, fam).f_values([0.01])[0] > 0.0


def evaluator_reference_cases():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    three_copy = line_between(DensityMatrix.maximally_mixed(8), DensityMatrix.pure(psi))
    radius = admissible_radius(platypus_ad_family(0.3, 0.99))
    return [
        (depolarizing_channel(0.1), qubit_flip_family(), np.geomspace(1e-8, 0.2, 25)),
        (
            tensor(depolarizing_channel(0.2), depolarizing_channel(0.2)),
            two_qubit_tilt_family(),
            np.geomspace(1e-4, 0.9, 25),
        ),
        (
            tensor(platypus_channel(0.2), amplitude_damping_channel(0.5)),
            platypus_ad_family(0.3, 0.99),
            np.geomspace(1e-4, 0.999 * radius, 25),
        ),
        (tensor_all([depolarizing_channel(0.2)] * 3), three_copy, np.geomspace(1e-4, 0.999, 25)),
    ]


def test_evaluator_grid_matches_pointwise_coherent_information():
    for ch, fam, grid in evaluator_reference_cases():
        values = FamilyEvaluator(ch, fam).f_values(grid)
        base = coherent_information(fam.base, ch)
        reference = [coherent_information(state_at(fam, eps), ch) - base for eps in grid]
        assert np.max(np.abs(values - reference)) <= 1e-12
    # the three-copy environment (d = 64) takes more than one stacked call
    assert len(grid) > STACK_ENTRIES // 64 ** 2


def test_evaluator_entropy_uses_its_own_kernel_tol():
    # kernel_tol decides rank only: at 0.1 the output eigenvalue 0.05 joins
    # the kernel, while the continuous entropies read no tolerance
    ch, fam, tol = depolarizing_channel(0.1), qubit_flip_family(), Tolerances(kernel_tol=0.1)
    ev, default = FamilyEvaluator(ch, fam, tol), FamilyEvaluator(ch, fam)
    assert (default.rank_case, ev.rank_case) == (RANK_ONE_DEFICIENT, RANK_BOTH_DEFICIENT)
    stacked = ev.coherent_information([1e-5])[0]
    assert stacked == default.coherent_information([1e-5])[0]
    pointwise = coherent_information(state_at(fam, 1e-5), ch, tol)
    assert stacked == pytest.approx(pointwise, abs=1e-15)


def test_evaluator_rejects_eps_outside_the_family():
    joint = tensor(platypus_channel(0.2), amplitude_damping_channel(0.5))
    fam = platypus_ad_family(0.3, 0.99)
    ev = FamilyEvaluator(joint, fam)
    beyond = 1.1 * admissible_radius(fam)
    with pytest.raises(PositivityError):
        state_at(fam, beyond)
    with pytest.raises(PositivityError):
        ev.f_values([0.01, beyond])
    with pytest.raises(ValueError):
        ev.f_values([0.01, -1e-3])


def test_fd_derivatives_zero_family():
    fam = PerturbationFamily.build(DensityMatrix.maximally_mixed(2), HermitianOperator.zero(2))
    first, second = plain_derivatives_bits(depolarizing_channel(0.2), fam)
    assert first == pytest.approx(0.0, abs=1e-10)
    assert second == pytest.approx(0.0, abs=1e-8)


def test_fd_derivatives_match_profile_on_tilt_family():
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    fam = two_qubit_tilt_family()
    profile = derivative_profile(joint, fam)
    first, second = plain_derivatives_bits(joint, fam)
    assert abs(first) < 1e-6
    assert second == pytest.approx(profile.fsecond0, rel=1e-4)


def test_fd_derivatives_random_full_rank_agreement(rng):
    hits = 0
    while hits < 3:
        ch = random_channel(rng, 2, 2, 2)
        rho = random_density(rng, 2)
        direction = random_traceless(rng, 2)
        floor = float(np.linalg.eigvalsh(rho.matrix)[0])
        spread = float(np.abs(np.linalg.eigvalsh(direction.matrix)).max())
        a1 = HermitianOperator.from_matrix(direction.matrix * (floor / spread) * 0.5)
        fam = PerturbationFamily.build(rho, a1)
        profile = derivative_profile(ch, fam)
        if profile.rank_case != "both_full":
            continue
        hits += 1
        first, second = plain_derivatives_bits(ch, fam)
        assert first == pytest.approx(profile.fprime0, rel=1e-4, abs=1e-8)
        assert second == pytest.approx(profile.fsecond0, rel=1e-4, abs=1e-7)


def test_line_between_matches_segment():
    base = DensityMatrix.maximally_mixed(2)
    target = DensityMatrix.pure([1.0, 0.0])
    fam = line_between(base, target)
    eps = 0.4
    expected = (1 - eps) * base.matrix + eps * target.matrix
    assert np.linalg.norm(state_at(fam, eps).matrix - expected) < 1e-12


def test_derivative_profile_finite_on_support_confined_direction():
    # rank-deficient output whose kernel block stays zero: the first
    # derivative is finite and set by the positive part of the spectrum
    base = DensityMatrix.from_matrix(np.diag([0.6, 0.4, 0.0]))
    a1 = np.zeros((3, 3), dtype=complex)
    a1[0, 0], a1[1, 1] = -0.1, 0.1
    a1[0, 1] = a1[1, 0] = 0.05
    fam = PerturbationFamily.build(base, HermitianOperator.from_matrix(a1))
    ch = identity_channel(3)
    profile = derivative_profile(ch, fam)
    assert profile.rank_case == "one_deficient"
    assert isinstance(profile.fprime0, float)
    first = plain_first_derivative_bits(ch.kraus, *plain_family(fam))
    assert first == pytest.approx(profile.fprime0, rel=1e-6)


def test_derivative_profile_kernel_touching_direction_diverges():
    base = DensityMatrix.from_matrix(np.diag([0.6, 0.4, 0.0]))
    a1 = np.zeros((3, 3), dtype=complex)
    a1[0, 0], a1[2, 2] = -0.1, 0.1
    fam = PerturbationFamily.build(base, HermitianOperator.from_matrix(a1))
    profile = derivative_profile(identity_channel(3), fam)
    assert profile.fprime0 == "+inf"
    assert profile.fprime0_divergence == "log"
