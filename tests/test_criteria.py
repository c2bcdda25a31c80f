import numpy as np
import pytest

from cohpert import (
    DensityMatrix,
    complement as complement_channel,
    HermitianOperator,
    NoSignChangeError,
    PerturbationFamily,
    Tolerances,
    amplitude_damping_channel,
    check_criterion,
    coherent_information,
    depolarizing_channel,
    dephrasure_channel,
    detect_private_gap,
    detect_private_gap_via_complement,
    detect_superadditivity,
    identity_channel,
    line_between,
    optimal_line_search,
    platypus_channel,
    tensor,
    threshold_scan,
)
from cohpert import PositivityError, admissible_radius, criteria
from cohpert.criteria import SENSES, _criterion, default_witness_grid
from cohpert.perturbation import LN2, FamilyEvaluator, derivative_profile
from cohpert.scenarios import platypus_ad_family, qubit_flip_family, two_qubit_tilt_family
from cohpert.tolerances import DEFAULT
from conftest import (
    loop_admissible_r,
    matrix_to_pairs,
    random_channel,
    random_density,
    random_pure,
    random_traceless,
)


def platypus_damping_pair(s=0.2, gamma=0.5):
    return platypus_channel(s), amplitude_damping_channel(gamma)


# --- criterion 1 -----------------------------------------------------------


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
def test_criterion1_negative_sense_fires_on_flip_family(p):
    report = check_criterion(depolarizing_channel(p), qubit_flip_family(), "C1", "negative_f")
    assert report.fires
    assert report.rhs == pytest.approx(0.0, abs=1e-12)
    assert report.lhs == pytest.approx(p * (3 - 2 * p) / (2 - p), abs=1e-12)


def test_criterion1_positive_sense_fails_on_flip_family():
    report = check_criterion(depolarizing_channel(0.1), qubit_flip_family(), "C1", "positive_f")
    assert report.verdict == "fails"
    assert report.margin < 0


def test_criterion1_inapplicable_when_both_full_rank():
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    report = check_criterion(joint, two_qubit_tilt_family(), "C1")
    assert report.verdict == "inapplicable"


def test_criterion1_sense_duality():
    ch = depolarizing_channel(0.1)
    fam = qubit_flip_family()
    pos = check_criterion(ch, fam, "C1", "positive_f")
    neg = check_criterion(ch, fam, "C1", "negative_f")
    assert pos.margin == -neg.margin


# --- criterion 2 -----------------------------------------------------------


def test_criterion2_fires_with_closed_form_sides():
    s, w, gamma, a = 0.2, 0.3, 0.5, 0.99
    joint = tensor(*platypus_damping_pair(s, gamma))
    report = check_criterion(joint, platypus_ad_family(w, a), "C2", "positive_f")
    assert report.fires
    assert report.lhs == pytest.approx(w * (1 - gamma), abs=1e-12)
    expected_rhs = w * gamma - w * w * a * a * gamma / ((1 - s) * (1 - w) + w)
    assert report.rhs == pytest.approx(expected_rhs, abs=1e-12)


def test_criterion2_fails_beyond_damping_boundary():
    s, w, a = 0.2, 0.3, 0.99
    boundary = (1 - s + s * w) / (2 - 2 * s - w + 2 * s * w)
    gamma = 0.999 * boundary + 0.01
    joint = tensor(*platypus_damping_pair(s, gamma))
    report = check_criterion(joint, platypus_ad_family(w, a), "C2", "positive_f")
    assert report.verdict == "fails"
    assert report.margin < 0


def test_criterion2_zero_perturbation_fails():
    joint = tensor(*platypus_damping_pair())
    base = platypus_ad_family(0.3).base
    fam = PerturbationFamily.build(base, HermitianOperator.zero(6))
    report = check_criterion(joint, fam, "C2")
    assert report.verdict == "fails"
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_criterion2_detects_first_order_violation():
    joint = tensor(*platypus_damping_pair())
    fam = platypus_ad_family(0.3, 0.99)
    # the population mover alone has nonzero cluster traces at first order
    violating = PerturbationFamily.build(fam.base, fam.a2)
    report = check_criterion(joint, violating, "C2")
    assert report.verdict == "fails"
    assert any("first_order" in w for w in report.warnings)
    assert report.first_order_checks


def test_criterion2_inapplicable_when_both_full_rank():
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    report = check_criterion(joint, two_qubit_tilt_family(), "C2")
    assert report.verdict == "inapplicable"


# --- criterion 3 -----------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.146, 0.2, 0.2524])
def test_criterion3_fails_for_depolarizing_pair_tilt(p):
    # the environment-side trace never overtakes the output side for this family
    joint = tensor(depolarizing_channel(p), depolarizing_channel(p))
    report = check_criterion(joint, two_qubit_tilt_family(), "C3")
    assert report.criterion == "C3"
    assert report.verdict == "fails"
    assert report.margin < 0


def test_criterion3_fires_for_noisy_depolarizing():
    # beyond the hashing point the maximally mixed state is suboptimal, and
    # tilting toward a pure state raises coherent information at second order
    ch = depolarizing_channel(0.9)
    fam = line_between(DensityMatrix.maximally_mixed(2), DensityMatrix.pure([1.0, 0.0]))
    report = check_criterion(ch, fam, "C3")
    assert report.fires
    # soundness: a positive witness must exist on the default grid
    grid = default_witness_grid(1.0)
    assert FamilyEvaluator(ch, fam).f_values(grid).max() > 0


def test_criterion3_inapplicable_on_rank_deficient_case():
    report = check_criterion(depolarizing_channel(0.1), qubit_flip_family(), "C3")
    assert report.verdict == "inapplicable"


def test_criterion3_zero_perturbation_fails():
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    fam = PerturbationFamily.build(DensityMatrix.maximally_mixed(4), HermitianOperator.zero(4))
    report = check_criterion(joint, fam, "C3")
    assert report.verdict == "fails"
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_criterion3_first_order_mismatch_fails():
    # a diagonal shift through amplitude damping moves the two log traces differently
    ch = amplitude_damping_channel(0.3)
    rho = DensityMatrix.from_matrix(np.diag([0.6, 0.4]))
    a1 = HermitianOperator.from_matrix(np.diag([0.1, -0.1]))
    report = check_criterion(ch, PerturbationFamily.build(rho, a1), "C3")
    assert report.verdict == "fails"
    assert any("first_order" in w for w in report.warnings)


def test_criterion3_first_order_tol_decides_a_small_mismatch():
    # a near-maximally-mixed base leaves log traces of order 1e-7 apart
    ch = depolarizing_channel(0.1)
    rho = DensityMatrix.from_matrix(np.diag([0.5 + 1e-6, 0.5 - 1e-6]))
    fam = PerturbationFamily.build(rho, HermitianOperator.from_matrix(np.diag([0.1, -0.1])))
    strict = check_criterion(ch, fam, "C3", "negative_f")
    assert strict.verdict == "fails"
    assert "first_order_condition_violated:log_a1" in strict.warnings
    loose = check_criterion(ch, fam, "C3", "negative_f", Tolerances(first_order_tol=1e-3))
    assert loose.verdict == "fires"
    assert loose.margin == strict.margin


def test_criterion3_labels_second_order_log_terms():
    ch = amplitude_damping_channel(0.3)
    rho = DensityMatrix.from_matrix(np.diag([0.6, 0.4]))
    a2 = HermitianOperator.from_matrix(np.diag([0.1, -0.1]))
    fam = PerturbationFamily.build(rho, HermitianOperator.zero(2), a2)
    report = check_criterion(ch, fam, "C3")
    assert report.criterion == "THM2_FULL2"


def test_criterion3_sense_duality():
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    fam = two_qubit_tilt_family()
    pos = check_criterion(joint, fam, "C3", "positive_f")
    neg = check_criterion(joint, fam, "C3", "negative_f")
    assert pos.margin == -neg.margin
    assert neg.fires  # the negative sense of this family genuinely fires
    assert FamilyEvaluator(joint, fam).f_values([0.05])[0] < 0


# --- first-order classification ---------------------------------------------
# With both outputs full rank the first-order margin, environment-side minus
# output-side tr(A1 ln .), is ln 2 * f'(0+) of the derivative profile.


def test_classify_first_order_zero_direction():
    fam = PerturbationFamily.build(DensityMatrix.maximally_mixed(2), HermitianOperator.zero(2))
    margin = LN2 * derivative_profile(depolarizing_channel(0.2), fam).fprime0
    assert margin <= DEFAULT.decision_tol
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_classify_first_order_fires_on_entropy_increase():
    rho = DensityMatrix.from_matrix(np.diag([0.9, 0.1]))
    a1 = HermitianOperator.from_matrix(np.diag([-0.05, 0.05]))
    fam = PerturbationFamily.build(rho, a1)
    assert LN2 * derivative_profile(identity_channel(2), fam).fprime0 > DEFAULT.decision_tol
    assert FamilyEvaluator(identity_channel(2), fam).f_values([0.01])[0] > 0


def test_classify_first_order_never_fires_at_product_optimum(rng):
    ch = depolarizing_channel(0.2)
    joint = tensor(ch, ch)
    base = DensityMatrix.maximally_mixed(4)
    for _ in range(20):
        fam = PerturbationFamily.build(base, random_traceless(rng, 4, scale=0.05))
        assert LN2 * derivative_profile(joint, fam).fprime0 <= 1e-9


# --- detectors ---------------------------------------------------------------


def test_detect_superadditivity_platypus_damping():
    s, gamma, w = 0.2, 0.5, 0.3
    plat, damp = platypus_damping_pair(s, gamma)
    state1 = DensityMatrix.from_matrix(np.diag([1 - w, 0.0, w]))
    state2 = DensityMatrix.pure([1.0, 0.0])
    report = detect_superadditivity([plat, damp], [state1, state2], platypus_ad_family(w, 0.99))
    assert report.conclusion == "superadditive"
    assert report.criterion_report.criterion == "C2"
    eps, value = report.numeric_confirmation
    assert value > 1e-8
    assert report.inequality["joint_coherent_information_at_witness"] > (
        report.inequality["sum_of_single_channel_coherent_information"]
    )


def test_detect_superadditivity_depolarizing_pair_is_inconclusive():
    # no positive witness exists anywhere in this family's admissible range
    ch = depolarizing_channel(0.2)
    mixed = DensityMatrix.maximally_mixed(2)
    report = detect_superadditivity([ch, ch], [mixed, mixed], two_qubit_tilt_family())
    assert report.conclusion == "inconclusive"
    assert report.numeric_confirmation is None


def test_detect_superadditivity_base_mismatch():
    ch = depolarizing_channel(0.2)
    wrong = DensityMatrix.pure([1.0, 0.0])
    with pytest.raises(ValueError):
        detect_superadditivity([ch, ch], [wrong, wrong], two_qubit_tilt_family())


@pytest.mark.parametrize("p", [0.1, 0.2])
def test_detect_private_gap_depolarizing(p):
    report = detect_private_gap(
        depolarizing_channel(p), DensityMatrix.maximally_mixed(2), qubit_flip_family()
    )
    assert report.conclusion == "gap_detected"
    assert report.admissible_r == pytest.approx(0.5, abs=2e-6)
    eps, value = report.numeric_confirmation
    assert value < -1e-8
    assert any("private capacity of the complement" in note for note in report.notes)


@pytest.mark.parametrize(
    "override, changed",
    [
        # the output eigenvalue 0.05 joins the kernel: both outputs are rank
        # deficient, C1 fails and C2 decides, failing too
        ({"kernel_tol": 0.1}, lambda report, _: report.conclusion == "inconclusive"),
        # the PSD slack admits a larger r-bar than the default run's
        ({"psd_tol": 1e-6}, lambda report, default: report.admissible_r > default.admissible_r),
        # the C1 margin of 0.147 no longer clears the decision margin
        ({"decision_tol": 0.5}, lambda report, _: report.criterion_report.verdict == "fails"),
        # the witness of -1.46e-8 bits no longer clears the numeric margin
        ({"numeric_margin": 1e-5}, lambda report, _: report.numeric_confirmation is None),
    ],
    ids=["kernel_tol", "psd_tol", "decision_tol", "numeric_margin"],
)
def test_tolerance_field_reaches_private_gap_detector(override, changed):
    args = (depolarizing_channel(0.1), DensityMatrix.maximally_mixed(2), qubit_flip_family())
    default = detect_private_gap(*args)
    assert default.conclusion == "gap_detected"
    assert not changed(default, default)
    assert changed(detect_private_gap(*args, tol=Tolerances(**override)), default)


def _default_gap_grid(fam):
    return default_witness_grid(min(admissible_radius(fam), 0.25), lo=1e-8, points=40)


def _pure_base_second_order_family(rng, dim):
    base = random_pure(rng, dim)
    toward = random_density(rng, dim)
    a1 = HermitianOperator.from_matrix(toward.matrix - base.matrix)
    return PerturbationFamily.build(base, a1, random_traceless(rng, dim, 0.05))


def test_stacked_admissible_r_equals_per_eps_loop(rng):
    ch = depolarizing_channel(0.1)
    # the gap-depolarizing flip family at its default grid
    cases = [(DensityMatrix.maximally_mixed(2), qubit_flip_family(), None)]
    # random full-rank sigma against second-order families
    for dim in (2, 3, 4):
        fam = _pure_base_second_order_family(rng, dim)
        cases.append((random_density(rng, dim), fam, None))
    # a pure sigma (rank deficient, as dephrasure's primary maximum beyond
    # its boundary): only the psd_tol slack admits r > 0 at small eps
    flip = qubit_flip_family()
    cases.append((flip.base, flip, tuple(np.geomspace(1e-10, 1e-8, 12))))
    cases.append((flip.base, flip, None))
    for sigma, fam, grid in cases:
        grid = grid or _default_gap_grid(fam)
        channel = ch if fam.base.dim == 2 else random_channel(rng, fam.base.dim, 2, 3)
        report = detect_private_gap(channel, sigma, fam, eps_grid=grid)
        reference = loop_admissible_r(sigma, fam, grid, r_tol=1e-12)
        assert report.admissible_r == pytest.approx(reference, rel=1e-9)
    assert 0.05 < detect_private_gap(ch, flip.base, flip, eps_grid=cases[-2][2]).admissible_r < 0.2


def test_exact_r_bar_brackets_the_bisection_on_every_dephrasure_gap_row():
    # at the default dephrasure-gap rows the exact r-bar lies at or above a
    # bisection of the same predicate to 1e-6, and within R_TOL of it
    for q in np.linspace(0.0, 0.44, 23):
        ch = dephrasure_channel(0.1, float(q))
        sigma, _ = optimal_line_search(ch)
        state, _, _ = criteria.complement_line_witness(ch)
        r_bar = detect_private_gap_via_complement(ch, sigma).admissible_r
        point = PerturbationFamily.build(state, HermitianOperator.zero(state.dim))
        bisected = loop_admissible_r(sigma, point, (0.0,), r_tol=1e-6)
        assert bisected <= r_bar <= bisected + criteria.R_TOL, q


def test_admissible_r_is_zero_when_sigma_sits_at_minus_psd_tol():
    # sigma + psd_tol I is singular, and the mixed state weighs its kernel
    t = Tolerances().psd_tol
    sigma = DensityMatrix.from_matrix(np.diag([1.0 + t, -t]))
    states = DensityMatrix.maximally_mixed(2).matrix[None]
    assert criteria._largest_admissible_r(sigma, states, Tolerances()) == 0.0


def test_stacked_admissible_r_rejects_grid_outside_the_family():
    ch, sigma, fam = depolarizing_channel(0.1), DensityMatrix.maximally_mixed(2), qubit_flip_family()
    with pytest.raises(PositivityError):
        detect_private_gap(ch, sigma, fam, eps_grid=(0.1, 1.5))
    with pytest.raises(ValueError):
        detect_private_gap(ch, sigma, fam, eps_grid=(0.1, -0.1))


def test_admissible_r_spends_one_eigh_and_one_eigvalsh_call(monkeypatch):
    calls = []
    inside = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda m, name=name, solver=solver: inside and calls.append(name) or solver(m),
        )
    search = criteria._largest_admissible_r

    def counted(*args, **kwargs):
        inside.append(True)
        try:
            return search(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(criteria, "_largest_admissible_r", counted)
    report = detect_private_gap(
        depolarizing_channel(0.1), DensityMatrix.maximally_mixed(2), qubit_flip_family()
    )
    # (1/2 + psd_tol) / (1 - 1e-8): the grid's first state is diag(1 - 1e-8, 1e-8)
    assert report.admissible_r == pytest.approx((0.5 + 1e-9) / (1 - 1e-8), rel=1e-12)
    assert sorted(calls) == ["eigh", "eigvalsh"]


def test_detect_private_gap_requires_pure_base():
    fam = PerturbationFamily.build(
        DensityMatrix.maximally_mixed(2), HermitianOperator.zero(2)
    )
    with pytest.raises(ValueError):
        detect_private_gap(depolarizing_channel(0.1), DensityMatrix.maximally_mixed(2), fam)


def test_detect_private_gap_via_complement_dephrasure_inside_region():
    ch = dephrasure_channel(0.1, 0.3)
    sigma, primary = optimal_line_search(ch)
    assert primary > 0
    report = detect_private_gap_via_complement(ch, sigma)
    assert report.conclusion == "gap_detected"
    assert report.criterion_report.lhs > 0
    assert report.admissible_r > 0


def test_detect_private_gap_via_complement_outside_region():
    q = (1 - 0.2) ** 2 / (1 + (1 - 0.2) ** 2) + 0.02
    ch = dephrasure_channel(0.1, q)
    sigma, primary = optimal_line_search(ch)
    assert primary <= 1e-6
    report = detect_private_gap_via_complement(ch, sigma)
    assert report.conclusion == "inconclusive"


def test_detect_private_gap_via_complement_searches_the_z_line_of_a_qutrit():
    # the x line needs a qubit input, so a qutrit channel searches the z line only
    ch = platypus_channel(0.2)
    sigma, _ = optimal_line_search(ch)
    report = detect_private_gap_via_complement(ch, sigma)
    assert report.notes[0] == "line-search basis: z"
    assert report.admissible_r > 0


def test_detector_reports_deterministic():
    ch = depolarizing_channel(0.1)
    sigma = DensityMatrix.maximally_mixed(2)
    a = detect_private_gap(ch, sigma, qubit_flip_family()).to_json()
    b = detect_private_gap(ch, sigma, qubit_flip_family()).to_json()
    assert a == b


# --- threshold scans ---------------------------------------------------------


def hashing_ic_bits(p):
    return coherent_information(DensityMatrix.maximally_mixed(2), depolarizing_channel(p))


def test_threshold_scan_hashing_zero_crossing():
    root = threshold_scan(hashing_ic_bits, 0.2, 0.3)
    assert root == pytest.approx(0.25239, abs=2e-4)


def test_threshold_scan_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        threshold_scan(hashing_ic_bits, 0.01, 0.1)


def test_threshold_scan_criterion3_margin_has_no_root_below_hashing_point():
    fam = two_qubit_tilt_family()

    def margin(p):
        pair = tensor(depolarizing_channel(p), depolarizing_channel(p))
        return check_criterion(pair, fam, "C3", "positive_f").margin

    with pytest.raises(NoSignChangeError):
        threshold_scan(margin, 0.05, 0.25)


def test_check_criterion_unknown_criterion():
    with pytest.raises(ValueError, match="unknown criterion 'C9'"):
        check_criterion(depolarizing_channel(0.1), qubit_flip_family(), "C9")


def test_criterion1_positive_sense_fires_on_complement_channel():
    # swapping primary and complement roles puts the kernel on the output side
    ch = complement_channel(depolarizing_channel(0.1))
    fam = qubit_flip_family()
    report = check_criterion(ch, fam, "C1", "positive_f")
    assert report.fires
    assert report.lhs == pytest.approx(0.1 * (3 - 0.2) / 1.9, abs=1e-12)
    # soundness: a positive witness exists on the fine default grid
    grid = default_witness_grid(0.25, lo=1e-8, points=40)
    assert FamilyEvaluator(ch, fam).f_values(grid).max() > 1e-8


def test_run_custom_tensor_spec_round_trip():
    from cohpert import run_custom
    from cohpert.scenarios import two_qubit_tilt_family

    fam = two_qubit_tilt_family()
    channel_json = {
        "family": "tensor",
        "params": {},
        "children": [
            {"family": "depolarizing", "params": {"p": 0.2}},
            {"family": "depolarizing", "params": {"p": 0.2}},
        ],
    }
    family_json = {
        "base": matrix_to_pairs(fam.base.matrix),
        "a1": matrix_to_pairs(fam.a1.matrix),
        "a2": None,
        "max_order": 2,
    }
    report = run_custom(channel_json, family_json, "C3", "positive_f")
    assert report.verdict == "fails"
    assert report.margin < 0


def test_criterion_report_json_schema():
    report = check_criterion(depolarizing_channel(0.1), qubit_flip_family(), "C1", "negative_f")
    body = report.to_json()
    assert set(body) == {
        "criterion", "sense", "verdict", "lhs", "rhs", "margin",
        "first_order_checks", "warnings",
    }
    assert body["criterion"] == "C1"
    assert body["verdict"] == "fires"


def test_detector_report_json_schema():
    report = detect_private_gap(
        depolarizing_channel(0.1), DensityMatrix.maximally_mixed(2), qubit_flip_family()
    )
    body = report.to_json()
    assert set(body) == {
        "kind", "channels", "base_states", "criterion", "witness",
        "conclusion", "admissible_r", "inequality", "notes", "criteria",
    }
    assert [c["criterion"] for c in body["criteria"]] == ["C1", "C2", "C3"]
    assert body["criteria"][0] == body["criterion"]
    assert body["criteria"][2]["verdict"] == "inapplicable"
    assert body["witness"] is not None and body["witness"]["f"] < 0
    assert body["channels"][0]["family"] == "depolarizing"


@pytest.mark.parametrize(
    "s,w,gamma,a",
    [(0.35, 0.2, 0.55, 0.95), (0.5, 0.45, 0.5, 0.999)],
)
def test_criterion2_closed_forms_generalize(s, w, gamma, a):
    joint = tensor(platypus_channel(s), amplitude_damping_channel(gamma))
    report = check_criterion(joint, platypus_ad_family(w, a), "C2", "positive_f")
    assert report.lhs == pytest.approx(w * (1 - gamma), abs=1e-12)
    expected_rhs = w * gamma - w * w * a * a * gamma / ((1 - s) * (1 - w) + w)
    assert report.rhs == pytest.approx(expected_rhs, abs=1e-12)


def test_criterion2_negative_sense_fires_beyond_boundary():
    s, w, a = 0.2, 0.3, 0.99
    boundary = 1.0 / (2.0 - w * a * a / ((1 - s) * (1 - w) + w))
    gamma = boundary + 0.05
    joint = tensor(platypus_channel(s), amplitude_damping_channel(gamma))
    fam = platypus_ad_family(w, a)
    report = check_criterion(joint, fam, "C2", "negative_f")
    assert report.fires
    # soundness: a negative value of f exists
    grid = np.geomspace(1e-4, 0.14, 30)
    assert FamilyEvaluator(joint, fam).f_values(grid).min() < -1e-8


def test_criterion1_soundness_on_random_pure_lines(rng):
    from conftest import random_channel, random_pure

    fired = confirmed = 0
    for _ in range(40):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        fam = line_between(random_pure(rng, d), random_pure(rng, d))
        for sense, sign in (("positive_f", 1.0), ("negative_f", -1.0)):
            report = check_criterion(ch, fam, "C1", sense)
            if report.verdict != "fires" or report.margin < 1e-3:
                continue
            fired += 1
            grid = np.geomspace(1e-8, 0.5, 45)
            if (sign * FamilyEvaluator(ch, fam).f_values(grid)).max() > 1e-8:
                confirmed += 1
    assert fired >= 10
    assert confirmed == fired


def test_detect_superadditivity_three_channels():
    # the detector extends to any number of channels; a third factor held at
    # a zero-capacity state leaves the witness intact (additivity on products)
    s, gamma1, gamma2, w, a = 0.2, 0.5, 0.6, 0.3, 0.99
    channels = [
        platypus_channel(s),
        amplitude_damping_channel(gamma1),
        amplitude_damping_channel(gamma2),
    ]
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    fam6 = platypus_ad_family(w, a)
    fam = PerturbationFamily.build(
        DensityMatrix.from_matrix(np.kron(fam6.base.matrix, zero)),
        HermitianOperator.from_matrix(np.kron(fam6.a1.matrix, zero)),
        HermitianOperator.from_matrix(np.kron(fam6.a2.matrix, zero)),
    )
    states = [
        DensityMatrix.from_matrix(np.diag([1 - w, 0, w]).astype(complex)),
        DensityMatrix.pure([1.0, 0.0]),
        DensityMatrix.pure([1.0, 0.0]),
    ]
    report = detect_superadditivity(channels, states, fam)
    assert report.conclusion == "superadditive"
    assert report.criterion_report.criterion == "C2"


# --- derivative profile as a view of the criteria --------------------------


def _profile_cases():
    """Seeded random Kraus channels on full-rank, pure and rank-deficient
    bases, with first-order directions from 1e-5 to 2 in norm (kernel-trace
    gaps on both sides of 1e-3 and of 0.5), plus two bases where the
    first-order traces vanish so that C2 decides."""
    rng = np.random.default_rng(1207)
    cases = []
    for d_in, d_out, d_env in ((2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 2, 3)):
        ch = random_channel(rng, d_in, d_out, d_env)
        for rank in (d_in, 1, d_in - 1):
            for scale in (1e-5, 0.2, 2.0):
                base = random_density(rng, d_in, rank)
                fam = PerturbationFamily.build(
                    base, random_traceless(rng, d_in, scale), random_traceless(rng, d_in, 0.05)
                )
                cases.append((ch, fam))
    cases.append((tensor(*platypus_damping_pair()), platypus_ad_family(0.3, 0.99)))
    # first order inside the support, second order into the kernel: with a
    # zero diagonal every cluster trace vanishes and C2 decides; with a
    # diagonal the first derivative is finite
    base = DensityMatrix.from_matrix(np.diag([0.6, 0.4, 0.0]))
    a2 = HermitianOperator.from_matrix(np.diag([-0.8, 0.0, 0.8]))
    for diagonal in (0.0, 0.1):
        a1 = np.zeros((3, 3), dtype=complex)
        a1[0, 0], a1[1, 1], a1[0, 1], a1[1, 0] = -diagonal, diagonal, 0.05, 0.05
        fam = PerturbationFamily.build(base, HermitianOperator.from_matrix(a1), a2)
        cases.append((identity_channel(3), fam))
    return cases


@pytest.mark.parametrize(
    "tol",
    [Tolerances(), Tolerances(decision_tol=0.5), Tolerances(first_order_tol=1e-3)],
    ids=["default", "decision_tol=0.5", "first_order_tol=1e-3"],
)
def test_derivative_profile_diverges_exactly_when_a_criterion_fires(tol):
    seen = set()
    for ch, fam in _profile_cases():
        profile = derivative_profile(ch, fam, tol)
        ev = FamilyEvaluator(ch, fam, tol)
        fires = {(name, sense): _criterion(ev, name, sense).fires
                 for name in ("C1", "C2") for sense in SENSES}
        c1 = fires["C1", "positive_f"] or fires["C1", "negative_f"]
        assert (profile.fprime0 == "+inf") == fires["C1", "positive_f"]
        assert (profile.fprime0 == "-inf") == fires["C1", "negative_f"]
        # with C1 silent, f'' diverges like log(eps) exactly when C2 fires;
        # a firing C1 makes its 1/eps term lead instead
        log_second = profile.fsecond0_divergence == "log"
        assert (log_second and profile.fsecond0 == "+inf") == (fires["C2", "positive_f"] and not c1)
        assert (log_second and profile.fsecond0 == "-inf") == (fires["C2", "negative_f"] and not c1)
        if profile.rank_case == "both_full":
            c3 = _criterion(ev, "C3", "positive_f")
            assert LN2 * profile.fsecond0 == pytest.approx(c3.margin, rel=1e-14, abs=0.0)
            (_, t1_out), (_, t1_env) = ev.comparison("C3").checks
            assert LN2 * profile.fprime0 == pytest.approx(t1_env - t1_out, rel=1e-14, abs=0.0)
        seen.add((profile.rank_case, profile.fprime0_divergence, profile.fsecond0_divergence))
    # the cases reach every branch the criteria decide
    assert {("both_full", None, None), ("one_deficient", "log", "inverse")} <= seen
    assert any(second == "log" for _, _, second in seen)
