"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see the lines for passing
criteria as well).

Every expected value is asserted at its stated tolerance against an
independent route: closed-form expressions, scalar entropy oracles,
plain-numpy coherent information from Kraus operators, finite-difference
derivatives, or direct enumeration.

Four stated reference values are contradicted by such routes.  Each is
kept as a clause that asserts what the value really is, and the clause it
used to decide is replaced by a comparison with the independent route:

* 01: the stated environment-side trace is the trace along the un-centred
  image ``N^c(|psi><psi|)``; the family's direction ``|psi><psi| - 1/4``
  gives exactly one less (identity in ``closed_form_w_traces``).
* 02: the C3 margin is negative at the stated threshold ``p = 0.146``; the
  scanned root is checked against ``brentq`` on the closed-form margin,
  which vanishes only near ``p = 0.2798``, beyond the hashing point.
* 04: there is no positive witness at ``p = 0.20``; the grid is checked
  against plain-numpy coherent information and the second-order
  prediction ``m * eps^2 / (2 ln 2)``.
* 06: ``f(1e-3)`` is positive at ``p = 0.1``; the evaluator's ``f`` is checked
  against the scalar closed form of the diagonal flip family, which
  changes sign only at ``eps* ~ 1.9e-7``.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from cohpert import (
    DensityMatrix,
    Ensemble,
    FamilyEvaluator,
    HermitianOperator,
    PerturbationFamily,
    amplitude_damping_channel,
    apply,
    apply_matrix,
    check_criterion,
    coherent_information,
    complement,
    depolarizing_channel,
    dephrasure_channel,
    derivative_profile,
    detect_private_gap,
    detect_private_gap_via_complement,
    holevo_information,
    make_channel,
    optimal_line_search,
    platypus_channel,
    private_information,
    spectral_decompose,
    state_at,
    tensor,
    threshold_scan,
    w0_trace,
    w_trace,
)
from cohpert.criteria import default_witness_grid
from cohpert.perturbation import LN2
from cohpert.scenarios import (
    dephrasure_positive_ic_boundary,
    platypus_ad_family,
    qubit_flip_family,
    two_qubit_tilt_family,
)
from conftest import (
    closed_form_w_traces,
    depolarizing_pair_w_traces,
    plain_first_derivative_bits,
    projectors,
    random_channel,
    random_density,
    random_pure,
    random_traceless,
    reduced_resolvent,
    shannon_bits,
    stated_tilt_env_trace,
)

PAULIS = (
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.diag([1.0, -1.0]),
)
TILT_PSI = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)


def run_criterion(number, description, limit_seconds, clauses):
    """Evaluate all clauses, print one status line, then assert."""
    start = time.perf_counter()
    results = [(name, bool(fn())) for name, fn in clauses]
    elapsed = time.perf_counter() - start
    failed = [name for name, ok in results if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s): {description}")
    for name in failed:
        print(f"    failed clause: {name}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s ({elapsed:.2f}s)"
    assert not failed, f"criterion {number} failed clauses: {failed}"


def tilt_c3_margin(p):
    """Closed-form C3 margin ``w_env - w_out`` of the two-qubit tilt (natural logs)."""
    out, env = closed_form_w_traces(p)
    return env - out


def depolarizing_pair_kraus(p):
    """Kraus operators of the two-copy depolarizing channel, from the Pauli weights."""
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    single = [math.sqrt(w) * s for w, s in zip(weights, PAULIS)]
    return np.array([np.kron(a, b) for a in single for b in single])


def plain_coherent_information_bits(kraus, rho):
    """``S(sum_k K rho K^dag) - S([tr(K_j rho K_k^dag)]_jk)`` in plain numpy."""
    out = np.einsum("aij,jk,alk->il", kraus, rho, kraus.conj())
    env = np.einsum("aij,jk,bik->ab", kraus, rho, kraus.conj())
    return shannon_bits(np.linalg.eigvalsh(out)) - shannon_bits(np.linalg.eigvalsh(env))


def test_criterion_01_closed_form_traces():
    points = [0.10, 0.146, 0.20, 0.2524]
    closed = {p: closed_form_w_traces(p) for p in points}
    traces = {}

    def output_side():
        traces.update({p: depolarizing_pair_w_traces(p) for p in points})
        return all(abs(traces[p][0] - closed[p][0]) <= 1e-10 * abs(closed[p][0]) for p in points)

    def environment_side():
        return all(abs(traces[p][1] - closed[p][1]) <= 1e-10 * abs(closed[p][1]) for p in points)

    def stated_form_is_uncentred_trace():
        print(
            "    stated environment-side form replaced by (stated - 1); the stated form "
            "is the trace along N^c(|psi><psi|), not along |psi><psi| - 1/4"
        )
        base = np.eye(4) / 4
        target = np.outer(TILT_PSI, TILT_PSI)
        for p in points:
            comp = complement(tensor(depolarizing_channel(p), depolarizing_channel(p)))
            env_dec = spectral_decompose(apply_matrix(comp, base))
            uncentred = w_trace(env_dec, apply_matrix(comp, target))
            stated = stated_tilt_env_trace(p)
            if abs(uncentred - stated) > 1e-10 * abs(stated):
                return False
        return True

    run_criterion(
        1,
        "closed-form trace match for the two-qubit depolarizing tilt",
        1.0,
        [
            ("output-side trace", output_side),
            ("environment-side trace (stated - 1)", environment_side),
            ("stated environment form is the un-centred trace", stated_form_is_uncentred_trace),
        ],
    )


def test_criterion_02_superadditivity_threshold():
    fam = two_qubit_tilt_family()
    param_tol = 1e-4

    def pair(p):
        return tensor(depolarizing_channel(p), depolarizing_channel(p))

    def margin(p):
        return check_criterion(pair(p), fam, "C3", "positive_f").margin

    def root_matches_closed_form():
        root = threshold_scan(margin, 0.05, 0.35, param_tol)
        expected = brentq(tilt_c3_margin, 0.05, 0.35, xtol=1e-12)
        print(
            f"    stated root 0.146 replaced by brentq on the closed-form margin: "
            f"{expected:.6f} (scan {root:.6f}), beyond the hashing point 0.2524"
        )
        return abs(root - expected) <= param_tol

    def margin_negative_at_0146():
        value = margin(0.146)
        expected = tilt_c3_margin(0.146)
        return value < 0 and abs(value - expected) <= 1e-10 * abs(expected)

    run_criterion(
        2,
        "C3 margin root of the two-qubit tilt matches the closed form on [0.05, 0.35]; "
        "negative at the stated p = 0.146",
        10.0,
        [
            ("root location", root_matches_closed_form),
            ("margin at p = 0.146 negative", margin_negative_at_0146),
        ],
    )


def test_criterion_03_hashing_zero_crossing():
    def ic_bits(p):
        return coherent_information(DensityMatrix.maximally_mixed(2), depolarizing_channel(p))

    def crossing():
        root = threshold_scan(ic_bits, 0.2, 0.3)
        return abs(root - 0.2524) <= 0.0005

    run_criterion(
        3,
        "coherent information of the maximally mixed state crosses zero at p = 0.2524",
        5.0,
        [("zero crossing", crossing)],
    )


def test_criterion_04_numeric_superadditivity_witness():
    p = 0.20
    ch = depolarizing_channel(p)
    joint = tensor(ch, ch)
    fam = two_qubit_tilt_family()
    single = coherent_information(DensityMatrix.maximally_mixed(2), ch)
    grid = list(default_witness_grid(1.0)) + list(np.linspace(0.01, 0.999, 100))
    values = {}
    plain = {}

    def grid_matches_plain_numpy():
        kraus = depolarizing_pair_kraus(p)
        base = np.eye(4) / 4
        target = np.outer(TILT_PSI, TILT_PSI)
        plain_base = plain_coherent_information_bits(kraus, base)
        for eps in grid:
            values[eps] = coherent_information(state_at(fam, eps), joint) - 2 * single
            plain[eps] = plain_coherent_information_bits(kraus, base + eps * (target - base)) - plain_base
        return all(abs(values[eps] - plain[eps]) <= 1e-10 for eps in grid)

    def best_negative():
        best = max(values.values())
        print(
            f"    stated witness above 1e-6 bits replaced: best value over {len(grid)} grid "
            f"points is {best:.3e} bits (plain numpy: {max(plain.values()):.3e} bits)"
        )
        return best < 0

    def second_order_prediction():
        eps = min(grid)
        predicted = tilt_c3_margin(p) * eps ** 2 / (2 * math.log(2))
        return abs(values[eps] - predicted) <= 1e-3 * abs(predicted)

    run_criterion(
        4,
        "grid shift for the two-copy depolarizing tilt at p = 0.20 is negative, "
        "as plain numpy and the second-order margin predict",
        10.0,
        [
            ("grid matches plain numpy to 1e-10 bits", grid_matches_plain_numpy),
            ("no witness: best value negative", best_negative),
            ("smallest eps matches m eps^2 / (2 ln 2)", second_order_prediction),
        ],
    )


def test_criterion_05_platypus_damping_closed_forms():
    s, w, gamma, a = 0.2, 0.3, 0.5, 0.99
    joint = tensor(platypus_channel(s), amplitude_damping_channel(gamma))
    fam = platypus_ad_family(w, a)
    expected_out = w * (1 - gamma)
    expected_env = w * gamma - w * w * a * a * gamma / ((1 - s) * (1 - w) + w)
    boundary = (1 - s + s * w) / (2 - 2 * s - w + 2 * s * w)
    beyond = 0.999 * boundary + 0.01

    def second_order_sides():
        comp = complement(joint)
        out_dec = spectral_decompose(apply_matrix(joint, fam.base.matrix))
        env_dec = spectral_decompose(apply_matrix(comp, fam.base.matrix))
        out = w0_trace(
            out_dec, apply_matrix(joint, fam.a1.matrix), apply_matrix(joint, fam.a2.matrix)
        )
        env = w0_trace(
            env_dec, apply_matrix(comp, fam.a1.matrix), apply_matrix(comp, fam.a2.matrix)
        )
        return out, env

    run_criterion(
        5,
        "platypus-damping second-order closed forms and firing window",
        5.0,
        [
            (
                "output-side value",
                lambda: abs(second_order_sides()[0] - expected_out) <= 1e-10 * abs(expected_out),
            ),
            (
                "environment-side value",
                lambda: abs(second_order_sides()[1] - expected_env) <= 1e-10 * abs(expected_env),
            ),
            (
                "criterion fires at gamma = 0.5",
                lambda: check_criterion(joint, fam, "C2", "positive_f").fires,
            ),
            (
                "criterion fails beyond the boundary",
                lambda: not check_criterion(
                    tensor(platypus_channel(s), amplitude_damping_channel(beyond)),
                    fam,
                    "C2",
                    "positive_f",
                ).fires,
            ),
        ],
    )


def flip_f_closed_form(p, eps):
    """``f(eps)`` in bits for the diagonal flip family under depolarizing(p).

    Output eigenvalues ``a, 1 - a`` with ``a = 1 - p/2 - eps (1 - p)``;
    environment eigenvalues ``q1 (2 - 2 eps)``, ``2 q1 eps`` and the two
    eigenvalues of ``[[q0, sqrt(q0 q1) c], [sqrt(q0 q1) c, q1]]`` with
    ``c = 1 - 2 eps``, the small one taken as det/large against cancellation.
    """
    q0, q1 = 1 - 3 * p / 4, p / 4

    def coherent_bits(e):
        a = 1 - p / 2 - e * (1 - p)
        det = q0 * q1 * 4 * e * (1 - e)
        large = (q0 + q1 + math.sqrt((q0 + q1) ** 2 - 4 * det)) / 2
        env = (q1 * (2 - 2 * e), 2 * q1 * e, large, det / large)
        return shannon_bits((a, 1 - a)) - shannon_bits(env)

    return coherent_bits(eps) - coherent_bits(0.0)


def test_criterion_06_depolarizing_private_gap():
    fam = qubit_flip_family()
    sigma = DensityMatrix.maximally_mixed(2)
    ch = depolarizing_channel(0.1)

    def f_at(eps):
        return FamilyEvaluator(ch, fam).f_values([eps])[0]

    def kernel_trace_matches():
        for p in (0.05, 0.1, 0.2):
            profile = derivative_profile(depolarizing_channel(p), fam)
            expected = p * (3 - 2 * p) / (2 - p)
            if abs(profile.leading_terms["kernel_trace_env"] - expected) > 1e-12:
                return False
        return True

    def gap_detected_with_half():
        report = detect_private_gap(ch, sigma, fam)
        return report.conclusion == "gap_detected" and abs(report.admissible_r - 0.5) <= 1e-4

    def f_matches_closed_form():
        return all(
            abs(f_at(eps) - flip_f_closed_form(0.1, eps)) <= 1e-12 for eps in (1e-3, 1e-7)
        )

    def f_positive_at_milli():
        value = f_at(1e-3)
        print(
            f"    stated f(1e-3) < 0 replaced: f(1e-3) = {value:+.3e} bits "
            f"(closed form {flip_f_closed_form(0.1, 1e-3):+.3e})"
        )
        return value > 0

    def f_negative_below_crossing():
        crossing = brentq(lambda eps: flip_f_closed_form(0.1, eps), 1e-8, 1e-3, xtol=1e-16)
        print(f"    closed-form f changes sign at eps* = {crossing:.3e}")
        below = np.geomspace(1e-8, 0.9 * crossing, 5)
        return all(f_at(eps) < 0 for eps in below) and f_at(1.1 * crossing) > 0

    run_criterion(
        6,
        "depolarizing private-vs-quantum gap via the diagonal flip family",
        5.0,
        [
            ("kernel trace rational form", kernel_trace_matches),
            ("gap detected with r = 1/2", gap_detected_with_half),
            ("f matches the diagonal closed form at 1e-3 and 1e-7", f_matches_closed_form),
            ("f(1e-3) positive at p = 0.1", f_positive_at_milli),
            ("f negative only below eps*", f_negative_below_crossing),
        ],
    )


def test_criterion_07_derivative_oracle_agreement():
    rng = np.random.default_rng(7)

    def agree():
        hits = 0
        attempts = 0
        while hits < 20 and attempts < 200:
            attempts += 1
            d_in = int(rng.integers(2, 4))
            d_out = int(rng.integers(2, 4))
            d_env = int(rng.integers(2, 4))
            ch = random_channel(rng, d_in, d_out, d_env)
            rho = random_density(rng, d_in)
            direction = random_traceless(rng, d_in)
            floor = float(np.linalg.eigvalsh(rho.matrix)[0])
            spread = float(np.abs(np.linalg.eigvalsh(direction.matrix)).max())
            fam = PerturbationFamily.build(
                rho, HermitianOperator.from_matrix(direction.matrix * (floor / spread) * 0.5)
            )
            profile = derivative_profile(ch, fam)
            if profile.rank_case != "both_full":
                continue
            hits += 1
            first = plain_first_derivative_bits(ch.kraus, rho.matrix, fam.a1.matrix, fam.a2.matrix)
            if abs(first) < 1e-8 and abs(profile.fprime0) < 1e-8:
                continue
            if abs(first - profile.fprime0) > 1e-4 * abs(profile.fprime0):
                return False
        return hits == 20

    run_criterion(
        7,
        "finite-difference first derivative matches the analytic profile (20 cases)",
        30.0,
        [("relative agreement 1e-4", agree)],
    )


def test_criterion_08_invariant_suite():
    rng = np.random.default_rng(8)

    def additivity():
        for _ in range(50):
            a = random_channel(rng, 2, 2, 2)
            b = random_channel(rng, 2, int(rng.integers(2, 4)), 2)
            joint = tensor(a, b)
            r1, r2 = random_density(rng, 2), random_density(rng, 2)
            product = DensityMatrix.from_matrix(np.kron(r1.matrix, r2.matrix))
            total = coherent_information(product, joint)
            parts = coherent_information(r1, a) + coherent_information(r2, b)
            if abs(total - parts) > 1e-10:
                return False
        return True

    def pure_inputs_vanish():
        for k in range(100):
            ch = random_channel(rng, 2, 2, 2) if k % 2 else depolarizing_channel(0.3)
            if abs(coherent_information(random_pure(rng, 2), ch)) > 1e-10:
                return False
        return True

    def private_equals_holevo_difference():
        for _ in range(50):
            ch = random_channel(rng, 2, 2, 2)
            comp = complement(ch)
            weights = rng.dirichlet([1.0, 1.0, 1.0])
            ens = Ensemble.build(list(weights), [random_density(rng, 2) for _ in range(3)])
            gap = holevo_information(ens, ch) - holevo_information(ens, comp)
            if abs(private_information(ens, ch) - gap) > 1e-10:
                return False
        return True

    def complement_representation_invariance():
        for _ in range(20):
            ch = random_channel(rng, 2, 2, 2)
            rho = random_density(rng, 2)
            q, _ = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
            padded = make_channel(list(ch.kraus) + [np.zeros((2, 2))])
            mixed = make_channel(
                [sum(q[m, k] * padded.kraus[k] for k in range(3)) for m in range(4)]
            )
            ref = np.linalg.eigvalsh(apply(complement(ch), rho).matrix)
            ref = np.sort(ref[ref > 1e-11])[::-1]
            for other in (padded, mixed):
                got = np.linalg.eigvalsh(apply(complement(other), rho).matrix)
                got = np.sort(got[got > 1e-11])[::-1]
                if len(got) != len(ref) or np.abs(got - ref).max() > 1e-10:
                    return False
        return True

    def sum_rules():
        for _ in range(20):
            dec = spectral_decompose(random_density(rng, 4).matrix)
            a = random_traceless(rng, 4).matrix
            ps = projectors(dec)
            first = sum(np.trace(p.matrix @ a).real for p in ps)
            second = sum(
                np.trace(p.matrix @ a @ reduced_resolvent(dec, i, ps).matrix @ a).real
                for i, p in enumerate(ps)
            )
            if abs(first) > 1e-10 or abs(second) > 1e-9:
                return False
        return True

    run_criterion(
        8,
        "information-measure and spectral invariants",
        60.0,
        [
            ("additivity on products", additivity),
            ("pure inputs vanish", pure_inputs_vanish),
            ("private equals Holevo difference", private_equals_holevo_difference),
            ("complement representation invariance", complement_representation_invariance),
            ("sum rules", sum_rules),
        ],
    )


def test_criterion_09_no_go_at_product_optimum():
    rng = np.random.default_rng(9)
    joint = tensor(depolarizing_channel(0.2), depolarizing_channel(0.2))
    base = DensityMatrix.maximally_mixed(4)

    def never_fires():
        for _ in range(100):
            fam = PerturbationFamily.build(base, random_traceless(rng, 4, scale=0.05))
            if LN2 * derivative_profile(joint, fam).fprime0 > 1e-9:
                return False
        return True

    run_criterion(
        9,
        "first-order classification never fires at the product optimum (100 directions)",
        30.0,
        [("margin below 1e-9", never_fires)],
    )


def test_criterion_10_dephrasure_region():
    p = 0.1
    inside = dephrasure_channel(p, 0.3)
    beyond_q = dephrasure_positive_ic_boundary(p) + 0.02
    beyond = dephrasure_channel(p, beyond_q)

    def primary_positive_inside():
        _, value = optimal_line_search(inside)
        return value > 0

    def complement_route_flag_inside():
        sigma, _ = optimal_line_search(inside)
        report = detect_private_gap_via_complement(inside, sigma)
        return report.conclusion == "gap_detected" and report.criterion_report.lhs > 0

    def primary_flat_beyond():
        _, value = optimal_line_search(beyond)
        return value <= 1e-6

    run_criterion(
        10,
        "dephrasure: gap flag inside the positive region, flat line search beyond it",
        20.0,
        [
            ("primary line search positive", primary_positive_inside),
            ("complement-route gap flag", complement_route_flag_inside),
            ("line-search optimum flat beyond boundary", primary_flat_beyond),
        ],
    )
