"""Property tests: seeded random channels and families drawn by hypothesis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cohpert import DensityMatrix, PerturbationFamily, coherent_information, complement, derivative_profile
from cohpert.criteria import CRITERIA, _criterion
from cohpert.perturbation import RANK_BOTH_FULL, FamilyEvaluator
from conftest import random_channel, random_density, random_traceless

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)

seeds = st.integers(0, 2 ** 32 - 1)
shapes = st.sampled_from([(2, 2, 2), (2, 3, 2), (2, 2, 1), (3, 3, 2), (3, 2, 3)])
ranks = st.sampled_from(["full", "pure", "deficient"])


def _channel_and_state(seed, shape, rank):
    rng = np.random.default_rng(seed)
    d_in = shape[0]
    ch = random_channel(rng, *shape)
    state = random_density(rng, d_in, {"full": d_in, "pure": 1, "deficient": max(1, d_in - 1)}[rank])
    return rng, ch, state


@PROPERTY_SETTINGS
@given(seed=seeds, shape=shapes, rank=ranks, scale=st.sampled_from([1e-6, 0.1, 1.0]))
def test_negative_sense_swaps_sides_and_negates_margin(seed, shape, rank, scale):
    rng, ch, base = _channel_and_state(seed, shape, rank)
    fam = PerturbationFamily.build(
        base, random_traceless(rng, shape[0], scale), random_traceless(rng, shape[0], 0.05)
    )
    ev = FamilyEvaluator(ch, fam)
    for name in CRITERIA:
        pos, neg = _criterion(ev, name, "positive_f"), _criterion(ev, name, "negative_f")
        assert (neg.lhs, neg.rhs) == (pos.rhs, pos.lhs)
        assert neg.margin == -pos.margin
        assert (neg.criterion, neg.first_order_checks) == (pos.criterion, pos.first_order_checks)
        assert not (pos.fires and neg.fires)


@PROPERTY_SETTINGS
@given(seed=seeds, shape=shapes, rank=ranks)
def test_complement_negates_coherent_information(seed, shape, rank):
    _, ch, state = _channel_and_state(seed, shape, rank)
    direct = coherent_information(state, ch)
    assert coherent_information(state, complement(ch)) == pytest.approx(-direct, abs=1e-12)


@PROPERTY_SETTINGS
@given(seed=seeds, shape=st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 3, 2), (3, 2, 3)]))
def test_f_values_follow_the_derivative_profile(seed, shape):
    # with both outputs full rank, f(eps) = f'(0) eps + f''(0) eps^2 / 2 + O(eps^3),
    # so the remainder over eps^3 reads the same at eps and eps / 2; an error d in
    # f'(0) would move the two readings 3e6 d apart, one in f''(0) 500 d apart
    rng = np.random.default_rng(seed)
    d_in = shape[0]
    ch = random_channel(rng, *shape)
    base = DensityMatrix.from_matrix(0.5 * random_density(rng, d_in).matrix + 0.5 * np.eye(d_in) / d_in)
    fam = PerturbationFamily.build(base, random_traceless(rng, d_in, 0.05), random_traceless(rng, d_in, 0.05))
    profile = derivative_profile(ch, fam)
    assert profile.rank_case == RANK_BOTH_FULL
    eps = np.array([1e-3, 5e-4])
    remainder = FamilyEvaluator(ch, fam).f_values(eps) - (
        profile.fprime0 * eps + profile.fsecond0 * eps ** 2 / 2.0
    )
    third = remainder / eps ** 3
    assert abs(third[0] - third[1]) <= 1e-3 * max(1.0, abs(third[0]))
