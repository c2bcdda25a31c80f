"""Property tests: seeded random channels and families drawn by hypothesis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cohpert import PerturbationFamily, coherent_information, complement
from cohpert.criteria import CRITERIA, _criterion
from cohpert.perturbation import FamilyEvaluator
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
    direct = coherent_information(state, ch).value
    assert coherent_information(state, complement(ch)).value == pytest.approx(-direct, abs=1e-12)
