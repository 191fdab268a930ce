import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distribution_pairs, distributions, random_distribution
from draftwire.dist import (
    Distribution,
    check_temperature,
    l1_distance,
    sample,
    sample_from_uniform,
    softmax_inplace,
)


def softmax(logits, temperature):
    """``softmax_inplace`` over a fresh float64 copy of ``logits``."""
    return softmax_inplace(np.array(logits, dtype=np.float64), temperature)


class TestDistribution:
    def test_valid_vector(self):
        d = Distribution([0.5, 0.3, 0.2])
        assert d.vocab_size == 3
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([0.6, -0.1, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Distribution([0.5, float("nan")])

    def test_renormalizes_within_tolerance(self):
        d = Distribution([0.5, 0.5 + 5e-10])
        assert abs(d.probs.sum() - 1.0) < 1e-15

    def test_sum_just_outside_tolerance_rejected(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.5 + 5e-9])

    def test_immutable(self):
        d = Distribution([0.5, 0.5])
        with pytest.raises(AttributeError):
            d.probs = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_unchecked_preserves_bits(self):
        arr = np.array([0.1, 0.2, 0.7]) / 1.0000000001
        d = Distribution.unchecked(arr.copy())
        assert np.array_equal(d.probs, arr)


class TestSoftmax:
    def test_symmetric_logits_uniform(self):
        d = softmax([0.0, 0.0], 1.0)
        assert d.probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_log_two(self):
        d = softmax([math.log(2.0), 0.0], 1.0)
        assert d.probs == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_low_temperature_sharpens(self):
        d = softmax([1.0, 0.0], 0.5)
        e2 = math.exp(2.0)
        assert d.probs == pytest.approx([e2 / (e2 + 1), 1 / (e2 + 1)], abs=1e-12)
        assert d.probs[0] > softmax([1.0, 0.0], 1.0).probs[0]

    @pytest.mark.parametrize("temp", [0.0, -1.0, float("nan"), float("inf"), -float("inf"),
                                      -1e-320])
    def test_rejects_bad_temperature(self, temp):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            softmax([1.0, 0.0], temp)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            check_temperature(temp)

    @pytest.mark.parametrize("temp", [1e-320, 5e-324, 1e-300])
    def test_tiny_temperature_is_the_zero_limit_without_a_warning(self, temp):
        # a logit gap over T overflows to -inf: weight 0, the argmax keeps it
        # all; the overflow is the intended limit, so nothing is reported
        logits = np.array([0.5, -3.0, 2.0, 2.0 - 1e-9, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = softmax_inplace(logits, temp)
        assert d.probs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_rejects_non_finite_logits(self):
        with pytest.raises(ValueError):
            softmax([float("inf"), 0.0], 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_each_non_finite_logit(self, bad, at):
        logits = [0.5, -1.0, 2.0]
        logits[at] = bad
        for temp in (1.0, 0.7):
            with pytest.raises(ValueError, match="logits must be finite"):
                softmax(logits, temp)

    def test_preserves_ranking(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            logits = rng.normal(size=16) * 5.0
            for temp in (0.3, 1.0, 2.5):
                d = softmax(logits, temp)
                assert abs(d.probs.sum() - 1.0) < 1e-9
                # Strictly ordered logits must stay strictly ordered.
                order = np.argsort(logits, kind="stable")
                assert np.all(np.diff(d.probs[order]) >= 0.0)


    @settings(deadline=None)
    @given(
        logits=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=64),
        temp=st.sampled_from([0.25, 0.8, 1.0, 1.3, 4.0]),
    )
    def test_in_place_softmax_matches_out_of_place_oracle(self, logits, temp):
        arr = np.asarray(logits, dtype=np.float64)
        before = arr.copy()
        d = softmax_inplace(arr, temp)
        assert np.shares_memory(d.probs, arr)  # the handed-over array is the storage
        assert not d.probs.flags.writeable
        exps = np.exp((before - before.max()) / temp)
        assert d.probs.tobytes() == (exps / exps.sum()).tobytes()


class TestDistances:
    def test_identity_zero(self):
        d = Distribution([0.4, 0.6])
        assert l1_distance(d, d) == 0.0

    def test_disjoint_support_maximum(self):
        a = Distribution([1.0, 0.0])
        b = Distribution([0.0, 1.0])
        assert l1_distance(a, b) == 2.0

    def test_hand_value(self):
        a = Distribution([0.5, 0.3, 0.15, 0.05])
        b = Distribution([0.625, 0.375, 0.0, 0.0])
        assert l1_distance(a, b) == pytest.approx(0.4, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance(Distribution([0.5, 0.5]), Distribution([1 / 3] * 3))

    @given(distribution_pairs())
    def test_tv_identities(self, pair):
        a, b = pair
        # total variation, l1 / 2, is one minus the overlap
        min_sum = float(np.minimum(a.probs, b.probs).sum())
        assert l1_distance(a, b) / 2.0 == pytest.approx(1.0 - min_sum, abs=1e-12)

    def test_tv_min_identity_large_corpus(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            size = int(rng.integers(2, 40))
            a = random_distribution(rng, size, sparsity=0.3)
            b = random_distribution(rng, size, sparsity=0.3)
            tv = l1_distance(a, b) / 2.0
            assert abs(tv - (1.0 - np.minimum(a.probs, b.probs).sum())) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            size = int(rng.integers(2, 20))
            a, b, c = (random_distribution(rng, size, sparsity=0.2) for _ in range(3))
            assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-12


class TestSampling:
    def test_point_mass(self):
        d = Distribution([1.0, 0.0, 0.0])
        for u in (0.0, 0.5, 0.999999):
            assert sample_from_uniform(d, u) == 0

    def test_cdf_boundary(self):
        d = Distribution([0.5, 0.5])
        assert sample_from_uniform(d, 0.75) == 1
        assert sample_from_uniform(d, 0.49) == 0
        # u exactly at the boundary belongs to the next token
        assert sample_from_uniform(d, 0.5) == 1

    def test_never_returns_zero_probability_token(self):
        d = Distribution([0.5, 0.0, 0.5])
        for u in np.linspace(0.0, 0.999999, 101):
            tok = sample_from_uniform(d, float(u))
            assert d.probs[tok] > 0.0

    def test_rejects_out_of_range_uniform(self):
        d = Distribution([0.5, 0.5])
        for u in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                sample_from_uniform(d, u)

    @given(distributions(), st.floats(min_value=0.0, max_value=0.999999))
    def test_pure_function_of_inputs(self, d, u):
        assert sample_from_uniform(d, u) == sample_from_uniform(d, u)
        assert d.probs[sample_from_uniform(d, u)] > 0.0

    def test_monte_carlo_frequencies(self):
        d = Distribution([0.2, 0.3, 0.5])
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            counts[sample(d, rng)] += 1
        assert np.all(np.abs(counts / n - d.probs) < 0.01)


@settings(deadline=None)
@given(
    logits=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=64),
    temp=st.sampled_from([1.0, 0.25, 0.8, 1.3, 4.0]),
)
def test_softmax_in_place_matches_out_of_place_oracle(logits, temp):
    """The buffer handed to ``softmax_inplace`` becomes the distribution, and
    every float equals the out-of-place ``arr - max; / T; exp; / sum``, the
    division at T = 1 included."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max()
    shifted = shifted / temp
    exps = np.exp(shifted)
    want = exps / exps.sum()
    d = softmax_inplace(arr, temp)
    assert d.probs is arr
    assert not arr.flags.writeable
    assert d.probs.tobytes() == want.tobytes()
