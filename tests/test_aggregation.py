import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distribution
from draftwire.aggregation import (
    TopKProfile,
    WeightVector,
    aggregate,
    aggregate_compressed,
    weighted_sum,
)
from draftwire.compression import (
    Strategy,
    TopKPayload,
    decode_payload,
    encode_payload,
    mass_split,
    reconstruct,
    truncate_topk,
)
from draftwire.dist import Distribution
from draftwire.metrics import ShadowBlock

P1 = Distribution([0.5, 0.3, 0.15, 0.05])
P2 = Distribution([0.1, 0.2, 0.3, 0.4])


class TestWeights:
    def test_uniform(self):
        w = WeightVector.uniform(4)
        assert w.weights == pytest.approx([0.25] * 4, abs=1e-15)

    def test_values_kept_bitwise(self):
        w = WeightVector([0.3, 0.7])
        assert w.weights[0] == 0.3 and w.weights[1] == 0.7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightVector([1.2, -0.2])

    def test_sum_enforced_not_repaired(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.6])
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.5 - 1e-9])
        # inside tolerance: accepted and untouched
        w = WeightVector([0.5, 0.5 - 1e-13])
        assert w.weights[1] == 0.5 - 1e-13

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightVector([])

    def test_len_and_indexing(self):
        w = WeightVector([0.25, 0.75])
        assert len(w) == 2
        assert w[1] == 0.75


class TestTopKProfile:
    def test_homogeneous(self):
        prof = TopKProfile.homogeneous(3, 2, 8)
        assert prof.ks == (3, 3)
        assert len(prof) == 2 and prof[0] == 3

    def test_heterogeneous(self):
        prof = TopKProfile((1, 4, 8), 8)
        assert prof.ks == (1, 4, 8)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            TopKProfile((0, 2), 8)
        with pytest.raises(ValueError):
            TopKProfile((9,), 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TopKProfile((), 8)


class TestAggregate:
    def test_single_worker_identity(self):
        out = aggregate([P1], WeightVector([1.0]))
        assert np.array_equal(out.probs, P1.probs)

    def test_two_worker_hand_value(self):
        a = Distribution([0.3, 0.7])
        b = Distribution([0.5, 0.5])
        out = aggregate([a, b], WeightVector.uniform(2))
        assert out.probs == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_worked_example_exact_average(self):
        out = aggregate([P1, P2], WeightVector.uniform(2))
        assert out.probs == pytest.approx([0.3, 0.25, 0.225, 0.225], abs=1e-15)

    def test_weighted(self):
        out = aggregate([P1, P2], WeightVector([0.75, 0.25]))
        expect = 0.75 * P1.probs + 0.25 * P2.probs
        assert out.probs == pytest.approx(expect, abs=1e-15)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            aggregate([P1], WeightVector.uniform(2))

    def test_vocab_mismatch(self):
        with pytest.raises(ValueError):
            aggregate([P1, Distribution([0.5, 0.5])], WeightVector.uniform(2))

    def test_matches_numpy_average(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            size = int(rng.integers(2, 20))
            dists = [random_distribution(rng, size) for _ in range(m)]
            raw = rng.random(m) + 0.01
            w = raw / raw.sum()
            w[-1] = 1.0 - w[:-1].sum()  # force exact unit sum
            out = aggregate(dists, WeightVector(w))
            ref = np.average([d.probs for d in dists], axis=0, weights=w)
            assert np.max(np.abs(out.probs - ref)) < 1e-12
            assert abs(out.probs.sum() - 1.0) < 1e-9

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(41)
        dists = [random_distribution(rng, 50) for _ in range(5)]
        w = WeightVector.uniform(5)
        a = aggregate(dists, w)
        b = aggregate(dists, w)
        assert np.array_equal(a.probs, b.probs)


class TestAggregateCompressed:
    """Frozen k=2 reconstructions for the two-worker example above."""

    def payloads(self):
        return [truncate_topk(P1, 2), truncate_topk(P2, 2)]

    def test_renormalized_reconstructions(self):
        p1, p2 = self.payloads()
        r1 = reconstruct(p1, Strategy.RENORMALIZED)
        r2 = reconstruct(p2, Strategy.RENORMALIZED)
        assert r1.probs == pytest.approx([0.625, 0.375, 0.0, 0.0], abs=1e-15)
        assert r2.probs == pytest.approx([0.0, 0.0, 3 / 7, 4 / 7], abs=1e-15)

    def test_renormalized_aggregate(self):
        out = aggregate_compressed(self.payloads(), WeightVector.uniform(2),
                                   Strategy.RENORMALIZED)
        assert out.probs == pytest.approx([0.3125, 0.1875, 3 / 14, 2 / 7], abs=1e-12)

    def test_residual_uniform_reconstructions(self):
        p1, p2 = self.payloads()
        r1 = reconstruct(p1, Strategy.RESIDUAL_UNIFORM)
        r2 = reconstruct(p2, Strategy.RESIDUAL_UNIFORM)
        assert r1.probs == pytest.approx([0.5, 0.3, 0.1, 0.1], abs=1e-15)
        # worker 2 keeps {2: 0.3, 3: 0.4}; eps=0.3 spread over tokens 0 and 1
        assert r2.probs == pytest.approx([0.15, 0.15, 0.3, 0.4], abs=1e-15)

    def test_residual_uniform_aggregate(self):
        out = aggregate_compressed(self.payloads(), WeightVector.uniform(2),
                                   Strategy.RESIDUAL_UNIFORM)
        assert out.probs == pytest.approx([0.325, 0.225, 0.2, 0.25], abs=1e-12)

    def test_matches_manual_composition_bitwise(self):
        rng = np.random.default_rng(42)
        for strategy in Strategy:
            for _ in range(100):
                m = int(rng.integers(1, 5))
                size = int(rng.integers(2, 16))
                dists = [random_distribution(rng, size) for _ in range(m)]
                ks = [int(rng.integers(1, size + 1)) for _ in range(m)]
                payloads = [truncate_topk(d, k) for d, k in zip(dists, ks)]
                w = WeightVector.uniform(m)
                combined = aggregate_compressed(payloads, w, strategy)
                manual = aggregate([reconstruct(p, strategy) for p in payloads], w)
                assert np.array_equal(combined.probs, manual.probs)

    def test_lossless_profile_matches_uncompressed(self):
        rng = np.random.default_rng(43)
        for strategy in Strategy:
            dists = [random_distribution(rng, 12) for _ in range(3)]
            payloads = [truncate_topk(d, 12) for d in dists]
            w = WeightVector([0.2, 0.5, 0.3])
            out = aggregate_compressed(payloads, w, strategy)
            ref = aggregate(dists, w)
            assert np.array_equal(out.probs, ref.probs)

    def test_output_is_valid_distribution(self):
        rng = np.random.default_rng(44)
        for strategy in Strategy:
            for _ in range(200):
                m = int(rng.integers(1, 6))
                size = int(rng.integers(2, 24))
                payloads = [
                    truncate_topk(random_distribution(rng, size, sparsity=0.3),
                                  int(rng.integers(1, size + 1)))
                    for _ in range(m)
                ]
                out = aggregate_compressed(payloads, WeightVector.uniform(m), strategy)
                assert np.all(out.probs >= 0.0)
                assert abs(out.probs.sum() - 1.0) < 1e-9

    def test_vocab_mismatch_rejected(self):
        payloads = [truncate_topk(P1, 2), truncate_topk(Distribution([0.5, 0.5]), 1)]
        with pytest.raises(ValueError):
            aggregate_compressed(payloads, WeightVector.uniform(2), Strategy.RENORMALIZED)


@st.composite
def worker_payload(draw, size):
    """One worker's payload over ``size`` tokens: from a smooth or a
    tie-heavy row, at k = 1, k = |V| or any k, and optionally through the
    f32 wire, rescaled first so that its mass exceeds 1."""
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    else:
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)
                   .filter(lambda xs: sum(xs) > 1e-6))
    w = np.asarray(raw, dtype=np.float64)
    k = draw(st.one_of(st.just(1), st.just(size), st.integers(1, size)))
    payload = truncate_topk(Distribution(w / w.sum()), k)
    wire = draw(st.sampled_from(["none", "f32", "overfull"]))
    if wire == "overfull":
        scale = (1.0 + 4e-6) / mass_split(payload).rho
        payload = TopKPayload.unchecked(size, payload.ids.copy(), payload.probs * scale)
    if wire != "none":
        payload = decode_payload(encode_payload(payload))
    return payload


@st.composite
def payload_sets(draw):
    size = draw(st.integers(2, 24))
    m = draw(st.integers(1, 4))
    payloads = [draw(worker_payload(size)) for _ in range(m)]
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=m, max_size=m)
               .filter(any))
    w = np.asarray(raw, dtype=np.float64)
    return payloads, WeightVector(w / w.sum())


class TestScatterMatchesDenseOracle:
    """``aggregate_compressed`` scatters payloads into one array; the oracle
    rebuilds every payload densely with ``reconstruct`` and averages the
    results with ``aggregate``. Every float must be equal, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(payload_sets(), st.sampled_from(list(Strategy)))
    def test_bit_identical(self, case, strategy):
        payloads, w = case
        got = aggregate_compressed(payloads, w, strategy).probs
        want = aggregate([reconstruct(p, strategy) for p in payloads], w).probs
        assert got.tobytes() == want.tobytes()

    def test_overfull_wire_payload_clamps_epsilon(self):
        # f32 probabilities summing past 1: epsilon clamps to 0, so the
        # residual-uniform tail is exactly 0
        body = np.array([4, 2], dtype="<u4").tobytes() + np.array(
            [(0, 0.6000025), (1, 0.4000001)], dtype=[("id", "<u4"), ("p", "<f4")]).tobytes()
        p = decode_payload(body)
        assert mass_split(p).rho > 1.0 and mass_split(p).epsilon == 0.0
        for strategy in Strategy:
            got = aggregate_compressed([p], WeightVector([1.0]), strategy).probs
            want = aggregate([reconstruct(p, strategy)], WeightVector([1.0])).probs
            assert got.tobytes() == want.tobytes()
            assert got[2] == got[3] == 0.0

    def test_unknown_strategy_and_empty_payload_list_rejected(self):
        with pytest.raises(ValueError, match="unknown reconstruction strategy"):
            aggregate_compressed([truncate_topk(P1, 2)], WeightVector([1.0]), 3)
        with pytest.raises(ValueError):
            aggregate_compressed([], WeightVector([1.0]), Strategy.RENORMALIZED)


# The four dense sums that ``weighted_sum`` replaced, kept verbatim as
# oracles: each must give its floats bit for bit.


def old_aggregate(dists, w):
    """``aggregation.aggregate``'s sum."""
    size = dists[0].vocab_size
    out = np.zeros(size, dtype=np.float64)
    for i, d in enumerate(dists):
        out += w.weights[i] * d.probs
    return out


def old_shadow_block(exact, w):
    """``metrics.ShadowBlock.__init__``'s exact slot M."""
    m = len(w)
    p_exact = np.multiply(exact[0], w[0], out=exact[m])
    for i in range(1, m):
        p_exact += exact[i] * w[i]
    return p_exact


def old_score_block(recon, w):
    """``metrics.score_block``'s compressed slot M."""
    m = len(w)
    p_comp = np.multiply(recon[:, 0], w[0], out=recon[:, m])
    for i in range(1, m):
        p_comp += recon[:, i] * w[i]
    return p_comp


def old_weighted_epsilons(epsilons, w):
    """``metrics._weighted_sum``: sum_i w_i eps_i per position."""
    weighted = epsilons[:, 0] * w[0]
    for i in range(1, len(w)):
        weighted += epsilons[:, i] * w[i]
    return weighted


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# non-negative values with zeros, ties and tiny values among them
VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 0.25]),
                   st.floats(0.0, 1.0))


@st.composite
def worker_rows(draw):
    """(rows, w): rows of shape (strategies, M, positions, |V|) and weights,
    some of them zero."""
    m = draw(st.integers(1, 5))
    shape = (2, m, draw(st.integers(1, 2)), draw(st.integers(2, 6)))
    values = draw(st.lists(VALUES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    raw = draw(st.lists(st.one_of(st.just(0), st.integers(1, 9)), min_size=m, max_size=m)
               .filter(any))
    return np.array(values).reshape(shape), WeightVector([r / sum(raw) for r in raw])


class TestWeightedSum:
    """``weighted_sum`` against each sum it replaced, at the call each
    caller makes, compared as uint64 views."""

    @settings(max_examples=200, deadline=None)
    @given(worker_rows())
    def test_bit_identical_to_every_replaced_sum(self, case):
        rows, w = case
        _, m, positions, size = rows.shape

        dists = [Distribution.unchecked(row) for row in rows[0, :, 0]]
        want = bits(old_aggregate(dists, w))
        assert np.array_equal(bits(weighted_sum([d.probs for d in dists], w)), want)
        assert np.array_equal(bits(aggregate(dists, w).probs), want)

        exact = np.empty((m + 1, positions, size))
        exact[:m] = rows[0]
        want = bits(old_shadow_block(exact.copy(), w))
        assert np.array_equal(bits(weighted_sum(exact[:m], w, out=exact[m])), want)
        block = ShadowBlock([[Distribution.unchecked(r) for r in worker] for worker in rows[0]],
                            [], w)
        assert np.array_equal(bits(block.exact[m]), want)

        recon = np.empty((2, m + 1, positions, size))
        recon[:, :m] = rows
        want = bits(old_score_block(recon.copy(), w))
        got = weighted_sum(recon[:, :m].swapaxes(0, 1), w, out=recon[:, m])
        assert np.array_equal(bits(got), want)

        epsilons = np.ascontiguousarray(rows[0, :, :, 0].T)  # (positions, M)
        want = bits(old_weighted_epsilons(epsilons, w))
        assert np.array_equal(bits(weighted_sum(epsilons.T, w)), want)

    def test_writes_into_out_and_returns_it(self):
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = np.empty(2)
        assert weighted_sum(rows, WeightVector([0.5, 0.5]), out=out) is out
        assert out.tolist() == [0.375, 0.625]
