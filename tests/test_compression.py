import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distributions, random_distribution
from draftwire.compression import (
    PRE_WIRE_TOLERANCE,
    DuplicateTokenError,
    EntryOrderError,
    PayloadError,
    PayloadHeaderError,
    ProbabilityValueError,
    Strategy,
    TokenRangeError,
    TopKPayload,
    TruncatedPayloadError,
    _payload_order,
    decode_payload,
    encode_payload,
    mass_split,
    reconstruct,
    reconstructions,
    truncate_topk,
)
from draftwire.dist import Distribution, l1_distance

SOURCE = Distribution([0.5, 0.3, 0.15, 0.05])


def _reference_topk(d, k):
    """Independent oracle: full stable sort by (probability desc, id asc)."""
    return np.lexsort((np.arange(d.vocab_size), -d.probs))[:k]


def _assert_matches_reference(d, k):
    ids = _reference_topk(d, k)
    p = truncate_topk(d, k)
    np.testing.assert_array_equal(p.ids, ids)
    np.testing.assert_array_equal(p.probs, d.probs[ids])
    _assert_passes_validation(p)


def _assert_passes_validation(p):
    """truncate_topk skips the payload checks; the validating constructor
    must accept its output unchanged."""
    checked = TopKPayload(p.vocab_size, p.ids, p.probs, tol=PRE_WIRE_TOLERANCE)
    assert checked.vocab_size == p.vocab_size
    for got, want in ((checked.ids, p.ids), (checked.probs, p.probs)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert not p.ids.flags.writeable and not p.probs.flags.writeable


def _all_tie_split_ks(d):
    """Every k whose cut falls inside a group of tied probabilities."""
    ranked = d.probs[_reference_topk(d, d.vocab_size)]
    return [int(k) for k in np.flatnonzero(ranked[:-1] == ranked[1:]) + 1]


def _tie_split_ks(d, rng, n=3):
    """Up to n values of k whose cut falls inside a group of tied probabilities."""
    splits = _all_tie_split_ks(d)
    if not splits:
        return []
    return [int(k) for k in rng.choice(splits, size=min(n, len(splits)), replace=False)]


def _body(vocab_size, ids, probs):
    """A payload body written field by field, with no checks."""
    rec = np.zeros(len(ids), dtype=[("id", "<u4"), ("p", "<f4")])
    rec["id"] = ids
    rec["p"] = probs
    return np.array([vocab_size, len(ids)], dtype="<u4").tobytes() + rec.tobytes()


class TestTruncate:
    def test_two_largest(self):
        p = truncate_topk(SOURCE, 2)
        assert p.entries == [(0, 0.5), (1, 0.3)]
        assert p.vocab_size == 4

    def test_tie_break_lowest_ids(self):
        p = truncate_topk(Distribution([0.25] * 4), 2)
        assert p.entries == [(0, 0.25), (1, 0.25)]

    def test_lossless_limit(self):
        p = truncate_topk(SOURCE, 4)
        assert p.k == 4
        assert mass_split(p).rho == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            truncate_topk(SOURCE, k)

    def test_probabilities_copied_exactly(self):
        p = truncate_topk(SOURCE, 3)
        assert list(p.probs) == [0.5, 0.3, 0.15]

    def test_topk_property_against_source(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            size = int(rng.integers(2, 30))
            d = random_distribution(rng, size, sparsity=0.4)
            k = int(rng.integers(1, size + 1))
            p = truncate_topk(d, k)
            outside = np.setdiff1d(np.arange(size), p.ids)
            if outside.size:
                assert d.probs[outside].max() <= p.probs.min() + 0.0

    @pytest.mark.parametrize("size", [2, 3, 5, 17, 100, 1000, 4096])
    def test_matches_full_sort_reference(self, size):
        rng = np.random.default_rng(size)
        inputs = [
            np.ones(size),  # all equal
            rng.integers(0, 4, size),  # tie-heavy, with exact zeros
            rng.integers(0, 2, size),  # mostly two tie groups, half zeros
            rng.random(size) * (rng.random(size) < 0.5),  # distinct values plus zeros
        ]
        for weights in inputs:
            weights = weights.astype(np.float64)
            if weights.sum() == 0.0:
                weights[0] = 1.0
            d = Distribution(weights / weights.sum())
            ks = {1, size - 1, size, int(rng.integers(1, size + 1))}
            ks.update(_tie_split_ks(d, rng))
            for k in sorted(ks):
                _assert_matches_reference(d, k)

    def test_matches_full_sort_reference_large_vocab(self):
        rng = np.random.default_rng(32000)
        logits = np.round(rng.normal(size=32000) * 4.0) / 4.0  # many ties
        weights = np.exp(logits - logits.max())
        d = Distribution(weights / weights.sum())
        ks = {1, 64, 31999, 32000}
        ks.update(_tie_split_ks(d, rng))
        for k in sorted(ks):
            _assert_matches_reference(d, k)

    @given(distributions(min_size=2, max_size=40), st.data())
    def test_matches_full_sort_reference_property(self, d, data):
        k = data.draw(st.integers(min_value=1, max_value=d.vocab_size))
        _assert_matches_reference(d, k)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=64).filter(any), st.data())
    def test_tie_heavy_output_passes_validation_property(self, weights, data):
        # small integer weights: all-equal runs, tie groups and exact zeros;
        # k at the edges or cutting inside a tie group
        w = np.asarray(weights, dtype=np.float64)
        d = Distribution(w / w.sum())
        n = d.vocab_size
        k = data.draw(st.sampled_from(sorted({1, n - 1, n, *_all_tie_split_ks(d)})))
        _assert_matches_reference(d, k)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=64).filter(any))
    def test_every_k_of_a_tie_heavy_row_matches_full_sort_reference(self, weights):
        # one p >= v pass keeps the ties at the cut; the lowest tied ids fill it
        w = np.asarray(weights, dtype=np.float64)
        d = Distribution(w / w.sum())
        for k in range(1, d.vocab_size + 1):
            _assert_matches_reference(d, k)

    @given(st.data())
    def test_every_k_matches_full_sort_reference_with_and_without_ties(self, data):
        # distinct values take the one-argsort order; one planted tie, or a
        # run of zeros, takes the tie fallback at every k: with the tie kept,
        # at the top-k threshold, and below it
        weights = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=2,
                                              max_size=64, unique=True)), dtype=np.float64)
        n = weights.size
        ties = 0
        case = data.draw(st.sampled_from(["distinct", "one tie", "zeros"]))
        if case == "one tie":
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            weights[j] = weights[i]
            ties = 1
        elif case == "zeros":
            zeros = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                                       unique=True))
            weights[zeros] = 0.0
            ties = len(zeros) - 1
        d = Distribution(weights / weights.sum())
        ranked = np.sort(d.probs)
        assert np.count_nonzero(ranked[1:] == ranked[:-1]) == ties
        for k in range(1, n + 1):
            _assert_matches_reference(d, k)

    @staticmethod
    def _assert_prefix_is_truncation(d, wide, narrow):
        """The first ``narrow`` entries of the top-``wide`` payload are the
        top-``narrow`` payload, bit for bit and dtype for dtype."""
        full, cut = truncate_topk(d, wide), truncate_topk(d, narrow)
        for got, want in ((full.ids[:narrow], cut.ids), (full.probs[:narrow], cut.probs)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(distributions(min_size=2, max_size=40), st.data())
    def test_prefix_of_wider_payload_is_narrower_truncation(self, d, data):
        wide = data.draw(st.integers(min_value=1, max_value=d.vocab_size))
        narrow = data.draw(st.integers(min_value=1, max_value=wide))
        self._assert_prefix_is_truncation(d, wide, narrow)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=64).filter(any), st.data())
    def test_prefix_of_wider_payload_is_narrower_truncation_with_ties(self, weights, data):
        w = np.asarray(weights, dtype=np.float64)
        d = Distribution(w / w.sum())
        ks = sorted({1, d.vocab_size, *_all_tie_split_ks(d)})
        wide = data.draw(st.sampled_from(ks))
        narrow = data.draw(st.sampled_from([k for k in ks if k <= wide]))
        self._assert_prefix_is_truncation(d, wide, narrow)

    def test_epsilon_monotone_in_k(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = random_distribution(rng, 24, sparsity=0.2)
            eps = [mass_split(truncate_topk(d, k)).epsilon for k in range(1, 25)]
            assert all(a >= b - 1e-15 for a, b in zip(eps, eps[1:]))
            assert eps[-1] <= 1e-12  # float summation noise only


class TestPayloadValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateTokenError):
            TopKPayload(4, [1, 1], [0.5, 0.3])

    def test_out_of_range_id_rejected(self):
        with pytest.raises(TokenRangeError):
            TopKPayload(4, [0, 9], [0.5, 0.3])

    def test_increasing_probs_rejected(self):
        with pytest.raises(EntryOrderError):
            TopKPayload(4, [0, 1], [0.3, 0.5])

    def test_tie_order_by_id(self):
        with pytest.raises(EntryOrderError):
            TopKPayload(4, [2, 1], [0.3, 0.3])
        TopKPayload(4, [1, 2], [0.3, 0.3])  # valid

    def test_negative_prob_rejected(self):
        with pytest.raises(ProbabilityValueError):
            TopKPayload(4, [0, 1], [0.5, -0.1])

    def test_mass_bounds(self):
        with pytest.raises(ProbabilityValueError):
            TopKPayload(4, [0], [0.0])
        with pytest.raises(ProbabilityValueError):
            TopKPayload(4, [0, 1], [0.8, 0.7])

    @staticmethod
    def _old_checks(vocab_size, ids, probs, tol):
        """The validation as first written, one numpy pass per check: the
        oracle for which check fails first and with what message."""
        ids_arr = np.asarray(ids, dtype=np.int64)
        probs_arr = np.asarray(probs, dtype=np.float64)
        if ids_arr.ndim != 1 or probs_arr.shape != ids_arr.shape:
            raise PayloadError("ids and probs must be 1-D arrays of equal length")
        k = int(ids_arr.shape[0])
        if vocab_size < 2:
            raise PayloadHeaderError(f"vocab_size must be >= 2, got {vocab_size}")
        if not 1 <= k <= vocab_size:
            raise PayloadHeaderError(f"k={k} out of range [1, {vocab_size}]")
        if np.any(ids_arr < 0) or np.any(ids_arr >= vocab_size):
            raise TokenRangeError("token id outside [0, vocab_size)")
        if np.unique(ids_arr).size != k:
            raise DuplicateTokenError("duplicate token ids in payload")
        if not np.all(np.isfinite(probs_arr)) or np.any(probs_arr < 0.0):
            raise ProbabilityValueError("probabilities must be finite and non-negative")
        diffs = np.diff(probs_arr)
        if np.any(diffs > 0.0):
            raise EntryOrderError("probabilities must be non-increasing")
        if np.any((diffs == 0.0) & (np.diff(ids_arr) <= 0)):
            raise EntryOrderError("tied probabilities must be ordered by ascending token id")
        total = float(probs_arr.sum())
        if total <= 0.0 or total > 1.0 + tol:
            raise ProbabilityValueError(f"retained mass {total!r} outside (0, 1 + {tol}]")

    @staticmethod
    def _outcome(check, *args):
        try:
            check(*args)
        except PayloadError as exc:
            return type(exc), str(exc)
        return None

    @given(
        vocab_size=st.integers(1, 8),
        entries=st.lists(
            st.tuples(st.integers(-1, 8),
                      st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 0.7, 1.0, -0.1,
                                       float("nan"), float("inf"), -float("inf")])),
            max_size=6),
    )
    def test_same_verdict_as_one_pass_per_check(self, vocab_size, entries):
        ids = [i for i, _ in entries]
        probs = [p for _, p in entries]
        tol = PRE_WIRE_TOLERANCE
        want = self._outcome(self._old_checks, vocab_size, ids, probs, tol)
        assert self._outcome(TopKPayload, vocab_size, ids, probs) == want

    def test_immutable(self):
        p = truncate_topk(SOURCE, 2)
        with pytest.raises(AttributeError):
            p.vocab_size = 9


class TestMassSplit:
    def test_hand_value(self):
        split = mass_split(truncate_topk(SOURCE, 2))
        assert split.rho == pytest.approx(0.8, abs=1e-15)
        assert split.epsilon == pytest.approx(0.2, abs=1e-15)

    def test_lossless(self):
        split = mass_split(truncate_topk(SOURCE, 4))
        assert split.epsilon == 0.0

    def test_uniform_half(self):
        split = mass_split(truncate_topk(Distribution([0.25] * 4), 2))
        assert split.rho == pytest.approx(0.5, abs=1e-15)
        assert split.epsilon == pytest.approx(0.5, abs=1e-15)

    def test_rho_plus_epsilon_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            d = random_distribution(rng, 16, sparsity=0.3)
            split = mass_split(truncate_topk(d, int(rng.integers(1, 17))))
            assert abs(split.rho + split.epsilon - 1.0) < 1e-12
            assert split.epsilon >= 0.0


class TestReconstructRenormalized:
    def test_hand_value(self):
        out = reconstruct(truncate_topk(SOURCE, 2), Strategy.RENORMALIZED)
        assert out.probs == pytest.approx([0.625, 0.375, 0.0, 0.0], abs=1e-15)

    def test_lossless_identity_bitwise(self):
        out = reconstruct(truncate_topk(SOURCE, 4), Strategy.RENORMALIZED)
        assert np.array_equal(out.probs, SOURCE.probs)

    def test_point_mass(self):
        out = reconstruct(TopKPayload(3, [2], [1.0]), Strategy.RENORMALIZED)
        assert list(out.probs) == [0.0, 0.0, 1.0]

    def test_off_set_tokens_exactly_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = random_distribution(rng, 12)
            p = truncate_topk(d, 5)
            out = reconstruct(p, Strategy.RENORMALIZED)
            outside = np.setdiff1d(np.arange(12), p.ids)
            assert np.all(out.probs[outside] == 0.0)
            assert abs(out.probs.sum() - 1.0) < 1e-9


class TestReconstructResidualUniform:
    def test_hand_value(self):
        out = reconstruct(truncate_topk(SOURCE, 2), Strategy.RESIDUAL_UNIFORM)
        assert out.probs == pytest.approx([0.5, 0.3, 0.1, 0.1], abs=1e-15)

    def test_zero_epsilon_zero_tail(self):
        p = TopKPayload(4, [0, 1], [0.6, 0.4])
        out = reconstruct(p, Strategy.RESIDUAL_UNIFORM)
        assert list(out.probs) == [0.6, 0.4, 0.0, 0.0]

    def test_uniform_fixed_point(self):
        out = reconstruct(truncate_topk(Distribution([0.25] * 4), 2), Strategy.RESIDUAL_UNIFORM)
        assert out.probs == pytest.approx([0.25] * 4, abs=1e-15)

    def test_lossless_identity_bitwise(self):
        out = reconstruct(truncate_topk(SOURCE, 4), Strategy.RESIDUAL_UNIFORM)
        assert np.array_equal(out.probs, SOURCE.probs)

    def test_normalized(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = random_distribution(rng, 9, sparsity=0.5)
            p = truncate_topk(d, int(rng.integers(1, 10)))
            out = reconstruct(p, Strategy.RESIDUAL_UNIFORM)
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert np.all(out.probs >= 0.0)


@st.composite
def payload_rows(draw):
    """An (M, positions, n) array of rows, as a block's shadows, M in {1, 2,
    5}: random rows, rows with zeros, rows of a few repeated values and
    all-equal rows; and ids that are either 0..n-1 for every row or a
    distinct permutation per row."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from((1, 2, 5)))
    positions = draw(st.integers(1, 4))
    n = draw(st.sampled_from((1, 2, 3, 16, 64)))

    def row():
        kind = draw(st.sampled_from(("random", "zeros", "repeated", "equal")))
        if kind == "random":
            return rng.random(n)
        if kind == "zeros":
            return np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        if kind == "repeated":
            return rng.integers(0, 3, n) / 4.0
        return np.full(n, 1.0 / n)

    probs = np.array([[row() for _ in range(positions)] for _ in range(m)])
    if draw(st.booleans()):
        return np.arange(n), probs
    ids = np.argsort(rng.random((m, positions, n)), axis=-1) + rng.integers(0, 100)
    return ids, probs


class TestPayloadOrderRows:
    @settings(max_examples=150)
    @given(payload_rows())
    def test_every_row_matches_the_lexsort_oracle(self, rows):
        ids, probs = rows
        order, ordered = _payload_order(ids, probs)
        assert order.shape == ordered.shape == probs.shape
        every_ids = np.broadcast_to(ids, probs.shape)
        for index in np.ndindex(probs.shape[:-1]):
            want = np.lexsort((every_ids[index], -probs[index]))
            np.testing.assert_array_equal(every_ids[index][order[index]],
                                          every_ids[index][want])
            np.testing.assert_array_equal(ordered[index], probs[index][want])


@st.composite
def rule_payloads(draw):
    """Payloads at k = 1, at k = |V| and in between: as truncated locally,
    through the f32 wire, and over-full (retained mass above 1, as the
    wire can leave it)."""
    d = draw(distributions(min_size=2, max_size=12))
    k = draw(st.one_of(st.just(1), st.just(d.vocab_size), st.integers(1, d.vocab_size)))
    p = truncate_topk(d, k)
    form = draw(st.sampled_from(("local", "wire", "over-full")))
    if form == "over-full":
        p = TopKPayload.unchecked(p.vocab_size, p.ids, p.probs * ((1.0 + 5e-6) / p.probs.sum()))
    return p if form == "local" else decode_payload(encode_payload(p))


class TestReconstructionRule:
    @given(rule_payloads())
    def test_rule_matches_mass_split_and_reconstruct(self, p):
        eps, rules = reconstructions(p.probs, p.vocab_size)
        split = mass_split(p)
        assert eps == split.epsilon
        # an independent oracle: both strategies written out from mass_split
        tail = p.vocab_size - p.k
        oracle = {Strategy.RENORMALIZED: np.zeros(p.vocab_size),
                  Strategy.RESIDUAL_UNIFORM: np.full(p.vocab_size,
                                                     split.epsilon / tail if tail else 0.0)}
        oracle[Strategy.RENORMALIZED][p.ids] = p.probs / split.rho if tail else p.probs
        oracle[Strategy.RESIDUAL_UNIFORM][p.ids] = p.probs
        for strategy in Strategy:
            kept, other = rules[strategy]
            dense = np.full(p.vocab_size, other)
            dense[p.ids] = kept
            assert dense.tobytes() == reconstruct(p, strategy).probs.tobytes()
            assert dense.tobytes() == oracle[strategy].tobytes()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown reconstruction strategy"):
            reconstruct(truncate_topk(SOURCE, 2), 3)

    @given(st.integers(2, 40), st.integers(1, 6), st.data())
    def test_stacked_rows_match_one_payload_at_a_time(self, size, n, data):
        """(..., k) rows give each row the floats of its 1-D call, also when
        the rows are a prefix of wider payloads, as the block scorer passes."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = data.draw(st.sampled_from(sorted({1, size // 2 or 1, size - 1, size})))
        wide = data.draw(st.integers(k, size))
        payloads = [truncate_topk(random_distribution(rng, size, sparsity=0.3), wide)
                    for _ in range(2 * n)]
        stack = np.array([p.probs for p in payloads])[:, :k]
        for probs in (stack, stack.reshape(2, n, k)):
            eps, rules = reconstructions(probs, size)
            assert eps.shape == probs.shape[:-1]
            for j, p in enumerate(payloads):
                at = np.unravel_index(j, probs.shape[:-1])
                one_eps, one_rules = reconstructions(p.probs[:k], size)
                assert eps[at] == one_eps
                for strategy in Strategy:
                    kept, other = rules[strategy]
                    one_kept, one_other = one_rules[strategy]
                    assert kept[at].tobytes() == one_kept.tobytes()
                    assert np.broadcast_to(other, eps.shape)[at] == one_other

    def test_stacked_zero_mass_row_rejected(self):
        probs = np.array([[0.5, 0.25], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero retained mass"):
            reconstructions(probs, 4)


class TestLocalErrorBounds:
    """Reconstruction error vs residual mass over a large random corpus."""

    def test_renormalized_equality_and_residual_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(2_000):
            size = int(rng.integers(2, 33))
            d = random_distribution(rng, size, sparsity=0.3)
            k = int(rng.integers(1, size + 1))
            p = truncate_topk(d, k)
            eps = mass_split(p).epsilon
            err_ren = l1_distance(d, reconstruct(p, Strategy.RENORMALIZED))
            err_res = l1_distance(d, reconstruct(p, Strategy.RESIDUAL_UNIFORM))
            assert abs(err_ren - 2.0 * eps) < 1e-9
            assert err_res <= 2.0 * eps + 1e-9

    @given(distributions(min_size=2, max_size=10), st.data())
    def test_property_form(self, d, data):
        k = data.draw(st.integers(min_value=1, max_value=d.vocab_size))
        p = truncate_topk(d, k)
        eps = mass_split(p).epsilon
        assert abs(l1_distance(d, reconstruct(p, Strategy.RENORMALIZED)) - 2.0 * eps) < 1e-9
        assert l1_distance(d, reconstruct(p, Strategy.RESIDUAL_UNIFORM)) <= 2.0 * eps + 1e-9


class TestCodec:
    def test_body_size_arithmetic(self):
        body = encode_payload(truncate_topk(SOURCE, 2))
        assert len(body) == 4 + 4 + 2 * (4 + 4) == 24

    def test_round_trip_values(self):
        p = truncate_topk(SOURCE, 3)
        q = decode_payload(encode_payload(p))
        assert q.vocab_size == p.vocab_size
        assert q.k == p.k
        assert list(q.ids) == list(p.ids)
        for a, b in zip(p.probs, q.probs):
            assert b == float(np.float32(a))
            assert abs(a - b) <= abs(a) * 2.0 ** -23

    def test_encode_decode_encode_stable(self):
        p = truncate_topk(SOURCE, 2)
        body = encode_payload(p)
        assert encode_payload(decode_payload(body)) == body

    def test_truncated_buffer(self):
        body = encode_payload(truncate_topk(SOURCE, 2))
        with pytest.raises(TruncatedPayloadError):
            decode_payload(body[:-3])
        with pytest.raises(TruncatedPayloadError):
            decode_payload(body + b"\x00")
        with pytest.raises(TruncatedPayloadError):
            decode_payload(b"\x01")

    def test_k_exceeds_vocab(self):
        bad = np.array([2, 3], dtype="<u4").tobytes() + b"\x00" * 24
        with pytest.raises(PayloadHeaderError):
            decode_payload(bad)

    def test_duplicate_ids(self):
        rec = np.zeros(2, dtype=[("id", "<u4"), ("p", "<f4")])
        rec["id"] = [1, 1]
        rec["p"] = [0.5, 0.5]
        bad = np.array([4, 2], dtype="<u4").tobytes() + rec.tobytes()
        with pytest.raises(DuplicateTokenError):
            decode_payload(bad)

    def test_out_of_range_ids(self):
        rec = np.zeros(1, dtype=[("id", "<u4"), ("p", "<f4")])
        rec["id"] = [7]
        rec["p"] = [1.0]
        bad = np.array([4, 1], dtype="<u4").tobytes() + rec.tobytes()
        with pytest.raises(TokenRangeError):
            decode_payload(bad)

    def test_negative_probability(self):
        rec = np.zeros(1, dtype=[("id", "<u4"), ("p", "<f4")])
        rec["id"] = [0]
        rec["p"] = [-0.25]
        bad = np.array([4, 1], dtype="<u4").tobytes() + rec.tobytes()
        with pytest.raises(ProbabilityValueError):
            decode_payload(bad)

    MALFORMED = [
        (TruncatedPayloadError, _body(4, [0], [1.0])[:-1]),
        (PayloadHeaderError, _body(1, [0], [1.0])),
        (PayloadHeaderError, _body(4, [], [])),
        (DuplicateTokenError, _body(4, [2, 2], [0.5, 0.5])),
        (TokenRangeError, _body(4, [4], [1.0])),
        (ProbabilityValueError, _body(4, [0], [float("nan")])),
        (ProbabilityValueError, _body(4, [0, 1], [0.75, 0.5])),  # mass 1.25
        (ProbabilityValueError, _body(4, [0], [0.0])),  # no retained mass
        (EntryOrderError, _body(4, [0, 1], [0.25, 0.5])),
        (EntryOrderError, _body(4, [2, 1], [0.25, 0.25])),  # tie, ids descending
    ]

    @pytest.mark.parametrize("error, body", MALFORMED)
    def test_malformed_body_raises_typed_error(self, error, body):
        with pytest.raises(error):
            decode_payload(body)

    def test_malformed_cases_cover_every_error_type(self):
        assert {error for error, _ in self.MALFORMED} == set(PayloadError.__subclasses__())

    def test_f32_tie_creation_reorders_entries(self):
        # Two f64 probabilities that collapse to the same f32; the encoder
        # must restore the ascending-id tie order for the receiver.
        hi = float(np.float32(0.3))
        lo = hi - 1e-12
        assert np.float32(lo) == np.float32(hi)
        p = TopKPayload(4, [3, 1], [hi, lo], tol=1.0)
        q = decode_payload(encode_payload(p))
        assert list(q.ids) == [1, 3]

    @given(st.lists(st.floats(2**-10, 2**-7, width=32), min_size=1, max_size=24, unique=True),
           st.data())
    def test_f32_narrowing_ties_are_ordered_by_id(self, bases, data):
        # each f32 base spawns f64 neighbours a few 1e-12 apart, far inside
        # half an f32 ulp: distinct f64 values that narrow to one f32, the
        # first base at least twice. With shuffled ids, only ascending id can
        # order each tie the narrowing makes.
        copies = [data.draw(st.integers(2 if b == 0 else 1, 3)) for b in range(len(bases))]
        values = np.array([base + j * 1e-12 for base, n in zip(bases, copies) for j in range(n)])
        size = values.size + 3
        ids = np.array(data.draw(st.permutations(range(size))))[:values.size]
        order = np.argsort(-values)
        p = TopKPayload(size, ids[order], values[order])
        probs32 = p.probs.astype(np.float32)
        assert np.any(probs32[1:] == probs32[:-1])
        want = np.lexsort((p.ids, -probs32))
        body = encode_payload(p)
        rec = np.frombuffer(body, dtype=[("id", "<u4"), ("p", "<f4")], offset=8)
        np.testing.assert_array_equal(rec["id"], p.ids[want])
        np.testing.assert_array_equal(rec["p"], probs32[want])
        decode_payload(body)

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(31)
        outcomes = {"ok": 0, "err": 0}
        for _ in range(10_000):
            n = int(rng.integers(0, 64))
            buf = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            try:
                decode_payload(buf)
                outcomes["ok"] += 1
            except PayloadError:
                outcomes["err"] += 1
        # Random bytes essentially never form a valid payload.
        assert outcomes["err"] > 9_900

    def test_fuzz_valid_payloads_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(2_000):
            size = int(rng.integers(2, 40))
            d = random_distribution(rng, size, sparsity=0.4)
            p = truncate_topk(d, int(rng.integers(1, size + 1)))
            q = decode_payload(encode_payload(p))
            assert sorted(zip(q.ids, q.probs)) == sorted(
                (i, float(np.float32(x))) for i, x in zip(p.ids, p.probs)
            )
