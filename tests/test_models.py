import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draftwire import InProcessPool, models, run_sample
from draftwire.config import RunConfig, merge_config
from draftwire.dist import Distribution
from draftwire.models import (
    MarkovModel,
    NormalMemo,
    SyntheticModel,
    TraceError,
    TraceExhaustedError,
    TraceMismatchError,
    TraceModel,
    load_corpus,
    read_trace,
    write_trace,
)
from draftwire.seeding import Prefix, keyed_normals, stable_prefix_hash


class TestSyntheticModel:
    def test_deterministic(self):
        m = SyntheticModel(vocab_size=32, seed=7)
        a = m.distribution(Prefix.of((1, 2, 3)))
        b = m.distribution(Prefix.of((1, 2, 3)))
        assert np.array_equal(a.probs, b.probs)

    def test_prefix_sensitivity(self):
        m = SyntheticModel(vocab_size=32, seed=7)
        a = m.distribution(Prefix.of((1, 2, 3)))
        b = m.distribution(Prefix.of((1, 2, 4)))
        assert not np.array_equal(a.probs, b.probs)

    def test_seed_sensitivity_across_100_seeds(self):
        seen = set()
        for seed in range(100):
            m = SyntheticModel(vocab_size=16, seed=seed)
            seen.add(m.distribution(Prefix.of((0,))).probs.tobytes())
        assert len(seen) == 100

    def test_zero_concentration_is_uniform(self):
        m = SyntheticModel(vocab_size=8, seed=3, concentration=0.0)
        assert m.distribution(Prefix.of((5, 6))).probs == pytest.approx([0.125] * 8, abs=1e-15)

    def test_full_correlation_reproduces_shared_model(self):
        shared = SyntheticModel(vocab_size=16, seed=11)
        follower = SyntheticModel(vocab_size=16, seed=999, correlation=1.0,
                                  shared_seed=11)
        for prefix in map(Prefix.of, [(0,), (4, 2), (9, 9, 9)]):
            assert np.array_equal(shared.distribution(prefix).probs,
                                  follower.distribution(prefix).probs)

    def test_zero_correlation_ignores_shared_seed(self):
        a = SyntheticModel(vocab_size=16, seed=5, correlation=0.0, shared_seed=1)
        b = SyntheticModel(vocab_size=16, seed=5, correlation=0.0, shared_seed=2)
        assert np.array_equal(a.distribution(Prefix.of((3,))).probs, b.distribution(Prefix.of((3,))).probs)

    def test_partial_correlation_between_extremes(self):
        shared = SyntheticModel(vocab_size=64, seed=11)
        near = SyntheticModel(vocab_size=64, seed=999, correlation=0.99, shared_seed=11)
        far = SyntheticModel(vocab_size=64, seed=999, correlation=0.1, shared_seed=11)
        ref = shared.distribution(Prefix.of((1,))).probs
        d_near = np.abs(near.distribution(Prefix.of((1,))).probs - ref).sum()
        d_far = np.abs(far.distribution(Prefix.of((1,))).probs - ref).sum()
        assert 0.0 < d_near < d_far

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SyntheticModel(vocab_size=1, seed=0)
        for concentration in (-1.0, float("inf"), float("nan"), 1e301):
            with pytest.raises(ValueError, match="concentration must lie in"):
                SyntheticModel(vocab_size=4, seed=0, concentration=concentration)
        for temperature in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="temperature must be finite and > 0"):
                SyntheticModel(vocab_size=4, seed=0, temperature=temperature)
        with pytest.raises(ValueError):
            SyntheticModel(vocab_size=4, seed=0, correlation=1.5, shared_seed=1)
        with pytest.raises(ValueError):
            SyntheticModel(vocab_size=4, seed=0, correlation=0.5)  # no shared_seed

    def test_output_passes_full_validation(self):
        rng = np.random.default_rng(60)
        m = SyntheticModel(vocab_size=128, seed=21, concentration=4.0, temperature=0.8)
        for _ in range(50):
            prefix = Prefix.of(rng.integers(0, 128, size=rng.integers(1, 6)))
            d = m.distribution(prefix)
            Distribution(d.probs)  # re-run the checked constructor


def old_synthetic_probs(vocab_size, seed, concentration, temperature, correlation,
                        shared_seed, prefix):
    """The synthetic distribution from fresh draws and out-of-place
    arithmetic: the oracle that the memoized, in-place path must match bit
    for bit."""
    h = stable_prefix_hash(prefix)
    if correlation == 0.0:
        z = keyed_normals(seed, h, vocab_size)
    elif correlation == 1.0:
        z = keyed_normals(shared_seed, h, vocab_size)
    else:
        z = (correlation * keyed_normals(shared_seed, h, vocab_size)
             + math.sqrt(1.0 - correlation * correlation) * keyed_normals(seed, h, vocab_size))
    shifted = (concentration * z - (concentration * z).max()) / temperature
    exps = np.exp(shifted)
    return exps / exps.sum()


def memo_config(**overrides):
    raw = {"vocab_size": "64", "workers": "2", "k": "8", "gamma": "4",
           "mode": "inprocess", **overrides}
    return RunConfig.from_mapping(merge_config(raw))


class TestNormalMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        correlation=st.sampled_from([0.0, 0.5, 0.98, 1.0]),
        temperature=st.sampled_from([0.3, 0.8, 1.0, 1.7]),
        vocab_size=st.sampled_from([2, 7, 64, 512, 4096]),
        concentration=st.sampled_from([0.0, 0.7, 3.0, 4.0]),
        prefixes=st.lists(st.lists(st.integers(0, 1000), max_size=6), min_size=1, max_size=8),
    )
    def test_bit_identical_with_and_without_memo(self, correlation, temperature, vocab_size,
                                                 concentration, prefixes):
        memo = NormalMemo(3)
        params = dict(vocab_size=vocab_size, concentration=concentration,
                      temperature=temperature)
        draft = SyntheticModel(seed=11, **params)
        draft_memo = SyntheticModel(seed=11, memo=memo, **params)
        worker = SyntheticModel(seed=999, correlation=correlation, shared_seed=11, **params)
        worker_memo = SyntheticModel(seed=999, correlation=correlation, shared_seed=11,
                                     memo=memo, **params)
        for prefix in map(Prefix.of, prefixes):
            for plain, memoized, seed, rho, shared in (
                (draft, draft_memo, 11, 0.0, None),
                (worker, worker_memo, 999, correlation, 11),
            ):
                expected = old_synthetic_probs(vocab_size, seed, concentration, temperature,
                                               rho, shared, prefix)
                assert plain.distribution(prefix).probs.tobytes() == expected.tobytes()
                assert memoized.distribution(prefix).probs.tobytes() == expected.tobytes()
        assert len(memo) <= memo.capacity

    def test_entries_are_read_only_and_reused(self):
        memo = NormalMemo(2)
        z = memo.normals(3, 17, 32)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0.0
        assert memo.normals(3, 17, 32) is z
        assert np.array_equal(z, keyed_normals(3, 17, 32))

    def test_drops_least_recently_used_beyond_capacity(self):
        memo = NormalMemo(2)
        a = memo.normals(1, 1, 8)
        memo.normals(1, 2, 8)
        assert memo.normals(1, 1, 8) is a  # touch: (1, 2) is now the oldest
        memo.normals(1, 3, 8)
        assert len(memo) == 2
        assert memo.normals(1, 1, 8) is a
        with pytest.raises(ValueError):
            NormalMemo(0)

    @pytest.mark.parametrize("capacity", [6, 2])
    def test_threads_get_the_keyed_vector_without_errors(self, monkeypatch, capacity):
        # Six threads (more than the cores) start together and walk six keys
        # from three offsets, so each key is asked for by several threads at
        # once. With room for every key, each is drawn exactly once; with
        # room for two, keys are evicted while other threads look them up.
        keys = [(5, context, 64) for context in range(6)]
        draws = []
        inner = models.keyed_normals

        def counted(seed, context, n):
            draws.append((seed, context, n))
            return inner(seed, context, n)

        monkeypatch.setattr(models, "keyed_normals", counted)
        memo = NormalMemo(capacity)
        seen, errors = [], []
        start = threading.Barrier(6)

        def work(offset):
            try:
                start.wait(timeout=10)
                for j in range(300):
                    key = keys[(offset + j) % len(keys)]
                    seen.append((key, memo.normals(*key)))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i % 3,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 6 * 300
        expected = {key: keyed_normals(*key) for key in keys}
        assert all(z.tobytes() == expected[key].tobytes() for key, z in seen)
        assert len(memo) <= capacity
        if capacity >= len(keys):
            assert sorted(draws) == sorted(keys)

    def test_distribution_never_writes_a_memo_entry(self):
        memo = NormalMemo(4)
        shared = memo.normals(11, stable_prefix_hash((1, 2)), 16)
        before = shared.copy()
        for rho in (0.0, 0.5, 1.0):
            SyntheticModel(vocab_size=16, seed=5, concentration=3.0, correlation=rho,
                           shared_seed=11, memo=memo).distribution(Prefix.of((1, 2)))
        SyntheticModel(vocab_size=16, seed=11, concentration=3.0, memo=memo).distribution(Prefix.of((1, 2)))
        assert np.array_equal(shared, before)

    def test_run_config_memo_holds_at_most_one_block(self):
        cfg = memo_config(max_tokens="40")
        draft = cfg.draft_model(3)
        memo = draft.memo
        assert memo is not None and memo.capacity == cfg.gamma + 1
        pool = InProcessPool(cfg.workers, cfg.worker_factory())
        inner = pool.score_block
        sizes = []

        def watched(delta, draft_tokens):
            result = inner(delta, draft_tokens)
            sizes.append(len(memo))
            return result

        pool.score_block = watched
        run_sample(draft, pool, cfg.settings(), 3)
        assert len(sizes) > 1
        assert max(sizes) == cfg.gamma + 1

    @pytest.mark.parametrize("correlation, draws", [("0.98", 15), ("1.0", 5), ("0", 14)])
    def test_one_block_draws_each_vector_once(self, monkeypatch, correlation, draws):
        # M = 2, gamma = 4: the draft model draws 4 positions, each worker
        # scores 5. With 0 < rho < 1 the 5 shared draws are made once and
        # each worker adds 5 of its own: (M + 1)(gamma + 1) = 15, not 24.
        # rho = 1 needs only the shared draws; rho = 0 shares nothing.
        calls = []
        inner = models.keyed_normals

        def counted(seed, context, n):
            calls.append((seed, context, n))
            return inner(seed, context, n)

        monkeypatch.setattr(models, "keyed_normals", counted)
        cfg = memo_config(vocab_size="512", max_tokens="1", correlation=correlation)
        res = run_sample(cfg.draft_model(8), InProcessPool(cfg.workers, cfg.worker_factory()),
                         cfg.settings(), 8)
        assert res.blocks == 1
        assert len(calls) == draws
        assert len(set(calls)) == draws


class TestMarkovModel:
    def test_add_lambda_formula(self):
        # corpus [0, 0]: one observed 0 -> 0 transition
        lam = 0.05
        m = MarkovModel.fit([0, 0], vocab_size=2, order=1, smoothing=lam)
        d = m.distribution(Prefix.of((0,)))
        assert d.probs == pytest.approx(
            [(1 + lam) / (1 + 2 * lam), lam / (1 + 2 * lam)], abs=1e-15)

    def test_bigram_counts(self):
        # 0->1 twice, 1->0 once, 1->1 once from corpus 0 1 1 0 1
        m = MarkovModel.fit([0, 1, 1, 0, 1], vocab_size=2, order=1, smoothing=0.5)
        d = m.distribution(Prefix.of((0,)))
        assert d.probs == pytest.approx([0.5 / 3, 2.5 / 3], abs=1e-15)
        d = m.distribution(Prefix.of((1,)))
        assert d.probs == pytest.approx([1.5 / 3, 1.5 / 3], abs=1e-15)

    def test_unseen_context_uniform(self):
        m = MarkovModel.fit([0, 1, 0, 1], vocab_size=4, order=1, smoothing=0.05)
        assert m.distribution(Prefix.of((3,))).probs == pytest.approx([0.25] * 4, abs=1e-15)

    def test_short_prefix_uniform(self):
        m = MarkovModel.fit([0, 1, 0, 1], vocab_size=2, order=2, smoothing=0.05)
        assert m.distribution(Prefix.of((1,))).probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_order_two_context(self):
        m = MarkovModel.fit([0, 1, 2, 0, 1, 2], vocab_size=3, order=2, smoothing=0.01)
        d = m.distribution(Prefix.of((0, 1)))
        assert int(np.argmax(d.probs)) == 2
        assert d.probs[2] > 0.99

    def test_sharpens_as_smoothing_shrinks(self):
        for lam, floor in [(1.0, 0.5), (0.1, 0.9), (0.001, 0.999)]:
            m = MarkovModel.fit([0, 1] * 20, vocab_size=2, order=1, smoothing=lam)
            assert m.distribution(Prefix.of((0,))).probs[1] > floor

    def test_corpus_token_out_of_range(self):
        with pytest.raises(ValueError):
            MarkovModel.fit([0, 5], vocab_size=2)

    def test_referentially_transparent(self):
        m = MarkovModel.fit([0, 1, 1, 0], vocab_size=2)
        a = m.distribution(Prefix.of((1,)))
        b = m.distribution(Prefix.of((1,)))
        assert np.array_equal(a.probs, b.probs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MarkovModel.fit([0, 1], vocab_size=2, order=0)
        with pytest.raises(ValueError):
            MarkovModel.fit([0, 1], vocab_size=2, smoothing=0.0)


class TestCorpusLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 1 2\n3 4\n")
        assert load_corpus(path) == [0, 1, 2, 3, 4]

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0 one 2")
        with pytest.raises(ValueError):
            load_corpus(path)


# prefix hashes for five trace rows: one query per prefix (0,), (0, 1), ...
HASHES = [stable_prefix_hash(range(n)) for n in range(1, 6)]


def v1_header(vocab_size, steps):
    """A version-1 header: no prefix hashes follow it. No reader accepts
    the format."""
    return (b"SFTR" + (1).to_bytes(2, "little")
            + vocab_size.to_bytes(4, "little") + steps.to_bytes(4, "little"))


class TestTraceFormat:
    def rows(self):
        rng = np.random.default_rng(61)
        raw = rng.random((5, 6))
        return raw / raw.sum(axis=1, keepdims=True)

    def test_round_trip_shape_and_precision(self, tmp_path):
        path = tmp_path / "t.trace"
        rows = self.rows()
        write_trace(path, rows, HASHES)
        back, hashes = read_trace(path)
        assert back.shape == (5, 6)
        assert hashes.tolist() == HASHES
        # storage is f32; rows are renormalized after widening
        f32 = rows.astype(np.float32).astype(np.float64)
        expect = f32 / f32.sum(axis=1, keepdims=True)
        assert np.max(np.abs(back - expect)) < 1e-12
        assert np.allclose(back.sum(axis=1), 1.0, atol=1e-12)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, self.rows(), HASHES)
        buf = path.read_bytes()
        assert buf[:4] == b"SFTR"
        assert int.from_bytes(buf[4:6], "little") == 2
        assert int.from_bytes(buf[6:10], "little") == 6  # vocab
        assert int.from_bytes(buf[10:14], "little") == 5  # steps
        assert [int.from_bytes(buf[14 + 8 * i:22 + 8 * i], "little")
                for i in range(5)] == HASHES
        assert len(buf) == 14 + 8 * 5 + 4 * 5 * 6

    def test_hash_count_must_match_rows(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.trace", self.rows(), HASHES[:4])

    def test_missing_file_is_a_trace_error_naming_it(self, tmp_path):
        path = tmp_path / "t.trace"
        with pytest.raises(TraceError, match=rf"^cannot read {path}: No such file"):
            read_trace(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, self.rows(), HASHES)
        buf = bytearray(path.read_bytes())
        buf[:4] = b"NOPE"
        path.write_bytes(bytes(buf))
        with pytest.raises(TraceError):
            read_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, self.rows(), HASHES)
        buf = bytearray(path.read_bytes())
        buf[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(bytes(buf))
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, self.rows(), HASHES)
        buf = path.read_bytes()
        path.write_bytes(buf[:-4])
        with pytest.raises(TraceError):
            read_trace(path)

    def test_row_sum_too_far_off(self, tmp_path):
        path = tmp_path / "t.trace"
        rows = self.rows()
        rows[2] *= 1.01  # 1% off: outside the f32 storage budget
        write_trace(path, rows, HASHES)
        with pytest.raises(TraceError, match=rf"^{path} row 2 sums to"):
            read_trace(path)

    def test_small_drift_renormalized(self, tmp_path):
        path = tmp_path / "t.trace"
        rows = self.rows()
        rows[0] *= 1.0 + 5e-6  # within tolerance: load and repair
        write_trace(path, rows, HASHES)
        back = read_trace(path).rows
        assert abs(back[0].sum() - 1.0) < 1e-12

    def test_negative_entry_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        rows = self.rows()
        rows[1, 0] = -rows[1, 0]
        write_trace(path, rows, HASHES)
        with pytest.raises(TraceError, match=rf"^{path} row 1 has invalid probabilities"):
            read_trace(path)

    @pytest.mark.parametrize("bits", [0x7F800001, 0xFFBFFFFF, 0x7FC00000],
                             ids=["signalling", "signalling-negative", "quiet"])
    def test_nan_entry_rejected_without_a_warning(self, tmp_path, bits):
        # widening a signalling NaN to float64 sets numpy's invalid flag;
        # the file is refused as corrupt, not with a RuntimeWarning
        path = tmp_path / "t.trace"
        write_trace(path, self.rows(), HASHES)
        buf = bytearray(path.read_bytes())
        buf[-4:] = bits.to_bytes(4, "little")  # the last row's last entry
        path.write_bytes(bytes(buf))
        with pytest.raises(TraceError, match=rf"^{path} row {len(HASHES) - 1} has invalid "):
            read_trace(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.trace", np.ones(6), [0])


class TestTraceModel:
    def test_replays_in_order(self, tmp_path):
        path = tmp_path / "t.trace"
        rows = np.array([[0.75, 0.25], [0.25, 0.75], [0.5, 0.5]])
        write_trace(path, rows, [stable_prefix_hash(p) for p in ((), (1, 2), (1, 2, 0))])
        m = TraceModel.from_file(path, 2)
        assert m.rows.shape == (3, 2)
        assert m.distribution(Prefix.of(())).probs[0] == pytest.approx(0.75, abs=1e-7)
        assert m.distribution(Prefix.of((1, 2))).probs[0] == pytest.approx(0.25, abs=1e-7)

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, np.array([[0.5, 0.5]]), [stable_prefix_hash(())])
        m = TraceModel.from_file(path, 2)
        m.distribution(Prefix.of(()))
        with pytest.raises(TraceExhaustedError):
            m.distribution(Prefix.of(()))

    def test_another_prefix_is_a_mismatch_naming_file_and_row(self, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(path, np.array([[0.75, 0.25], [0.25, 0.75]]),
                    [stable_prefix_hash(p) for p in ((0,), (0, 1))])
        m = TraceModel.from_file(path, 2)
        m.distribution(Prefix.of((0,)))
        with pytest.raises(TraceMismatchError, match=rf"^{path} row 1: recorded for prefix"):
            m.distribution(Prefix.of((0, 0)))
        assert m.distribution(Prefix.of((0, 1))).probs[0] == pytest.approx(0.25, abs=1e-7)

    def test_rows_are_views_of_the_read_only_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        prefixes = ((0,), (0, 1))
        write_trace(path, np.array([[0.75, 0.25], [0.25, 0.75]]),
                    [stable_prefix_hash(p) for p in prefixes])
        m = TraceModel.from_file(path, 2)
        assert not m.rows.flags.writeable
        for prefix in prefixes:
            assert np.shares_memory(m.distribution(Prefix.of(prefix)).probs, m.rows)

    def test_version_1_file_is_not_replayed(self, tmp_path):
        # a version-1 row records no prefix, so a replay could not be checked
        path = tmp_path / "t.trace"
        path.write_bytes(v1_header(2, 1) + np.array([0.5, 0.5], dtype="<f4").tobytes())
        for read in (read_trace, lambda path: TraceModel.from_file(path, 2)):
            with pytest.raises(TraceError, match=rf"^{path}: unsupported trace version 1$"):
                read(path)

    @pytest.mark.parametrize("vocab_size", [2, 4])
    def test_rows_of_another_width_are_refused_naming_the_file(self, tmp_path, vocab_size):
        path = tmp_path / "t.trace"
        write_trace(path, np.full((1, 3), 1 / 3), [stable_prefix_hash(())])
        with pytest.raises(TraceError, match=rf"^{path} holds rows of 3 tokens, "
                                             rf"but vocab_size is {vocab_size}$"):
            TraceModel.from_file(path, vocab_size)
        assert TraceModel.from_file(path, 3).rows.shape == (1, 3)
