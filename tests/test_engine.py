import numpy as np
import pytest

from conftest import score_position
from draftwire.aggregation import TopKProfile, WeightVector, aggregate
from draftwire.compression import Strategy
from draftwire.config import synthetic_worker_factory
from draftwire.dist import Distribution
from draftwire.engine import (
    SessionSettings,
    block_step_metrics,
    run_reference_sample,
    run_sample,
    sample_seed_for,
)
from draftwire.metrics import check_bounds
from draftwire.models import SyntheticModel, read_trace, write_trace
from draftwire.seeding import MASK64, ROLE_DRAFT_MODEL, derive_seed
from draftwire.transport import InProcessPool, WorkerFailureError, expected_upload_bytes

FACTORY = synthetic_worker_factory(concentration=3.0, temperature=1.0, correlation=0.9)


def draft_model_for(sample_seed, vocab_size=8, concentration=3.0):
    return SyntheticModel(vocab_size=vocab_size,
                          seed=derive_seed(sample_seed, ROLE_DRAFT_MODEL),
                          concentration=concentration)


def make_settings(vocab_size=8, gamma=4, k=2, m=2, max_tokens=12,
                  strategy=Strategy.RENORMALIZED, prompt=(0,), eos=None):
    return SessionSettings(
        vocab_size=vocab_size, gamma=gamma, strategy=strategy,
        weights=WeightVector.uniform(m),
        k_profile=TopKProfile.homogeneous(k, m, vocab_size),
        max_tokens=max_tokens, prompt=prompt, eos=eos)


class ConstantModel:
    """Same next-token distribution for every prefix."""

    def __init__(self, dist):
        self._dist = dist

    def distribution(self, prefix):
        return self._dist


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_settings(gamma=0)
        with pytest.raises(ValueError):
            make_settings(max_tokens=0)
        with pytest.raises(ValueError):
            make_settings(prompt=())
        with pytest.raises(ValueError):
            make_settings(prompt=(99,))

    def test_worker_configs(self):
        settings = make_settings(k=3, m=2, gamma=5)
        cfgs = settings.worker_configs(7)
        assert len(cfgs) == 2
        assert all(c.k == 3 and c.gamma == 5 and c.seed_material == 7 for c in cfgs)

    def test_sample_seed_wraps(self):
        assert sample_seed_for(MASK64, 1) == 0
        assert sample_seed_for(41, 1) == 42


class TestGoldenTranscript:
    """Frozen end-to-end outputs; any drift in the RNG schedule,
    aggregation order, codec, or verify loop shows up here first."""

    def test_renormalized(self):
        settings = make_settings(strategy=Strategy.RENORMALIZED)
        res = run_sample(draft_model_for(1234), InProcessPool(2, FACTORY),
                         settings, 1234)
        assert res.tokens == (7, 4, 5, 6, 2, 3, 3, 4, 6, 1, 5, 5)
        assert res.blocks == 5
        assert res.drafted == 20
        assert res.accepted == 9
        assert res.uplink_bytes == 1650

    def test_residual_uniform(self):
        settings = make_settings(strategy=Strategy.RESIDUAL_UNIFORM)
        res = run_sample(draft_model_for(1234), InProcessPool(2, FACTORY),
                         settings, 1234)
        assert res.tokens == (7, 4, 5, 6, 2, 6, 6, 2, 7, 5, 6, 4)
        assert res.blocks == 4
        assert res.accepted == 8


class TestLosslessEquivalence:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_full_k_matches_reference(self, strategy):
        vocab = 16
        settings = make_settings(vocab_size=vocab, k=vocab, gamma=3,
                                 max_tokens=24, strategy=strategy)
        for seed in range(5):
            sample_seed = sample_seed_for(100, seed)
            draft = draft_model_for(sample_seed, vocab_size=vocab)
            workers = [FACTORY(vocab, sample_seed, i) for i in range(2)]
            live = run_sample(draft, InProcessPool(2, FACTORY), settings, sample_seed)
            ref = run_reference_sample(draft, workers, settings, sample_seed)
            assert live.tokens == ref.tokens
            assert live.blocks == ref.blocks
            assert live.accepted == ref.accepted

    def test_truncated_k_diverges_from_reference(self):
        # sanity check that the equality above is not vacuous
        vocab = 16
        settings = make_settings(vocab_size=vocab, k=1, gamma=3, max_tokens=24)
        diverged = 0
        for seed in range(5):
            sample_seed = sample_seed_for(100, seed)
            draft = draft_model_for(sample_seed, vocab_size=vocab)
            workers = [FACTORY(vocab, sample_seed, i) for i in range(2)]
            live = run_sample(draft, InProcessPool(2, FACTORY), settings, sample_seed)
            ref = run_reference_sample(draft, workers, settings, sample_seed)
            diverged += live.tokens != ref.tokens
        assert diverged > 0


class TestFullAcceptanceFixedPoint:
    def test_identical_draft_and_workers_accept_everything(self):
        # dyadic probabilities survive the f32 wire bit for bit, so the
        # target equals the proposal exactly and every ratio is 1
        dist = Distribution([0.5, 0.25, 0.125, 0.125])
        settings = make_settings(vocab_size=4, gamma=4, k=4, max_tokens=10)
        pool = InProcessPool(2, lambda v, s, i: ConstantModel(dist))
        res = run_sample(ConstantModel(dist), pool, settings, 7)
        assert res.blocks == 2
        assert res.drafted == 8
        assert res.accepted == 8  # never a rejection
        assert len(res.tokens) == 10


class TestStoppingRules:
    def test_max_tokens_one(self):
        settings = make_settings(max_tokens=1)
        res = run_sample(draft_model_for(5), InProcessPool(2, FACTORY), settings, 5)
        assert len(res.tokens) == 1
        assert res.blocks == 1

    def test_max_tokens_exact(self):
        for seed in range(10):
            settings = make_settings(max_tokens=7)
            res = run_sample(draft_model_for(seed), InProcessPool(2, FACTORY),
                             settings, seed)
            assert len(res.tokens) == 7

    def test_eos_ends_output(self):
        stopped_early = 0
        for seed in range(20):
            settings = make_settings(max_tokens=32, eos=3)
            res = run_sample(draft_model_for(seed), InProcessPool(2, FACTORY),
                             settings, seed)
            assert len(res.tokens) <= 32
            if 3 in res.tokens:
                assert res.tokens.index(3) == len(res.tokens) - 1
                if len(res.tokens) < 32:
                    stopped_early += 1
        assert stopped_early > 0

    def test_reference_sample_same_stopping(self):
        settings = make_settings(max_tokens=32, eos=3)
        for seed in range(5):
            workers = [FACTORY(8, seed, i) for i in range(2)]
            ref = run_reference_sample(draft_model_for(seed), workers, settings, seed)
            assert len(ref.tokens) <= 32
            if 3 in ref.tokens:
                assert ref.tokens.index(3) == len(ref.tokens) - 1


class TestDeterminism:
    def test_same_seed_same_transcript(self):
        settings = make_settings()
        a = run_sample(draft_model_for(9), InProcessPool(2, FACTORY), settings, 9)
        b = run_sample(draft_model_for(9), InProcessPool(2, FACTORY), settings, 9)
        assert a.tokens == b.tokens
        assert a.uplink_bytes == b.uplink_bytes

    def test_different_seeds_differ(self):
        settings = make_settings(max_tokens=24)
        outs = {
            run_sample(draft_model_for(s), InProcessPool(2, FACTORY), settings, s).tokens
            for s in range(8)
        }
        assert len(outs) > 1


class TestFirstTokenMarginal:
    """Distribution-preservation check in integration form: over many
    seeds the first emitted token follows the dense aggregated target."""

    VOCAB = 4
    TRIALS = 3_000

    def target_at_prompt(self, workers, weights):
        dense = [
            Distribution.unchecked(
                m.distribution((0,)).probs.astype(np.float32).astype(np.float64))
            for m in workers
        ]
        return aggregate(dense, weights).probs

    def test_speculative_first_token(self):
        settings = make_settings(vocab_size=self.VOCAB, gamma=2, k=self.VOCAB,
                                 max_tokens=1)
        counts = np.zeros(self.VOCAB)
        base_workers = None
        for trial in range(self.TRIALS):
            sample_seed = sample_seed_for(5_000, trial)
            # fixed worker ensemble: models keyed by a fixed seed material
            workers = [FACTORY(self.VOCAB, 5_000, i) for i in range(2)]
            base_workers = workers
            draft = draft_model_for(sample_seed, vocab_size=self.VOCAB)
            pool = InProcessPool(2, lambda v, s, i: FACTORY(v, 5_000, i))
            res = run_sample(draft, pool, settings, sample_seed)
            counts[res.tokens[0]] += 1
        target = self.target_at_prompt(base_workers, WeightVector.uniform(2))
        assert np.max(np.abs(counts / self.TRIALS - target)) < 0.04


class TestUplinkAccounting:
    def test_homogeneous_profile(self):
        settings = make_settings(gamma=4, k=2)
        res = run_sample(draft_model_for(11), InProcessPool(2, FACTORY), settings, 11)
        per_block = 2 * expected_upload_bytes(4, 2)
        assert res.uplink_bytes == res.blocks * per_block

    def test_heterogeneous_profile(self):
        settings = SessionSettings(
            vocab_size=8, gamma=3, strategy=Strategy.RESIDUAL_UNIFORM,
            weights=WeightVector.uniform(2), k_profile=TopKProfile((1, 8), 8),
            max_tokens=10, prompt=(0,))
        res = run_sample(draft_model_for(12), InProcessPool(2, FACTORY), settings, 12)
        per_block = expected_upload_bytes(3, 1) + expected_upload_bytes(3, 8)
        assert res.uplink_bytes == res.blocks * per_block
        assert len(res.tokens) == 10


class TestInstrumentedRecords:
    def test_shapes_and_validity(self):
        settings = make_settings(gamma=3, k=2, max_tokens=9)
        pool = InProcessPool(2, FACTORY, instrumented=True)
        res = run_sample(draft_model_for(13), pool, settings, 13, instrumented=True)
        assert len(res.records) == res.blocks
        for rec in res.records:
            assert len(rec.draft_tokens) == 3
            assert len(rec.q_dists) == 3
            assert len(rec.worker_dists) == 2
            assert all(len(w) == 4 for w in rec.worker_dists)
            for w in rec.worker_dists:
                for d in w:
                    Distribution(d.probs)  # full validation of the shadows

    def test_uninstrumented_pool_rejected(self):
        settings = make_settings()
        pool = InProcessPool(2, FACTORY)  # no shadows
        with pytest.raises(WorkerFailureError):
            run_sample(draft_model_for(13), pool, settings, 13, instrumented=True)

    def test_block_step_metrics_layout(self):
        settings = make_settings(gamma=3, k=2, max_tokens=9)
        workers = [FACTORY(8, 14, i) for i in range(2)]
        ref = run_reference_sample(draft_model_for(14), workers, settings, 14)
        steps = block_step_metrics(ref.records[0], settings.weights, settings.k_profile)
        assert len(steps) == 4
        assert all(s.alpha_exact is not None for s in steps[:3])
        assert steps[3].alpha_exact is None
        assert all(check_bounds(s, strategy) == (0, 0, 0) for s in steps for strategy in Strategy)

    def test_live_and_reference_shadows_agree(self):
        # same models, same seed: instrumented pool shadows must equal the
        # reference run's recorded distributions bit for bit
        vocab = 8
        settings = make_settings(vocab_size=vocab, gamma=3, k=vocab, max_tokens=9)
        sample_seed = 15
        draft = draft_model_for(sample_seed, vocab_size=vocab)
        workers = [FACTORY(vocab, sample_seed, i) for i in range(2)]
        pool = InProcessPool(2, FACTORY, instrumented=True)
        live = run_sample(draft, pool, settings, sample_seed, instrumented=True)
        ref = run_reference_sample(draft, workers, settings, sample_seed)
        assert live.tokens == ref.tokens
        assert len(live.records) == len(ref.records)
        for lrec, rrec in zip(live.records, ref.records):
            assert lrec.draft_tokens == rrec.draft_tokens
            for lw, rw in zip(lrec.worker_dists, rrec.worker_dists):
                for ld, rd in zip(lw, rw):
                    assert np.array_equal(ld.probs, rd.probs)


class TestTraceCrossPath:
    def test_metrics_survive_trace_round_trip(self, tmp_path):
        settings = make_settings(gamma=3, k=2, max_tokens=9)
        sample_seed = 16
        workers = [FACTORY(8, sample_seed, i) for i in range(2)]
        ref = run_reference_sample(draft_model_for(sample_seed), workers,
                                   settings, sample_seed)

        live_steps = [
            s for rec in ref.records
            for s in block_step_metrics(rec, settings.weights, settings.k_profile)
        ]

        # store each worker's shadow rows in an f32 trace and re-score
        loaded = []
        for i in range(2):
            rows = np.stack([d.probs for rec in ref.records
                             for d in rec.worker_dists[i]])
            path = tmp_path / f"worker_{i}.trace"
            write_trace(path, rows, range(len(rows)))
            loaded.append(read_trace(path).rows)

        replay_steps = []
        cursor = 0
        for rec in ref.records:
            n = len(rec.draft_tokens) + 1
            for t in range(n):
                q = rec.q_dists[t] if t < n - 1 else None
                dists = [Distribution.unchecked(loaded[i][cursor + t]) for i in range(2)]
                replay_steps.append(
                    score_position(dists, q, settings.weights, settings.k_profile))
            cursor += n

        assert len(replay_steps) == len(live_steps)
        for a, b in zip(live_steps, replay_steps):
            ren_a = a.by_strategy[Strategy.RENORMALIZED]
            ren_b = b.by_strategy[Strategy.RENORMALIZED]
            assert abs(ren_a.bias - ren_b.bias) < 1e-5
            assert abs(a.weighted_epsilon - b.weighted_epsilon) < 1e-5
            if ren_a.dalpha is not None:
                assert abs(ren_a.dalpha - ren_b.dalpha) < 1e-5


class TestMirrorChecksum:
    class DroppingPool:
        """Delegates everything but corrupts the committed tokens."""

        def __init__(self, inner):
            self._inner = inner

        def configure(self, configs):
            self._inner.configure(configs)

        def score_block(self, delta, draft):
            return self._inner.score_block(delta, draft)

        def commit(self, tokens):
            self._inner.commit(tokens[:-1])  # worker mirror falls behind

        def close(self):
            self._inner.close()

    def test_diverged_mirror_detected(self):
        settings = make_settings(gamma=2, max_tokens=50)
        pool = self.DroppingPool(InProcessPool(2, FACTORY))
        with pytest.raises(WorkerFailureError, match="mirror diverged"):
            run_sample(draft_model_for(17), pool, settings, 17)


class TestReferenceIsDense:
    def test_reference_never_touches_the_codec(self, monkeypatch):
        # gate 5 compares the codec path with this one; if the reference
        # truncated, encoded or decoded, it would compare the codec with itself
        from draftwire import engine, transport

        def forbidden(*args, **kwargs):
            raise AssertionError("reference path reached the top-K codec")

        for owner, name in ((transport, "truncate_topk"), (transport, "encode_payload"),
                            (transport, "decode_payload"), (engine, "aggregate_compressed")):
            monkeypatch.setattr(owner, name, forbidden)
        settings = make_settings(vocab_size=16, k=16, gamma=3, max_tokens=16)
        workers = [FACTORY(16, 21, i) for i in range(2)]
        ref = run_reference_sample(draft_model_for(21, vocab_size=16), workers, settings, 21)
        assert len(ref.tokens) == 16
        assert len(ref.records) == ref.blocks


class TestReferenceValidation:
    def test_worker_count_mismatch(self):
        settings = make_settings(m=2)
        with pytest.raises(ValueError):
            run_reference_sample(draft_model_for(1), [FACTORY(8, 1, 0)], settings, 1)
