import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_distribution, score_position
from draftwire import compression, metrics
from draftwire.aggregation import TopKProfile, WeightVector, aggregate
from draftwire.compression import Strategy, mass_split, reconstruct, truncate_topk
from draftwire.dist import Distribution, l1_distance
from draftwire.engine import BlockRecord, RecordCache, block_step_metrics
from draftwire.metrics import (
    CSV_COLUMNS,
    StepMetrics,
    StrategyMetrics,
    ShadowBlock,
    SweepTally,
    check_bounds,
    instrument_position,
    read_sweep_csv,
    score_block,
    sweep_aggregate,
    write_sweep_csv,
)
from draftwire.seeding import Prefix
from draftwire.specdec import acceptance_rate

# Two-worker reference point used throughout: uniform weights, k=2 each.
P1 = Distribution([0.5, 0.3, 0.15, 0.05])
P2 = Distribution([0.1, 0.2, 0.3, 0.4])
Q = Distribution([0.4, 0.4, 0.1, 0.1])
W = WeightVector.uniform(2)
PROFILE = TopKProfile((2, 2), 4)
REN = Strategy.RENORMALIZED
RES = Strategy.RESIDUAL_UNIFORM
CLEAN = (0, 0, 0)


def reference_step(q=Q):
    return score_position([P1, P2], q, W, PROFILE)


def with_strategy(step, strategy, **changes):
    """``step`` with some of one strategy's fields replaced."""
    by_strategy = dict(step.by_strategy)
    by_strategy[strategy] = dataclasses.replace(by_strategy[strategy], **changes)
    return dataclasses.replace(step, by_strategy=by_strategy)


class TestPointwiseMeasures:
    def test_local_error_renormalized_equals_twice_residual_mass(self):
        recon = Distribution([0.625, 0.375, 0.0, 0.0])
        assert l1_distance(P1, recon) == pytest.approx(0.4, abs=1e-12)

    def test_local_error_residual_uniform_is_smaller_here(self):
        recon = Distribution([0.5, 0.3, 0.1, 0.1])
        assert l1_distance(P1, recon) == pytest.approx(0.1, abs=1e-12)

    def test_lossless_error_is_zero(self):
        assert l1_distance(P1, P1) == 0.0


class TestInstrumentedReferencePoint:
    """Every number below is derived by hand from the two fixed workers."""

    def test_epsilons(self):
        step = reference_step()
        assert step.worker_epsilons == pytest.approx((0.2, 0.3), abs=1e-12)
        assert step.weighted_epsilon == pytest.approx(0.25, abs=1e-12)

    def test_local_errors(self):
        step = reference_step()
        assert step.by_strategy[REN].local_errors == pytest.approx((0.4, 0.6), abs=1e-12)
        assert step.by_strategy[RES].local_errors == pytest.approx((0.1, 0.1), abs=1e-12)

    def test_biases(self):
        step = reference_step()
        # exact avg [0.3,0.25,0.225,0.225]; renorm avg [0.3125,0.1875,3/14,2/7]
        assert step.by_strategy[REN].bias == pytest.approx(0.1464285714285714, abs=1e-12)
        # residual avg [0.325,0.225,0.2,0.25]
        assert step.by_strategy[RES].bias == pytest.approx(0.1, abs=1e-12)

    def test_acceptance_rates(self):
        step = reference_step()
        assert step.alpha_exact == pytest.approx(0.75, abs=1e-12)
        assert step.by_strategy[REN].alpha == pytest.approx(0.70, abs=1e-12)
        assert step.by_strategy[RES].alpha == pytest.approx(0.75, abs=1e-12)
        assert step.by_strategy[REN].dalpha == pytest.approx(0.05, abs=1e-12)
        assert step.by_strategy[RES].dalpha == pytest.approx(0.0, abs=1e-12)

    def test_bonus_position_has_no_acceptance(self):
        step = reference_step(q=None)
        assert step.alpha_exact is None
        assert step.by_strategy[REN].dalpha is None
        assert step.by_strategy[REN].bias == pytest.approx(0.1464285714285714, abs=1e-12)

    def test_worker_count_mismatch(self):
        with pytest.raises(ValueError):
            score_position([P1], Q, W, PROFILE)

    def test_all_bounds_hold_at_reference_point(self):
        step = reference_step()
        assert all(check_bounds(step, strategy) == CLEAN for strategy in Strategy)


class TestCheckBounds:
    def lossless_step(self):
        return score_position([P1, P2], Q, W, TopKProfile((4, 4), 4))

    def test_lossless_equality_at_zero(self):
        step = self.lossless_step()
        assert step.weighted_epsilon <= 1e-12
        assert step.by_strategy[REN].bias == 0.0
        assert step.by_strategy[RES].bias == 0.0
        assert step.by_strategy[REN].dalpha == 0.0
        assert all(check_bounds(step, strategy) == CLEAN for strategy in Strategy)

    def test_random_corpus_zero_violations(self):
        rng = np.random.default_rng(70)
        total = 0
        for _ in range(1_000):
            m = int(rng.integers(1, 5))
            size = int(rng.integers(2, 24))
            dists = [random_distribution(rng, size, sparsity=0.3) for _ in range(m)]
            q = random_distribution(rng, size)
            raw = rng.random(m) + 0.01
            weights = raw / raw.sum()
            weights[-1] = 1.0 - weights[:-1].sum()
            profile = TopKProfile([int(rng.integers(1, size + 1)) for _ in range(m)], size)
            step = score_position(dists, q, WeightVector(weights), profile)
            total += sum(sum(check_bounds(step, strategy)) for strategy in Strategy)
        assert total == 0

    def test_fabricated_lemma1_violation_detected(self):
        step = reference_step()
        above = with_strategy(step, REN, local_errors=(0.5, 0.6))  # 0.5 != 2 * 0.2
        assert check_bounds(above, REN).lemma1 == 1
        assert check_bounds(above, RES).lemma1 == 0
        # below 2 eps: breaks the renormalized equality, not the residual bound
        below = step
        for strategy in Strategy:
            below = with_strategy(below, strategy, local_errors=(0.3, 0.6))
        assert check_bounds(below, REN).lemma1 == 1  # 0.3 != 2 * 0.2
        assert check_bounds(below, RES).lemma1 == 0

    def test_fabricated_thm1_violation_detected(self):
        bad = with_strategy(reference_step(), REN, bias=0.75)  # above 2 * 0.25
        assert check_bounds(bad, REN).thm1 == 1
        assert check_bounds(bad, RES).thm1 == 0
        # 0.75 also breaks the chain link bias/2 <= weighted eps
        assert check_bounds(bad, REN).thm2 == 1

    def test_fabricated_thm2_violation_detected(self):
        bad = with_strategy(reference_step(), REN, dalpha=0.2)  # above bias/2 = 0.0732...
        assert check_bounds(bad, REN).thm2 == 1
        assert check_bounds(bad, RES).thm2 == 0

    def test_bonus_position_skips_thm2(self):
        step = reference_step(q=None)
        assert check_bounds(step, REN).thm2 == 0
        assert check_bounds(step, RES).thm2 == 0


class TestSweepAggregate:
    def record(self, steps, strategy=Strategy.RENORMALIZED):
        return sweep_aggregate(
            steps, strategy=strategy, m=2, gamma=4, vocab_size=4, k=2,
            temperature=1.0, seed=42, samples=1)

    def test_single_step_passthrough(self):
        step = reference_step()
        rec = self.record([step])
        assert rec.delta_bar == pytest.approx(step.by_strategy[REN].bias, abs=1e-15)
        assert rec.eps_bar == pytest.approx(0.25, abs=1e-12)
        assert rec.delta_alpha_bar == pytest.approx(0.05, abs=1e-12)
        assert rec.steps == 1
        assert rec.lemma1_violations == 0

    def test_mean_of_two_steps(self):
        draft = reference_step()
        bonus = reference_step(q=None)
        rec = self.record([draft, bonus])
        assert rec.steps == 2
        assert rec.delta_bar == pytest.approx(draft.by_strategy[REN].bias, abs=1e-15)
        # only the draft position contributes to the acceptance average
        assert rec.delta_alpha_bar == pytest.approx(0.05, abs=1e-12)

    def test_residual_strategy_column(self):
        rec = self.record([reference_step()], strategy=Strategy.RESIDUAL_UNIFORM)
        assert rec.delta_bar == pytest.approx(0.1, abs=1e-12)
        assert rec.delta_alpha_bar == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.record([])
        row = SweepTally(REN, m=2, gamma=4, vocab_size=4, k=2, temperature=1.0, seed=42,
                         samples=1)
        with pytest.raises(ValueError, match="empty step list"):
            row.delta_bar

    def test_derived_properties(self):
        rec = self.record([reference_step()])
        row = rec.to_row()
        assert row["K_pct"] == pytest.approx(50.0, abs=1e-12)
        assert row["two_eps_bar"] == pytest.approx(2 * rec.eps_bar, abs=1e-15)
        assert row["half_delta_bar"] == pytest.approx(rec.delta_bar / 2, abs=1e-15)

    def test_average_within_step_range(self):
        rng = np.random.default_rng(71)
        steps = []
        for _ in range(20):
            dists = [random_distribution(rng, 8) for _ in range(2)]
            q = random_distribution(rng, 8)
            steps.append(score_position(dists, q, W, TopKProfile((3, 3), 8)))
        rec = self.record(steps)
        biases = [s.by_strategy[REN].bias for s in steps]
        assert min(biases) - 1e-15 <= rec.delta_bar <= max(biases) + 1e-15


class TestCsvRoundTrip:
    def test_schema_and_values(self, tmp_path):
        rec = sweep_aggregate(
            [reference_step()], strategy=Strategy.RESIDUAL_UNIFORM, m=2, gamma=4,
            vocab_size=4, k=2, temperature=0.8, seed=7, samples=3)
        path = tmp_path / "sweep.csv"
        write_sweep_csv([rec], path)

        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

        rows = read_sweep_csv(path)
        assert len(rows) == 1
        row = rows[0]
        assert row["strategy"] == "residual_uniform"
        assert row["M"] == "2"
        assert row["K"] == "2"
        assert float(row["K_pct"]) == 50.0
        assert float(row["temperature"]) == 0.8
        # repr round-trips the float exactly
        assert float(row["delta_bar"]) == rec.delta_bar
        assert float(row["two_eps_bar"]) == 2 * rec.eps_bar
        assert row["lemma1_violations"] == "0"

    def test_deterministic_bytes(self, tmp_path):
        rec = sweep_aggregate(
            [reference_step()], strategy=Strategy.RENORMALIZED, m=2, gamma=4,
            vocab_size=4, k=2, temperature=1.0, seed=42, samples=1)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sweep_csv([rec], a)
        write_sweep_csv([rec], b)
        assert a.read_bytes() == b.read_bytes()


class TestBiasOrderingIsReportedNotAssumed:
    def test_residual_can_beat_renormalized_and_vice_versa(self):
        # No bound orders the two strategies; verify both orderings occur.
        rng = np.random.default_rng(72)
        res_wins = ren_wins = 0
        for _ in range(300):
            dists = [random_distribution(rng, 12, sparsity=0.4) for _ in range(2)]
            profile = TopKProfile((int(rng.integers(1, 12)),) * 2, 12)
            step = score_position(dists, None, W, profile)
            ren, res = step.by_strategy[REN].bias, step.by_strategy[RES].bias
            if res < ren - 1e-12:
                res_wins += 1
            elif ren < res - 1e-12:
                ren_wins += 1
        assert res_wins > 0
        assert ren_wins > 0


def oracle_instrument_position(worker_dists, q, w, k_profile):
    """One position's metrics as they were first written, per distribution:
    one payload, one reconstruction and one aggregate object at a time."""
    payloads = [truncate_topk(d, k_profile[i]) for i, d in enumerate(worker_dists)]
    epsilons = tuple(mass_split(p).epsilon for p in payloads)
    weighted_eps = float(sum(w[i] * epsilons[i] for i in range(len(w))))
    p_exact = aggregate(list(worker_dists), w)
    alpha_exact = None if q is None else acceptance_rate(p_exact, q)
    by_strategy = {}
    for strategy in Strategy:
        recon = [reconstruct(p, strategy) for p in payloads]
        p_comp = aggregate(recon, w)
        alpha = None if q is None else acceptance_rate(p_comp, q)
        by_strategy[strategy] = StrategyMetrics(
            local_errors=tuple(l1_distance(d, r) for d, r in zip(worker_dists, recon)),
            bias=l1_distance(p_exact, p_comp),
            alpha=alpha,
            dalpha=None if alpha is None else abs(alpha - alpha_exact),
        )
    return StepMetrics(worker_epsilons=epsilons, weighted_epsilon=weighted_eps,
                       alpha_exact=alpha_exact, by_strategy=by_strategy)


def row_kinds(rng, size):
    """Random rows with and without zeros, tie-heavy rows and an all-equal row."""
    return {
        "random": random_distribution(rng, size),
        "sparse": random_distribution(rng, size, sparsity=0.6),
        "ties": Distribution(tie_heavy(rng, size)),
        "equal": Distribution(np.full(size, 1.0 / size)),
    }


def tie_heavy(rng, size):
    raw = rng.integers(0, 4, size).astype(np.float64)
    if raw.sum() == 0.0:
        raw[0] = 1.0
    return raw / raw.sum()


def assert_same_step(got, want):
    """Equal on every float, and plain Python floats, as the CSV writes repr()."""
    assert got == want
    values = [*got.worker_epsilons, got.weighted_epsilon, got.alpha_exact]
    for rec in got.by_strategy.values():
        values += [*rec.local_errors, rec.bias, rec.alpha, rec.dalpha]
    assert all(v is None or type(v) is float for v in values)


class TestArrayScoringMatchesOracle:
    """The block scorer returns exactly the oracle's ``StepMetrics``, with
    and without a cache of wider payloads."""

    @pytest.mark.parametrize("size", [2, 8, 64, 512])
    @pytest.mark.parametrize("m", [1, 2, 3, 9])
    def test_homogeneous_k(self, size, m):
        rng = np.random.default_rng(1000 * size + m)
        raw = rng.random(m) + 0.05
        w = WeightVector(raw / raw.sum())
        kinds = row_kinds(rng, size)
        for kind in kinds:
            # one row of this kind, the rest drawn from every kind
            dists = [kinds[kind], *(kinds[k] for k in rng.choice(sorted(kinds), m - 1))]
            for q in (None, random_distribution(rng, size), Distribution(tie_heavy(rng, size))):
                for k in sorted({1, max(1, size // 3), size}):
                    profile = TopKProfile.homogeneous(k, m, size)
                    assert_same_step(score_position(dists, q, w, profile),
                                     oracle_instrument_position(dists, q, w, profile))

    def test_heterogeneous_k(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            size = int(rng.choice((4, 16, 100)))
            w = WeightVector(rng.dirichlet(np.ones(m)))
            dists = [list(row_kinds(rng, size).values())[int(rng.integers(4))]
                     for _ in range(m)]
            ks = [int(rng.choice((1, int(rng.integers(1, size + 1)), size))) for _ in range(m)]
            profile = TopKProfile(ks, size)
            q = None if rng.random() < 0.3 else random_distribution(rng, size, sparsity=0.3)
            assert_same_step(score_position(dists, q, w, profile),
                             oracle_instrument_position(dists, q, w, profile))

    def test_large_vocab(self):
        rng = np.random.default_rng(32000)
        dists = [random_distribution(rng, 32000), Distribution(tie_heavy(rng, 32000))]
        q = random_distribution(rng, 32000)
        for k in (1, 64, 32000):
            profile = TopKProfile.homogeneous(k, 2, 32000)
            assert_same_step(score_position(dists, q, W, profile),
                             oracle_instrument_position(dists, q, W, profile))

    def test_cached_payloads_in_any_k_order(self, monkeypatch):
        """Scored through one cache, every K matches the oracle. Widest
        first, each distribution is put in payload order once, at the
        widest K: by one row sort of every shadow when that K is |V|,
        otherwise by one truncation each."""
        rng = np.random.default_rng(74)
        truncations, row_sorts = [], []
        truncate, order = compression.truncate_topk, compression._payload_order

        def counted_truncate(d, k):
            truncations.append(k)
            return truncate(d, k)

        def counted_order(ids, probs):
            row_sorts.append(probs.shape)
            return order(ids, probs)

        size = 64
        kinds = list(row_kinds(rng, size).values())
        dists = [kinds[1], kinds[2], kinds[3]]
        w = WeightVector([0.2, 0.3, 0.5])
        q = random_distribution(rng, size)
        for ks in ([64, 16, 4, 1], [1, 16, 4, 64], [7, 9, 8]):
            block = ShadowBlock([[d] for d in dists], [q], w)
            monkeypatch.setattr(metrics, "truncate_topk", counted_truncate)
            monkeypatch.setattr(metrics, "_payload_order", counted_order)
            got = [instrument_position(
                score_block(block, TopKProfile.homogeneous(k, 3, size)), 0) for k in ks]
            # the widest payloads are kept: asking for them orders nothing
            assert [a.shape for a in block.stack(max(ks))] == [(1, 3, max(ks))] * 2
            monkeypatch.undo()
            for k, step in zip(ks, got):
                profile = TopKProfile.homogeneous(k, 3, size)
                assert_same_step(step, oracle_instrument_position(dists, q, w, profile))
        # widest first: one row sort of the (M, positions, |V|) shadows at
        # |V|, or one truncation per worker below it; otherwise once more
        # each time a K is wider than every K before it
        assert row_sorts == [(3, 1, size)] * 2
        assert truncations == [k for k in (1, 16, 7, 9) for _ in range(3)]


@st.composite
def scored_blocks(draw):
    """A random recorded block and some k profiles to score it at: gamma
    draft positions plus the bonus, M in {1, 2, 5}, heterogeneous k with
    k = |V| likely, rows with zeros and ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma = draw(st.integers(1, 6))
    m = draw(st.sampled_from((1, 2, 5)))
    size = draw(st.sampled_from((2, 3, 16, 64, 300)))

    def row():
        kind = draw(st.sampled_from(("random", "sparse", "ties")))
        if kind == "ties":
            return Distribution(tie_heavy(rng, size))
        return random_distribution(rng, size, sparsity=0.6 if kind == "sparse" else 0.0)

    record = BlockRecord(
        prefix=Prefix.of((0,)),
        draft_tokens=tuple(int(t) for t in rng.integers(0, size, gamma)),
        q_dists=tuple(row() for _ in range(gamma)),
        worker_dists=tuple(tuple(row() for _ in range(gamma + 1)) for _ in range(m)))
    w = WeightVector(rng.dirichlet(np.ones(m)))
    k = st.one_of(st.just(size), st.just(1), st.integers(1, size))
    profiles = draw(st.lists(st.lists(k, min_size=m, max_size=m), min_size=1, max_size=4))
    return record, w, [TopKProfile(ks, size) for ks in profiles]


class TestBlockScorerMatchesOracle:
    """``block_step_metrics`` (one ``score_block`` pass, then
    ``instrument_position`` per position) equals the per-position oracle at
    every position, through a record cache or without one."""

    @settings(max_examples=150, deadline=None)
    @given(scored_blocks(), st.booleans())
    def test_every_position(self, block, cached):
        record, w, profiles = block
        gamma = len(record.draft_tokens)
        cache = RecordCache()
        for profile in profiles:
            # uncached: a new cache per profile
            steps = block_step_metrics(record, w, profile, cache if cached else RecordCache())
            assert len(steps) == gamma + 1
            for t, step in enumerate(steps):
                q = record.q_dists[t] if t < gamma else None
                dists = [record.worker_dists[i][t] for i in range(len(w))]
                assert_same_step(step, oracle_instrument_position(dists, q, w, profile))
            assert steps[gamma].alpha_exact is None

    def test_profile_of_another_worker_count_rejected(self):
        block = ShadowBlock([[P1], [P2]], [Q], W)
        with pytest.raises(ValueError, match="worker count mismatch"):
            score_block(block, TopKProfile((2,), 4))


def assert_block_matches_oracle(dists_by_worker, qs, w, profile):
    """Every position of one ``score_block`` equals the oracle; returns the
    steps."""
    scores = score_block(ShadowBlock(dists_by_worker, qs, w), profile)
    steps = [instrument_position(scores, t) for t in range(len(dists_by_worker[0]))]
    for t, step in enumerate(steps):
        q = qs[t] if t < len(qs) else None
        dists = [rows[t] for rows in dists_by_worker]
        assert_same_step(step, oracle_instrument_position(dists, q, w, profile))
    return steps


class TestBlockScorerPaths:
    """The lossless return, the k groups' scatter offsets and the block's
    range checks."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_all_lossless_return_equals_oracle(self, m):
        rng = np.random.default_rng(90 + m)
        size, gamma = 16, 3
        kinds = list(row_kinds(rng, size).values())
        dists = [[kinds[int(rng.integers(len(kinds)))] for _ in range(gamma + 1)]
                 for _ in range(m)]
        qs = [Distribution(tie_heavy(rng, size)) for _ in range(gamma)]
        w = WeightVector(rng.dirichlet(np.ones(m)))
        steps = assert_block_matches_oracle(dists, qs, w, TopKProfile.homogeneous(size, m, size))
        for step in steps:
            for rec in step.by_strategy.values():
                assert rec.local_errors == (0.0,) * m and rec.bias == 0.0
                assert rec.alpha == step.alpha_exact
        assert steps[gamma].alpha_exact is None  # the bonus position

    @pytest.mark.parametrize("ks", [(4, 16, 4), (16, 4, 16, 4), (64, 4, 64), (1, 8, 1, 8, 1),
                                    (64, 7, 2, 7, 64)])
    def test_workers_that_share_a_k_apart_keep_their_own_slots(self, ks):
        """Workers of one k group that are not next to each other are
        scattered through their own flat offsets: every worker has its own
        rows, so a slot swapped or shifted changes a value."""
        rng = np.random.default_rng(sum(ks))
        size, m = 64, len(ks)
        dists = [[random_distribution(rng, size, sparsity=0.3) for _ in range(3)]
                 for _ in range(m)]
        qs = [random_distribution(rng, size) for _ in range(2)]
        w = WeightVector(rng.dirichlet(np.ones(m)))
        assert_block_matches_oracle(dists, qs, w, TopKProfile(ks, size))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_full_width_stack_holds_every_shadow_truncated_at_full_width(self, m):
        """At k = |V| the stack sorts every shadow row at once; each worker's
        payload at each position is ``truncate_topk(d, |V|)``, ties and
        zeros included."""
        rng = np.random.default_rng(40 + m)
        size, positions = 64, 4
        kinds = list(row_kinds(rng, size).values())
        dists = [[kinds[int(rng.integers(len(kinds)))] for _ in range(positions)]
                 for _ in range(m)]
        block = ShadowBlock(dists, [random_distribution(rng, size)], WeightVector.uniform(m))
        ids, probs = block.stack(size)
        assert ids.shape == probs.shape == (positions, m, size)
        for i in range(m):
            for t in range(positions):
                want = truncate_topk(dists[i][t], size)
                np.testing.assert_array_equal(ids[t, i], want.ids)
                np.testing.assert_array_equal(probs[t, i], want.probs)

    @pytest.mark.parametrize("ks", [(64, 8, 64), (8, 64, 8), (64, 1)])
    def test_mixed_profile_with_full_width_workers_matches_oracle(self, ks):
        """Workers at k = |V| beside narrower ones: the full-width row sort
        and the per-shadow truncation fill one stack, alone and through a
        cache scored widest first."""
        rng = np.random.default_rng(len(ks) + ks[0])
        size, m = 64, len(ks)
        kinds = list(row_kinds(rng, size).values())
        dists = [[kinds[int(rng.integers(len(kinds)))] for _ in range(3)] for _ in range(m)]
        qs = [Distribution(tie_heavy(rng, size)), random_distribution(rng, size)]
        w = WeightVector(rng.dirichlet(np.ones(m)))
        assert_block_matches_oracle(dists, qs, w, TopKProfile(ks, size))
        record = BlockRecord(prefix=Prefix.of((0,)), draft_tokens=(0, 1), q_dists=tuple(qs),
                             worker_dists=tuple(tuple(rows) for rows in dists))
        cache = RecordCache()
        for profile in (TopKProfile.homogeneous(size, m, size), TopKProfile(ks, size)):
            for t, step in enumerate(block_step_metrics(record, w, profile, cache)):
                q = qs[t] if t < len(qs) else None
                assert_same_step(step, oracle_instrument_position(
                    [rows[t] for rows in dists], q, w, profile))

    def test_l1_range_is_checked_once_per_block(self):
        # rows of mass 2: at k = 1 the renormalized reconstruction of a
        # uniform row is 2.5 away from it
        row = Distribution.unchecked(np.full(8, 0.25))
        block = ShadowBlock([[row, row]], [Distribution(np.full(8, 0.125))], WeightVector([1.0]))
        with pytest.raises(ValueError, match=r"^L1 value 2\.5 outside \[0, 2\]$"):
            score_block(block, TopKProfile((1,), 8))

    def test_nan_acceptance_rate_is_checked(self):
        q = Distribution.unchecked(np.array([np.nan, 0.5, 0.25, 0.25]))
        block = ShadowBlock([[P1, P1], [P2, P2]], [q], W)
        with pytest.raises(ValueError, match=r"^acceptance rate nan outside \[0, 1\]$"):
            score_block(block, PROFILE)

    def test_nan_acceptance_rate_is_checked_at_full_width(self):
        # at k = |V| every alpha is alpha_exact, which holds the same check
        q = Distribution.unchecked(np.array([np.nan, 0.5, 0.25, 0.25]))
        block = ShadowBlock([[P1, P1], [P2, P2]], [q], W)
        with pytest.raises(ValueError, match=r"^acceptance rate nan outside \[0, 1\]$"):
            score_block(block, TopKProfile((4, 4), 4))

    def test_residual_mass_range_is_checked(self):
        # a NaN in a shadow makes its residual mass NaN; score_block, not the
        # step record, is where every range is checked
        bad = Distribution.unchecked(np.array([0.5, np.nan, 0.25, 0.25]))
        block = ShadowBlock([[bad], [P2]], [Q], W)
        with pytest.raises(ValueError, match=r"^residual mass nan outside \[0, 1\]$"):
            score_block(block, TopKProfile((4, 4), 4))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_nan_shadow_is_named_at_every_k(self, k):
        # below |V| a NaN shadow's top-k selection can keep fewer than k
        # tokens (at k = 2 here); the error names the NaN at every k
        bad = Distribution.unchecked(np.array([0.5, np.nan, 0.25, 0.25]))
        block = ShadowBlock([[bad], [P2]], [Q], W)
        with pytest.raises(ValueError, match="nan"):
            score_block(block, TopKProfile((k, k), 4))
