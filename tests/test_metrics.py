import dataclasses

import numpy as np
import pytest

from conftest import random_distribution
from draftwire.aggregation import TopKProfile, WeightVector
from draftwire.compression import Strategy
from draftwire.dist import Distribution
from draftwire.metrics import (
    CSV_COLUMNS,
    StepMetrics,
    StrategyMetrics,
    aggregation_bias,
    check_bounds,
    instrument_position,
    local_error,
    read_sweep_csv,
    sweep_aggregate,
    write_sweep_csv,
)

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
    return instrument_position([P1, P2], q, W, PROFILE)


def with_strategy(step, strategy, **changes):
    """``step`` with some of one strategy's fields replaced."""
    by_strategy = dict(step.by_strategy)
    by_strategy[strategy] = dataclasses.replace(by_strategy[strategy], **changes)
    return dataclasses.replace(step, by_strategy=by_strategy)


class TestPointwiseMeasures:
    def test_local_error_renormalized_equals_twice_residual_mass(self):
        recon = Distribution([0.625, 0.375, 0.0, 0.0])
        assert local_error(P1, recon) == pytest.approx(0.4, abs=1e-12)

    def test_local_error_residual_uniform_is_smaller_here(self):
        recon = Distribution([0.5, 0.3, 0.1, 0.1])
        assert local_error(P1, recon) == pytest.approx(0.1, abs=1e-12)

    def test_lossless_error_is_zero(self):
        assert local_error(P1, P1) == 0.0


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
            instrument_position([P1], Q, W, PROFILE)

    def test_all_bounds_hold_at_reference_point(self):
        step = reference_step()
        assert all(check_bounds(step, strategy) == CLEAN for strategy in Strategy)


class TestCheckBounds:
    def lossless_step(self):
        return instrument_position([P1, P2], Q, W, TopKProfile((4, 4), 4))

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
            step = instrument_position(dists, q, WeightVector(weights), profile)
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

    def test_step_metric_validation(self):
        blank = StrategyMetrics(local_errors=(0.0,), bias=0.0, alpha=None, dalpha=None)
        for worker_epsilons, by_strategy in (
            ((1.5,), {s: blank for s in Strategy}),  # impossible residual mass
            ((0.0,), {REN: blank}),  # a strategy without metrics
        ):
            with pytest.raises(ValueError):
                StepMetrics(
                    worker_epsilons=worker_epsilons,
                    weighted_epsilon=0.0,
                    alpha_exact=None,
                    by_strategy=by_strategy,
                )


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

    def test_derived_properties(self):
        rec = self.record([reference_step()])
        assert rec.k_pct == pytest.approx(50.0, abs=1e-12)
        assert rec.two_eps_bar == pytest.approx(2 * rec.eps_bar, abs=1e-15)
        assert rec.half_delta_bar == pytest.approx(rec.delta_bar / 2, abs=1e-15)

    def test_average_within_step_range(self):
        rng = np.random.default_rng(71)
        steps = []
        for _ in range(20):
            dists = [random_distribution(rng, 8) for _ in range(2)]
            q = random_distribution(rng, 8)
            steps.append(instrument_position(dists, q, W, TopKProfile((3, 3), 8)))
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
            step = instrument_position(dists, None, W, profile)
            ren, res = step.by_strategy[REN].bias, step.by_strategy[RES].bias
            if res < ren - 1e-12:
                res_wins += 1
            elif ren < res - 1e-12:
                ren_wins += 1
        assert res_wins > 0
        assert ren_wins > 0
