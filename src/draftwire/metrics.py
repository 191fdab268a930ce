"""Distortion and acceptance-rate metrics, bound checks, and sweep rollups.

Per scored position the instrumentation computes, from exact float64
shadow distributions:

* per-worker residual mass eps_i, their weighted sum, and the acceptance
  rate of the draft proposal against the exact weighted average (draft
  positions only; the bonus position has no proposal);
* for each reconstruction strategy, one ``StrategyMetrics`` record: the
  per-worker local reconstruction errors (L1 between the worker's
  distribution and its top-K reconstruction), the aggregation bias (L1
  between the compressed and exact weighted averages), the acceptance rate
  against the compressed average and its absolute change.

``check_bounds`` checks one strategy's record at a time, at 1e-9 tolerance:

* renormalized local error == 2 eps exactly; residual-uniform <= 2 eps;
* aggregation bias <= 2 * sum_i w_i eps_i;
* acceptance variation <= bias / 2 <= sum_i w_i eps_i.

Violations are counted, never raised, so a sweep reports them in its CSV.

``instrument_position`` scores one position as array operations over the
stacked (M, |V|) rows, and can reuse a wider top-K payload of the same
shadows (a prefix of it is the narrower payload), so a sweep that scores a
record at its widest K first truncates each shadow once. A ``SweepTally``
folds one strategy's steps into a CSV row as they arrive; the sweep keeps
one per (K, strategy) and ``sweep_aggregate`` folds a finished list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .aggregation import TopKProfile, WeightVector
from .compression import Strategy, TopKPayload, truncate_topk
from .dist import Distribution

BOUND_TOLERANCE = 1e-9

# The reconstructions in the order ``instrument_position`` stacks them.
_LAYERS = (Strategy.RENORMALIZED, Strategy.RESIDUAL_UNIFORM)

CSV_COLUMNS = [
    "strategy",
    "M",
    "gamma",
    "vocab_size",
    "K",
    "K_pct",
    "temperature",
    "seed",
    "samples",
    "steps",
    "delta_bar",
    "eps_bar",
    "two_eps_bar",
    "delta_alpha_bar",
    "half_delta_bar",
    "lemma1_violations",
    "thm1_violations",
    "thm2_violations",
]


@dataclass(frozen=True, slots=True)
class StrategyMetrics:
    """One reconstruction strategy's figures at one scored position.

    ``alpha`` and ``dalpha`` are None at the bonus position, where there is
    no draft proposal to accept against.
    """

    local_errors: tuple[float, ...]
    bias: float
    alpha: float | None
    dalpha: float | None


@dataclass(frozen=True, slots=True)
class StepMetrics:
    """Everything measured at one scored position, one record per strategy.

    ``alpha_exact`` is None at the bonus position. ``by_strategy`` covers
    every ``Strategy``.
    """

    worker_epsilons: tuple[float, ...]
    weighted_epsilon: float
    alpha_exact: float | None
    by_strategy: dict[Strategy, StrategyMetrics]

    def __post_init__(self) -> None:
        missing = set(Strategy) - self.by_strategy.keys()
        if missing:
            raise ValueError(f"no metrics for {sorted(s.name for s in missing)}")
        for e in self.worker_epsilons:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"residual mass {e} outside [0, 1]")
        for rec in self.by_strategy.values():
            for err in (*rec.local_errors, rec.bias):
                if not 0.0 <= err <= 2.0 + BOUND_TOLERANCE:
                    raise ValueError(f"L1 value {err} outside [0, 2]")
        for a in (self.alpha_exact, *(rec.alpha for rec in self.by_strategy.values())):
            if a is not None and not 0.0 <= a <= 1.0:
                raise ValueError(f"acceptance rate {a} outside [0, 1]")


def instrument_position(
    worker_dists: Sequence[Distribution],
    q: Distribution | None,
    w: WeightVector,
    k_profile: TopKProfile,
    *,
    widest: list[TopKPayload | None] | None = None,
) -> StepMetrics:
    """Score one position from exact shadow distributions.

    Truncation, reconstruction and aggregation all run at float64 here, so
    bound checks see the mathematics rather than 32-bit wire rounding.

    The exact rows and both strategies' reconstructions sit in one
    (3, M, |V|) array, and one weighted sum over its worker axis gives the
    exact and both compressed aggregates; the L1 errors, biases and
    acceptance rates are reductions along the vocabulary axis. Each value
    is bit-identical to the per-distribution functions in ``compression``,
    ``aggregation``, ``dist`` and ``specdec``: the same float operations
    in the same order, workers summed in index order.

    ``widest``, when given, holds one slot per worker: the widest payload
    truncated so far from that worker's distribution at this position. A
    payload at least k wide is sliced (its first k entries are exactly
    ``truncate_topk`` at k); otherwise the distribution is truncated at k
    and the slot keeps the result. Pass one list per position, and only
    with that position's distributions.
    """
    m = len(worker_dists)
    if m != len(w) or m != len(k_profile):
        raise ValueError("worker count mismatch between distributions, weights, profile")
    slots = widest if widest is not None else [None] * m
    size = worker_dists[0].vocab_size
    # One allocation holds every |V|-sized array of the call, so that at a
    # large |V| the allocator hands the same pages back on the next call
    # rather than faulting in fresh ones for each temporary. Per layer
    # (exact, then each strategy): the M rows, their weighted sum, scratch.
    work = np.empty((1 + len(_LAYERS), m + 2, size))
    rows, p_bars, scratch = work[:, :m], work[:, m], work[:, m + 1]
    epsilons = []
    for i, d in enumerate(worker_dists):
        k = k_profile[i]
        payload = slots[i]
        if payload is None or payload.k < k:
            payload = slots[i] = truncate_topk(d, k)
        ids, probs = payload.ids[:k], payload.probs[:k]
        rho = float(probs.sum())
        eps = max(0.0, 1.0 - rho)
        epsilons.append(eps)
        exact, renormalized, residual = rows[:, i]
        exact[:] = d.probs
        renormalized.fill(0.0)
        if k == size:  # lossless: the payload already is the distribution
            renormalized[ids] = probs
            residual[:] = renormalized
        else:
            renormalized[ids] = probs / rho
            residual.fill(eps / (size - k))
            residual[ids] = probs
    weighted_eps = float(sum(w[i] * epsilons[i] for i in range(m)))

    np.multiply(rows[:, 0], w[0], out=p_bars)
    for i in range(1, m):
        p_bars += np.multiply(rows[:, i], w[i], out=scratch)
    gaps = rows[1:]  # the reconstructions, no longer needed, become |r - d|
    gaps -= rows[0]
    errors = np.abs(gaps, out=gaps).sum(axis=2).tolist()
    bias_gaps = np.subtract(p_bars[1:], p_bars[0], out=scratch[1:])
    biases = np.abs(bias_gaps, out=bias_gaps).sum(axis=1).tolist()
    if q is None:
        alphas = [None] * len(p_bars)
    else:
        alphas = [min(1.0, max(0.0, a))
                  for a in np.minimum(p_bars, q.probs, out=scratch).sum(axis=1).tolist()]
    alpha_exact = alphas[0]

    by_strategy = {
        strategy: StrategyMetrics(
            local_errors=tuple(errors[layer]),
            bias=biases[layer],
            alpha=alphas[1 + layer],
            dalpha=None if q is None else abs(alphas[1 + layer] - alpha_exact),
        )
        for layer, strategy in enumerate(_LAYERS)
    }
    return StepMetrics(
        worker_epsilons=tuple(epsilons),
        weighted_epsilon=weighted_eps,
        alpha_exact=alpha_exact,
        by_strategy=by_strategy,
    )


class BoundCounts(NamedTuple):
    """Violation counts of one strategy at one step."""

    lemma1: int
    thm1: int
    thm2: int


def check_bounds(step: StepMetrics, strategy: Strategy,
                 tol: float = BOUND_TOLERANCE) -> BoundCounts:
    """Count one strategy's bound violations at one step; never raises on one.

    Renormalized local error must EQUAL 2 eps (both directions checked);
    residual-uniform only has the upper bound. The acceptance check is the
    two-link chain dalpha <= bias/2 <= weighted eps; a broken link on
    either side counts once.
    """
    rec = step.by_strategy[strategy]
    pairs = zip(step.worker_epsilons, rec.local_errors)
    if strategy == Strategy.RENORMALIZED:
        lemma1 = sum(abs(err - 2.0 * e) > tol for e, err in pairs)
    else:
        lemma1 = sum(err > 2.0 * e + tol for e, err in pairs)
    thm1 = int(rec.bias > 2.0 * step.weighted_epsilon + tol)
    half_bias = rec.bias / 2.0
    thm2 = int(rec.dalpha is not None
               and (rec.dalpha > half_bias + tol or half_bias > step.weighted_epsilon + tol))
    return BoundCounts(lemma1, thm1, thm2)


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row: a (strategy, K, temperature) point averaged over steps."""

    strategy: Strategy
    m: int
    gamma: int
    vocab_size: int
    k: int
    temperature: float
    seed: int
    samples: int
    steps: int
    delta_bar: float
    eps_bar: float
    delta_alpha_bar: float
    lemma1_violations: int
    thm1_violations: int
    thm2_violations: int

    @property
    def k_pct(self) -> float:
        return 100.0 * self.k / self.vocab_size

    @property
    def two_eps_bar(self) -> float:
        return 2.0 * self.eps_bar

    @property
    def half_delta_bar(self) -> float:
        return self.delta_bar / 2.0

    @property
    def violations(self) -> int:
        return self.lemma1_violations + self.thm1_violations + self.thm2_violations

    def to_row(self) -> dict[str, object]:
        return {
            "strategy": self.strategy.name.lower(),
            "M": self.m,
            "gamma": self.gamma,
            "vocab_size": self.vocab_size,
            "K": self.k,
            "K_pct": repr(self.k_pct),
            "temperature": repr(self.temperature),
            "seed": self.seed,
            "samples": self.samples,
            "steps": self.steps,
            "delta_bar": repr(self.delta_bar),
            "eps_bar": repr(self.eps_bar),
            "two_eps_bar": repr(self.two_eps_bar),
            "delta_alpha_bar": repr(self.delta_alpha_bar),
            "half_delta_bar": repr(self.half_delta_bar),
            "lemma1_violations": self.lemma1_violations,
            "thm1_violations": self.thm1_violations,
            "thm2_violations": self.thm2_violations,
        }


class SweepTally:
    """Running sums of one strategy's step metrics, for one CSV row.

    All steps contribute to delta_bar and eps_bar; delta_alpha_bar averages
    only the positions that had a draft proposal. Sums run in the order the
    steps are added, so a row is reproducible when its steps arrive in the
    same order.
    """

    __slots__ = ("strategy", "steps", "delta_sum", "eps_sum", "dalpha_sum", "dalpha_n",
                 "lemma1", "thm1", "thm2")

    def __init__(self, strategy: Strategy) -> None:
        self.strategy = strategy
        self.steps = self.dalpha_n = self.lemma1 = self.thm1 = self.thm2 = 0
        self.delta_sum = self.eps_sum = self.dalpha_sum = 0.0

    def add(self, step: StepMetrics) -> None:
        rec = step.by_strategy[self.strategy]
        self.steps += 1
        self.delta_sum += rec.bias
        self.eps_sum += step.weighted_epsilon
        if rec.dalpha is not None:
            self.dalpha_sum += rec.dalpha
            self.dalpha_n += 1
        counts = check_bounds(step, self.strategy)
        self.lemma1 += counts.lemma1
        self.thm1 += counts.thm1
        self.thm2 += counts.thm2

    def record(self, *, m: int, gamma: int, vocab_size: int, k: int, temperature: float,
               seed: int, samples: int) -> SweepRecord:
        """The averages so far as one row at the given sweep point."""
        n = self.steps
        if not n:
            raise ValueError("cannot aggregate an empty step list")
        return SweepRecord(
            strategy=self.strategy,
            m=m,
            gamma=gamma,
            vocab_size=vocab_size,
            k=k,
            temperature=temperature,
            seed=seed,
            samples=samples,
            steps=n,
            delta_bar=self.delta_sum / n,
            eps_bar=self.eps_sum / n,
            delta_alpha_bar=(self.dalpha_sum / self.dalpha_n) if self.dalpha_n else 0.0,
            lemma1_violations=self.lemma1,
            thm1_violations=self.thm1,
            thm2_violations=self.thm2,
        )


def sweep_aggregate(steps: Sequence[StepMetrics], *, strategy: Strategy,
                    **point: int | float) -> SweepRecord:
    """Average one strategy's step metrics, in step order, into a CSV row;
    ``point`` holds ``SweepTally.record``'s keyword arguments."""
    tally = SweepTally(strategy)
    for step in steps:
        tally.add(step)
    return tally.record(**point)


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_row())


def read_sweep_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
