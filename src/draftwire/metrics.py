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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .aggregation import TopKProfile, WeightVector, aggregate
from .compression import Strategy, mass_split, reconstruct, truncate_topk
from .dist import Distribution, l1_distance
from .specdec import acceptance_rate

BOUND_TOLERANCE = 1e-9

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


def local_error(original: Distribution, reconstructed: Distribution) -> float:
    """L1 distance between a worker distribution and its reconstruction."""
    return l1_distance(original, reconstructed)


def aggregation_bias(exact: Distribution, compressed: Distribution) -> float:
    """L1 distance between the exact and compressed weighted averages."""
    return l1_distance(exact, compressed)


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
) -> StepMetrics:
    """Score one position from exact shadow distributions.

    Truncation, reconstruction and aggregation all run at float64 here, so
    bound checks see the mathematics rather than 32-bit wire rounding.
    """
    if len(worker_dists) != len(w) or len(worker_dists) != len(k_profile):
        raise ValueError("worker count mismatch between distributions, weights, profile")

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
            local_errors=tuple(local_error(d, r) for d, r in zip(worker_dists, recon)),
            bias=aggregation_bias(p_exact, p_comp),
            alpha=alpha,
            dalpha=None if alpha is None else abs(alpha - alpha_exact),
        )

    return StepMetrics(
        worker_epsilons=epsilons,
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


def sweep_aggregate(
    steps: Sequence[StepMetrics],
    *,
    strategy: Strategy,
    m: int,
    gamma: int,
    vocab_size: int,
    k: int,
    temperature: float,
    seed: int,
    samples: int,
) -> SweepRecord:
    """Average one strategy's step metrics into a CSV row.

    All steps contribute to delta_bar and eps_bar; delta_alpha_bar averages
    only the positions that had a draft proposal. Summation runs in step
    order for reproducibility.
    """
    if not steps:
        raise ValueError("cannot aggregate an empty step list")
    delta_sum = 0.0
    eps_sum = 0.0
    dalpha_sum = 0.0
    dalpha_n = 0
    l1 = t1 = t2 = 0
    for s in steps:
        rec = s.by_strategy[strategy]
        delta_sum += rec.bias
        eps_sum += s.weighted_epsilon
        if rec.dalpha is not None:
            dalpha_sum += rec.dalpha
            dalpha_n += 1
        a, b, c = check_bounds(s, strategy)
        l1 += a
        t1 += b
        t2 += c
    n = len(steps)
    return SweepRecord(
        strategy=strategy,
        m=m,
        gamma=gamma,
        vocab_size=vocab_size,
        k=k,
        temperature=temperature,
        seed=seed,
        samples=samples,
        steps=n,
        delta_bar=delta_sum / n,
        eps_bar=eps_sum / n,
        delta_alpha_bar=(dalpha_sum / dalpha_n) if dalpha_n else 0.0,
        lemma1_violations=l1,
        thm1_violations=t1,
        thm2_violations=t2,
    )


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_row())


def read_sweep_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
