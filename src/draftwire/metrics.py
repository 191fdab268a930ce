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

``score_block`` scores every position of a block at one k profile in one
array pass over a ``ShadowBlock``, which holds what no K changes: the
stacked shadows, their exact aggregates and each shadow's widest top-K
payload (a prefix of it is the narrower payload), so a sweep that scores a
record at its widest K first truncates each shadow once.
``instrument_position`` builds one position's ``StepMetrics`` from the
block's scores. A ``SweepTally`` folds one strategy's steps into a CSV row
as they arrive; the sweep keeps one per (K, strategy) and
``sweep_aggregate`` folds a finished list.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .aggregation import TopKProfile, WeightVector
from .compression import Strategy, reconstructions, truncate_topk
from .dist import Distribution

BOUND_TOLERANCE = 1e-9

# The reconstructions in the order ``score_block`` stacks them.
_LAYERS = tuple(Strategy)

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


class ShadowBlock:
    """What scoring one block's positions needs that no k profile changes.

    ``worker_dists[i][t]`` is worker i's exact distribution at position t
    and ``q_dists[t]`` the draft proposal there; positions past the last
    proposal (a block's bonus position) have none. Built once per block:
    the shadows stacked as one (positions, M, |V|) array, their exact
    weighted averages, and the acceptance rate of each proposal against
    its average. ``payloads`` keeps each worker's widest top-K payloads
    truncated so far, so a block scored at several profiles, widest first,
    truncates each shadow once.
    """

    __slots__ = ("worker_dists", "weights", "rows", "p_exact", "q", "alpha_exact", "_widest")

    def __init__(self, worker_dists: Sequence[Sequence[Distribution]],
                 q_dists: Sequence[Distribution], w: WeightVector) -> None:
        m = len(worker_dists)
        if m != len(w):
            raise ValueError("worker count mismatch between distributions, weights, profile")
        positions = len(worker_dists[0])
        if any(len(dists) != positions for dists in worker_dists) or len(q_dists) > positions:
            raise ValueError("every worker needs one distribution per position")
        self.worker_dists = worker_dists
        self.weights = w
        self.rows = rows = np.array([[dists[t].probs for dists in worker_dists]
                                     for t in range(positions)])
        # weighted sums run in worker-index order, as in ``aggregate``
        self.p_exact = p_exact = np.multiply(rows[:, 0], w[0])
        for i in range(1, m):
            p_exact += rows[:, i] * w[i]
        self.q = np.array([q.probs for q in q_dists]).reshape(len(q_dists), rows.shape[2])
        self.alpha_exact = [_clamp(a) for a in
                            _acceptance(p_exact[:len(q_dists)], self.q).tolist()]
        self._widest: list[tuple[np.ndarray, np.ndarray] | None] = [None] * m

    def payloads(self, i: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Worker i's top-k ids and probabilities at every position, each
        (positions, k): a prefix of a wider payload is the narrower one."""
        widest = self._widest[i]
        if widest is None or widest[0].shape[1] < k:
            tops = [truncate_topk(d, k) for d in self.worker_dists[i]]
            widest = self._widest[i] = (np.array([p.ids for p in tops]),
                                        np.array([p.probs for p in tops]))
        ids, probs = widest
        return ids[:, :k], probs[:, :k]


def _acceptance(p_bars: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum(min(p, q)) along the vocabulary axis, unclamped."""
    return np.minimum(p_bars, q).sum(axis=-1)


def _clamp(a: float) -> float:
    return min(1.0, max(0.0, a))


class BlockScores(NamedTuple):
    """One block scored at one k profile, as plain per-position lists.

    Indexed [t], then per ``Strategy`` in ``_LAYERS`` order, then per
    worker; ``alphas`` covers the positions that have a proposal.
    """

    epsilons: list[list[float]]
    weighted_epsilons: list[float]
    local_errors: list[list[list[float]]]
    biases: list[list[float]]
    alpha_exact: list[float]
    alphas: list[list[float]]


def score_block(block: ShadowBlock, k_profile: TopKProfile) -> BlockScores:
    """Score every position of a block at one k profile in one array pass.

    Truncation, reconstruction and aggregation all run at float64 here, so
    bound checks see the mathematics rather than 32-bit wire rounding.

    Per worker (k may differ between workers), ``compression.
    reconstructions`` gives eps and every strategy's values at all
    positions at once; they fill one (positions, strategies, M, |V|) array
    of reconstructions. Weighted sums over its worker axis give every
    compressed aggregate; L1 errors, biases and acceptance rates are
    reductions along the contiguous vocabulary axis. Each value is
    bit-identical to the per-distribution functions in ``compression``,
    ``aggregation``, ``dist`` and ``specdec``: the same float operations in
    the same order, workers summed in index order.
    """
    w = block.weights
    m = len(w)
    if m != len(k_profile):
        raise ValueError("worker count mismatch between distributions, weights, profile")
    rows = block.rows
    positions, _, size = rows.shape
    recon = np.empty((positions, len(_LAYERS), m, size))
    epsilons = np.empty((positions, m))
    at = np.arange(positions)[:, None]
    for i in range(m):
        ids, probs = block.payloads(i, k_profile[i])
        epsilons[:, i], rules = reconstructions(probs, size)
        for layer, strategy in enumerate(_LAYERS):
            kept, other = rules[strategy]
            recon[:, layer, i].T[...] = other  # one value per position, or a scalar
            recon[at, layer, i, ids] = kept
    weighted = epsilons[:, 0] * w[0]
    p_comp = recon[:, :, 0] * w[0]
    for i in range(1, m):
        weighted += epsilons[:, i] * w[i]
        p_comp += recon[:, :, i] * w[i]
    alphas = [[_clamp(a) for a in row] for row in
              _acceptance(p_comp[:len(block.q)], block.q[:, None]).tolist()]
    recon -= rows[:, None]  # the reconstructions become their gaps to the shadows
    p_comp -= block.p_exact[:, None]
    return BlockScores(
        epsilons=epsilons.tolist(),
        weighted_epsilons=weighted.tolist(),
        local_errors=np.abs(recon, out=recon).sum(axis=-1).tolist(),
        biases=np.abs(p_comp, out=p_comp).sum(axis=-1).tolist(),
        alpha_exact=block.alpha_exact,
        alphas=alphas,
    )


def instrument_position(scores: BlockScores, t: int) -> StepMetrics:
    """Position t's ``StepMetrics``, from its block's ``score_block``."""
    has_q = t < len(scores.alphas)
    alpha_exact = scores.alpha_exact[t] if has_q else None
    errors, biases = scores.local_errors[t], scores.biases[t]
    alphas = scores.alphas[t] if has_q else [None] * len(_LAYERS)
    return StepMetrics(
        worker_epsilons=tuple(scores.epsilons[t]),
        weighted_epsilon=scores.weighted_epsilons[t],
        alpha_exact=alpha_exact,
        by_strategy={
            strategy: StrategyMetrics(
                local_errors=tuple(errors[layer]),
                bias=biases[layer],
                alpha=alphas[layer],
                dalpha=None if alpha_exact is None else abs(alphas[layer] - alpha_exact),
            )
            for layer, strategy in enumerate(_LAYERS)
        },
    )


class BoundCounts(NamedTuple):
    """Violation counts of one strategy at one step."""

    lemma1: int
    thm1: int
    thm2: int


def check_bounds(step: StepMetrics, strategy: Strategy,
                 tol: float = BOUND_TOLERANCE) -> BoundCounts:
    """Count one strategy's bound violations at one step; never raises on one.

    Where ``strategy.local_error_is_exact`` (renormalized) the local error
    must EQUAL 2 eps, both directions checked; otherwise (residual-uniform)
    it only has the upper bound. The acceptance check is the
    two-link chain dalpha <= bias/2 <= weighted eps; a broken link on
    either side counts once.
    """
    rec = step.by_strategy[strategy]
    pairs = zip(step.worker_epsilons, rec.local_errors)
    if strategy.local_error_is_exact:
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
