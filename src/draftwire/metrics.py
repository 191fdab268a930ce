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
array pass over a ``ShadowBlock``, which holds what no K changes (the
stacked shadows, their exact aggregate and a payload stack), and checks
the ranges of the whole block at once. ``instrument_position`` then
builds one position's ``StepMetrics``. A ``SweepTally`` is one CSV row,
built at its (strategy, K, temperature) point, that folds that strategy's
steps as they arrive; ``sweep_aggregate`` folds a finished list into one.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .aggregation import TopKProfile, WeightVector, weighted_sum
from .compression import Strategy, _payload_order, reconstructions, truncate_topk
from .dist import Distribution

BOUND_TOLERANCE = 1e-9

# The reconstructions in the order ``score_block`` stacks them.
_LAYERS = tuple(Strategy)


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
    every ``Strategy``. ``score_block`` has checked the ranges, for the
    whole block at once.
    """

    worker_epsilons: tuple[float, ...]
    weighted_epsilon: float
    alpha_exact: float | None
    by_strategy: dict[Strategy, StrategyMetrics]


# ``score_block``'s ranges, as (upper bound, message): every value must lie
# in [0, upper bound].
_EPSILON = (1.0, "residual mass {} outside [0, 1]")
_L1 = (2.0 + BOUND_TOLERANCE, "L1 value {} outside [0, 2]")
_RATE = (1.0, "acceptance rate {} outside [0, 1]")


def _check_range(values: np.ndarray, rule: tuple[float, str]) -> None:
    """Raise ``rule``'s ValueError for the first value outside its range;
    NaN is outside every range. The values are non-negative by
    construction (or NaN), so only their maximum is read."""
    top, message = rule
    # NaN propagates into the maximum and fails the comparison
    if values.size and not values.max() <= top:
        outside = values[~((values >= 0.0) & (values <= top))]
        raise ValueError(message.format(float(outside.flat[0])))


class ShadowBlock:
    """What scoring one block's positions needs that no k profile changes.

    ``worker_dists[i][t]`` is worker i's exact distribution at position t
    and ``q_dists[t]`` the draft proposal there; positions past the last
    proposal (a block's bonus position) have none. Built once per block:
    ``exact`` holds the shadows in slots 0..M-1 of one (M + 1, positions,
    |V|) array and their exact weighted average in slot M; ``alpha_exact``
    the clamped acceptance rate of each proposal against that average, as
    one array that ``score_block`` range-checks with the others. The
    payload stack holds every worker's widest top-K payloads built so
    far, as one (positions, M, kw) ids array and one probabilities array.
    A narrower payload is a prefix of a wider one, so a block scored at
    several profiles, widest first, puts each shadow in payload order
    once.
    """

    __slots__ = ("worker_dists", "weights", "exact", "q", "alpha_exact", "offsets",
                 "_ids", "_probs")

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
        size = worker_dists[0][0].vocab_size
        self.exact = exact = np.empty((m + 1, positions, size))
        # slots 0..M-1 are one contiguous block: rows go straight in
        np.concatenate([d.probs for dists in worker_dists for d in dists],
                       out=exact[:m].reshape(-1))
        p_exact = weighted_sum(exact[:m], w, out=exact[m])
        self.q = np.array([q.probs for q in q_dists]).reshape(len(q_dists), size)
        self.alpha_exact = _acceptance(p_exact[:len(q_dists)], self.q)
        self.offsets = _scatter_offsets(m, positions, size)
        self._ids = self._probs = _NO_PAYLOADS

    def stack(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Every worker's top-k ids and probabilities at every position,
        each a (positions, M, k) view of the payload stack. When k is wider
        than the stack, the stack is rebuilt at k: below |V| by truncating
        every shadow once more; at k == |V|, with nothing to select, by one
        ``_payload_order`` sort of all M (positions) rows of ``exact``,
        held as transposed views. A shadow holding NaN raises ValueError."""
        if self._ids.shape[2] < k:
            size = self.exact.shape[2]
            if k == size:
                ids, probs = _payload_order(np.arange(size), self.exact[:len(self.weights)])
                self._ids, self._probs = ids.transpose(1, 0, 2), probs.transpose(1, 0, 2)
            else:
                tops = [[truncate_topk(d, k) for d in dists] for dists in self.worker_dists]
                positions = range(self.exact.shape[1])
                try:
                    self._ids = np.array([[top[t].ids for top in tops] for t in positions])
                except ValueError:  # payloads of unequal width
                    # only a NaN probability keeps a selection from filling k slots
                    raise ValueError(f"shadow probability nan: a top-{k} selection "
                                     f"kept fewer than {k} tokens") from None
                self._probs = np.array([[top[t].probs for top in tops] for t in positions])
        return self._ids[:, :, :k], self._probs[:, :, :k]


# An empty payload stack: narrower than every k.
_NO_PAYLOADS = np.empty((0, 0, 0))
_NO_PAYLOADS.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _scatter_offsets(m: int, positions: int, size: int) -> np.ndarray:
    """offsets[layer, t, i, 0]: the flat index of token 0 of slot (layer,
    i, t) in a C-ordered (strategies, M + 1, positions, |V|) array, indexed
    like the payload stack. Read-only, built once per shape."""
    offsets = (np.arange(len(_LAYERS) * (m + 1) * positions).reshape(
        len(_LAYERS), m + 1, positions) * size).transpose(0, 2, 1)[..., None]
    offsets.setflags(write=False)
    return offsets


def _acceptance(p_bars: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum(min(p, q)) along the vocabulary axis, clamped to [0, 1]; NaN
    stays NaN, for the range check to find."""
    return np.minimum(1.0, np.maximum(0.0, np.minimum(p_bars, q).sum(axis=-1)))


class BlockScores(NamedTuple):
    """One block scored at one k profile, as plain per-position lists.

    Indexed [t], then per ``Strategy`` in ``_LAYERS`` order, then per
    worker; ``alphas`` covers the positions that have a proposal. Every
    value is already range-checked.
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

    Workers are grouped by k: a homogeneous profile is one group, a mixed
    one has a group per distinct k. Per group, one ``compression.
    reconstructions`` call over the payload stack's (positions, G, k)
    slice gives eps and every strategy's values. Per strategy, the group's
    slots of one (strategies, M + 1, positions, |V|) array are filled with
    the value of every token not kept, and the kept values are scattered
    in through flat offsets. Slot M gets the compressed aggregate,
    ``weighted_sum`` over the worker slots. Subtracting ``exact`` turns every
    slot into its gap to the exact row, so the L1 local errors (slots
    0..M-1) and biases (slot M) are one reduction along the contiguous
    vocabulary axis, as are the acceptance rates. Each value is
    bit-identical to the per-distribution functions in ``compression``,
    ``aggregation``, ``dist`` and ``specdec``: the same float operations in
    the same order, workers summed in index order.

    When every k is |V|, every payload reconstructs to its shadow bit for
    bit, so the compressed aggregate is the exact one: local errors and
    biases are 0.0 and each alpha is ``alpha_exact``, returned with no
    reconstruction array. eps still comes from ``reconstructions``.

    The range checks of every value run here, once for the whole block:
    eps in [0, 1], L1 values in [0, 2] and the clamped rates,
    ``block.alpha_exact`` among them, in [0, 1]. Each raises a ValueError
    naming the first value outside.
    """
    w = block.weights
    m = len(w)
    ks = k_profile.ks
    if m != len(ks):
        raise ValueError("worker count mismatch between distributions, weights, profile")
    exact = block.exact
    _, positions, size = exact.shape
    ids, probs = block.stack(max(ks))
    if min(ks) == size:
        epsilons = reconstructions(probs, size)[0]
        _check_range(epsilons, _EPSILON)
        _check_range(block.alpha_exact, _RATE)
        alpha_exact = block.alpha_exact.tolist()
        return BlockScores(
            epsilons=epsilons.tolist(),
            weighted_epsilons=weighted_sum(epsilons.T, w).tolist(),
            local_errors=[[[0.0] * m for _ in _LAYERS] for _ in range(positions)],
            biases=[[0.0] * len(_LAYERS) for _ in range(positions)],
            alpha_exact=alpha_exact,
            alphas=[[a] * len(_LAYERS) for a in alpha_exact],
        )
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(ks):
        groups.setdefault(k, []).append(i)
    recon = np.empty((len(_LAYERS), m + 1, positions, size))
    flat = recon.reshape(-1)
    epsilons = np.empty((positions, m))
    for k, workers in groups.items():
        group = slice(0, m) if len(workers) == m else workers  # one group: views, no copies
        epsilons[:, group], rules = reconstructions(probs[:, group, :k], size)
        group_ids = ids[:, group, :k]
        for layer, strategy in enumerate(_LAYERS):
            kept, other = rules[strategy]
            recon[layer, group] = np.asarray(other).T[..., None]  # per payload, or a scalar
            flat[block.offsets[layer][:, group] + group_ids] = kept
    _check_range(epsilons, _EPSILON)
    p_comp = weighted_sum(recon[:, :m].swapaxes(0, 1), w, out=recon[:, m])
    alphas = _acceptance(p_comp[:, :len(block.q)], block.q)
    recon -= exact  # every slot becomes its gap to the exact row
    l1 = np.abs(recon, out=recon).sum(axis=-1)
    _check_range(l1, _L1)
    _check_range(alphas, _RATE)
    _check_range(block.alpha_exact, _RATE)
    return BlockScores(
        epsilons=epsilons.tolist(),
        weighted_epsilons=weighted_sum(epsilons.T, w).tolist(),
        local_errors=l1[:, :m].transpose(2, 0, 1).tolist(),
        biases=l1[:, m].T.tolist(),
        alpha_exact=block.alpha_exact.tolist(),
        alphas=alphas.T.tolist(),
    )


def instrument_position(scores: BlockScores, t: int) -> StepMetrics:
    """Position t's ``StepMetrics``, from its block's ``score_block``, which
    has checked every range already."""
    has_q = t < len(scores.alphas)
    alpha_exact = scores.alpha_exact[t] if has_q else None
    errors, biases = scores.local_errors[t], scores.biases[t]
    alphas = scores.alphas[t] if has_q else [None] * len(_LAYERS)
    return StepMetrics(
        tuple(scores.epsilons[t]),
        scores.weighted_epsilons[t],
        alpha_exact,
        {
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


def check_bounds(step: StepMetrics, strategy: Strategy) -> BoundCounts:
    """Count one strategy's bound violations at one step; never raises on one.

    Where ``strategy.local_error_is_exact`` (renormalized) the local error
    must EQUAL 2 eps, both directions checked; otherwise (residual-uniform)
    it only has the upper bound. The acceptance check is the
    two-link chain dalpha <= bias/2 <= weighted eps; a broken link on
    either side counts once.
    """
    rec = step.by_strategy[strategy]
    tol = BOUND_TOLERANCE
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


class SweepTally:
    """One CSV row: a (strategy, K, temperature) point, averaged over the
    steps added to it.

    All steps contribute to delta_bar and eps_bar; delta_alpha_bar averages
    only the positions that had a draft proposal. Sums run in the order the
    steps are added, so a row is reproducible when its steps arrive in the
    same order. The averages of a row with no steps raise ValueError.
    """

    __slots__ = ("strategy", "m", "gamma", "vocab_size", "k", "temperature", "seed",
                 "samples", "steps", "delta_sum", "eps_sum", "dalpha_sum", "dalpha_n",
                 "lemma1_violations", "thm1_violations", "thm2_violations")

    def __init__(self, strategy: Strategy, *, m: int, gamma: int, vocab_size: int, k: int,
                 temperature: float, seed: int, samples: int) -> None:
        self.strategy = strategy
        self.m, self.gamma, self.vocab_size, self.k = m, gamma, vocab_size, k
        self.temperature, self.seed, self.samples = temperature, seed, samples
        self.steps = self.dalpha_n = 0
        self.lemma1_violations = self.thm1_violations = self.thm2_violations = 0
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
        self.lemma1_violations += counts.lemma1
        self.thm1_violations += counts.thm1
        self.thm2_violations += counts.thm2

    def _mean(self, total: float, n: int) -> float:
        if not self.steps:
            raise ValueError("cannot aggregate an empty step list")
        return total / n if n else 0.0

    @property
    def delta_bar(self) -> float:
        return self._mean(self.delta_sum, self.steps)

    @property
    def eps_bar(self) -> float:
        return self._mean(self.eps_sum, self.steps)

    @property
    def delta_alpha_bar(self) -> float:
        return self._mean(self.dalpha_sum, self.dalpha_n)

    @property
    def violations(self) -> int:
        return self.lemma1_violations + self.thm1_violations + self.thm2_violations

    def to_row(self) -> dict[str, object]:
        return {column: value(self) for column, value in _CSV_SCHEMA}


# The CSV schema: each column of a sweep row, in order, and its value. The
# csv module writes a float as its repr() and any other value as its str().
_CSV_SCHEMA: tuple[tuple[str, Callable[[SweepTally], object]], ...] = (
    ("strategy", lambda row: row.strategy.name.lower()),
    ("M", lambda row: row.m),
    ("gamma", lambda row: row.gamma),
    ("vocab_size", lambda row: row.vocab_size),
    ("K", lambda row: row.k),
    ("K_pct", lambda row: 100.0 * row.k / row.vocab_size),
    ("temperature", lambda row: row.temperature),
    ("seed", lambda row: row.seed),
    ("samples", lambda row: row.samples),
    ("steps", lambda row: row.steps),
    ("delta_bar", lambda row: row.delta_bar),
    ("eps_bar", lambda row: row.eps_bar),
    ("two_eps_bar", lambda row: 2.0 * row.eps_bar),
    ("delta_alpha_bar", lambda row: row.delta_alpha_bar),
    ("half_delta_bar", lambda row: row.delta_bar / 2.0),
    ("lemma1_violations", lambda row: row.lemma1_violations),
    ("thm1_violations", lambda row: row.thm1_violations),
    ("thm2_violations", lambda row: row.thm2_violations),
)

CSV_COLUMNS = [column for column, _ in _CSV_SCHEMA]


def sweep_aggregate(steps: Sequence[StepMetrics], *, strategy: Strategy,
                    **point: int | float) -> SweepTally:
    """Average one strategy's step metrics, in step order, into a CSV row;
    ``point`` holds ``SweepTally``'s keyword arguments."""
    if not steps:
        raise ValueError("cannot aggregate an empty step list")
    row = SweepTally(strategy, **point)
    for step in steps:
        row.add(step)
    return row


def write_sweep_csv(records: Sequence[SweepTally], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.to_row())


def read_sweep_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
