"""Weighted averaging of worker distributions, exact and compressed."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import Strategy, TopKPayload, mass_split
from .dist import Distribution

WEIGHT_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Per-worker aggregation weights: non-negative, summing to one.

    Invalid weights are rejected, never silently renormalized; a
    misconfigured weight file should fail loudly rather than skew every
    downstream bound check.
    """

    weights: np.ndarray = field(repr=False)

    def __init__(self, weights) -> None:
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("weights must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOLERANCE}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @classmethod
    def uniform(cls, m: int) -> "WeightVector":
        if m < 1:
            raise ValueError("need at least one worker")
        return cls(np.full(m, 1.0 / m))

    def __len__(self) -> int:
        return int(self.weights.shape[0])

    def __getitem__(self, i: int) -> float:
        return float(self.weights[i])


@dataclass(frozen=True)
class TopKProfile:
    """Per-worker truncation sizes. Heterogeneous k across workers is fine."""

    ks: tuple[int, ...]

    def __init__(self, ks, vocab_size: int) -> None:
        tup = tuple(int(k) for k in ks)
        if not tup:
            raise ValueError("profile must cover at least one worker")
        for k in tup:
            if not 1 <= k <= vocab_size:
                raise ValueError(f"k={k} out of range [1, {vocab_size}]")
        object.__setattr__(self, "ks", tup)

    @classmethod
    def homogeneous(cls, k: int, m: int, vocab_size: int) -> "TopKProfile":
        return cls((k,) * m, vocab_size)

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, i: int) -> int:
        return self.ks[i]


def aggregate(dists: list[Distribution], w: WeightVector) -> Distribution:
    """Weighted average of worker distributions.

    Summation runs in worker-index order so the result does not depend on
    which worker's response arrived first.
    """
    if len(dists) != len(w):
        raise ValueError(f"{len(dists)} distributions but {len(w)} weights")
    if not dists:
        raise ValueError("need at least one distribution")
    size = dists[0].vocab_size
    for d in dists[1:]:
        if d.vocab_size != size:
            raise ValueError("distributions must share a vocabulary size")
    out = np.zeros(size, dtype=np.float64)
    for i, d in enumerate(dists):
        out += w.weights[i] * d.probs
    return Distribution.unchecked(out)


def aggregate_compressed(
    payloads: list[TopKPayload], w: WeightVector, strategy: Strategy
) -> Distribution:
    """Reconstruct each payload with ``strategy``, then aggregate.

    Each payload is scattered into one output array, in worker-index order,
    rather than rebuilt as a dense vector first. Every entry gets the sum
    ``aggregate`` forms over the ``reconstruct`` vectors,
    ``(0 + w_0 a_0) + w_1 a_1 + ...``, with the same float operations: a
    renormalized payload adds nothing off its ids (``w * 0 == 0``), and a
    residual-uniform one adds ``w * (epsilon / tail)`` off them.
    """
    if len(payloads) != len(w):
        raise ValueError(f"{len(payloads)} payloads but {len(w)} weights")
    if not payloads:
        raise ValueError("need at least one payload")
    size = payloads[0].vocab_size
    for p in payloads[1:]:
        if p.vocab_size != size:
            raise ValueError("payloads must share a vocabulary size")
    if strategy not in (Strategy.RENORMALIZED, Strategy.RESIDUAL_UNIFORM):
        raise ValueError(f"unknown reconstruction strategy {strategy!r}")
    out = np.zeros(size, dtype=np.float64)
    for i, p in enumerate(payloads):
        wi = w.weights[i]
        split = mass_split(p)
        tail = size - p.k
        if strategy == Strategy.RENORMALIZED:
            if split.rho <= 0.0:
                raise ValueError("cannot renormalize a payload with zero retained mass")
            # at k == |V| the payload already is the distribution
            out[p.ids] += wi * (p.probs if tail == 0 else p.probs / split.rho)
        elif tail == 0:
            out[p.ids] += wi * p.probs
        else:
            kept = out[p.ids]
            out += wi * (split.epsilon / tail)
            out[p.ids] = kept + wi * p.probs
    return Distribution.unchecked(out)
