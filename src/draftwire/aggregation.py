"""Weighted averaging of worker distributions, exact and compressed."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compression import Strategy, TopKPayload, reconstructions
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


def weighted_sum(rows: np.ndarray | list[np.ndarray], w: WeightVector,
                 out: np.ndarray | None = None) -> np.ndarray:
    """sum_i w_i rows[i] in worker-index order: ``rows[0] * w[0]`` into
    ``out`` (new when None), then each ``rows[i] * w[i]`` added in turn.
    The one definition of the order of every dense aggregate, so no result
    depends on which worker answered first."""
    out = np.multiply(rows[0], w[0], out=out)
    for i in range(1, len(w)):
        out += rows[i] * w[i]
    return out


def aggregate(dists: list[Distribution], w: WeightVector) -> Distribution:
    """Weighted average of worker distributions, summed by ``weighted_sum``."""
    if len(dists) != len(w):
        raise ValueError(f"{len(dists)} distributions but {len(w)} weights")
    if not dists:
        raise ValueError("need at least one distribution")
    size = dists[0].vocab_size
    for d in dists[1:]:
        if d.vocab_size != size:
            raise ValueError("distributions must share a vocabulary size")
    return Distribution.unchecked(weighted_sum([d.probs for d in dists], w))


def aggregate_compressed(
    payloads: list[TopKPayload], w: WeightVector, strategy: Strategy
) -> Distribution:
    """Reconstruct each payload with ``strategy``, then aggregate.

    ``compression.reconstructions`` gives each payload's values: ``kept``
    on its ids and ``other`` everywhere else. Each payload is scattered
    into one output array, in worker-index order, rather than rebuilt as a
    dense vector first. This is ``weighted_sum`` over the ``reconstruct``
    vectors, entry by entry, with the same float operations on their
    non-negative values: the first worker's term lands on zeros (``0 + x
    == x``), an ``other`` of 0 adds nothing off the ids (``w * 0 == 0``),
    and any other adds ``w * other`` off them.
    """
    if len(payloads) != len(w):
        raise ValueError(f"{len(payloads)} payloads but {len(w)} weights")
    if not payloads:
        raise ValueError("need at least one payload")
    size = payloads[0].vocab_size
    for p in payloads[1:]:
        if p.vocab_size != size:
            raise ValueError("payloads must share a vocabulary size")
    out = np.zeros(size, dtype=np.float64)
    for i, p in enumerate(payloads):
        wi = w.weights[i]
        kept, other = reconstructions(p.probs, size)[1][strategy]
        if other == 0.0:
            out[p.ids] += wi * kept
        else:
            below = out[p.ids]
            out += wi * other
            out[p.ids] = below + wi * kept
    return Distribution.unchecked(out)
