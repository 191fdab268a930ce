"""Probability vectors over a shared vocabulary and their core operations.

Everything downstream (compression, aggregation, verification, metrics) is
built on the small set of primitives here. All values are immutable after
construction and all functions are pure; RNG state is always an explicit
parameter.
"""

from __future__ import annotations

import numpy as np

SUM_TOLERANCE = 1e-9


class Distribution:
    """Dense probability vector over a vocabulary.

    Entries are non-negative and sum to 1 within an absolute tolerance
    (default ``1e-9``); construction renormalizes exactly once when the sum
    deviates by less than the tolerance and rejects otherwise. The backing
    array is float64 and frozen, so instances are safe to share across
    threads.
    """

    __slots__ = ("probs",)

    def __init__(self, probs, *, tol: float = SUM_TOLERANCE) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("distribution must be a 1-D vector of length >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0.0):
            raise ValueError("distribution entries must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > tol:
            raise ValueError(
                f"distribution sums to {total!r}, outside tolerance {tol} of 1"
            )
        if total != 1.0:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def unchecked(cls, probs: np.ndarray) -> "Distribution":
        """Wrap an array that is already known to be a valid distribution.

        Internal fast path: skips validation and renormalization so that
        values coming from an already-validated source are preserved
        bit-for-bit. Callers own the correctness of the input.
        """
        self = object.__new__(cls)
        arr = np.asarray(probs, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        return self

    @property
    def vocab_size(self) -> int:
        return int(self.probs.shape[0])

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("Distribution is immutable")

    def __repr__(self) -> str:
        return f"Distribution({self.probs!r})"


def _check_same_vocab(a: Distribution, b: Distribution) -> None:
    if a.vocab_size != b.vocab_size:
        raise ValueError(
            f"vocab size mismatch: {a.vocab_size} vs {b.vocab_size}"
        )


def check_temperature(temperature: float) -> None:
    """The one validity rule for a temperature: finite and > 0."""
    if not 0.0 < temperature < np.inf:  # false for NaN too
        raise ValueError(f"temperature must be finite and > 0, got {temperature!r}")


def softmax_inplace(logits: np.ndarray, temperature: float) -> Distribution:
    """Temperature-rescaled softmax, computed inside ``logits``, a float64
    array that the caller hands over: it becomes the distribution's storage.

    Computes ``exp((logit - max) / T)`` and normalizes; subtracting the max
    keeps the exponentials in range, and the division at T = 1, which is
    exact, is skipped. Lower temperatures sharpen the distribution, higher
    ones flatten it, and the ranking of the logits is preserved either way.
    A temperature so small that a logit gap divided by it overflows sends
    that logit to -inf, whose weight is 0: the T -> 0 limit, not an error,
    so that overflow is not reported.
    """
    check_temperature(temperature)
    if logits.ndim != 1 or logits.size < 2:
        raise ValueError("logits must be a 1-D vector of length >= 2")
    hi = logits.max()
    # the max and the min are NaN if any entry is, and infinite if one is
    if not (np.isfinite(hi) and np.isfinite(logits.min())):
        raise ValueError("logits must be finite")
    logits -= hi
    if temperature != 1.0:
        with np.errstate(over="ignore"):
            logits /= temperature
    np.exp(logits, out=logits)
    logits /= logits.sum()
    return Distribution.unchecked(logits)


def l1_distance(a: Distribution, b: Distribution) -> float:
    """L1 distance between two distributions; lies in [0, 2]."""
    _check_same_vocab(a, b)
    return float(np.abs(a.probs - b.probs).sum())


def sample_from_uniform(d: Distribution, u: float) -> int:
    """Inverse-CDF sample: smallest token id whose CDF exceeds ``u``.

    Pure function of (distribution, u); scanning ascending token ids makes
    the result identical across runs, platforms and transport modes. The
    returned token always has positive probability.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw must lie in [0, 1), got {u!r}")
    cdf = np.cumsum(d.probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= d.vocab_size:
        # Float shortfall in the final CDF entry: fall back to the last
        # token with positive probability.
        idx = int(np.flatnonzero(d.probs > 0.0)[-1])
    return idx


def sample(d: Distribution, rng: np.random.Generator) -> int:
    """Draw one token: a single uniform from ``rng``, then inverse CDF."""
    return sample_from_uniform(d, float(rng.random()))
