"""Top-K truncation of distributions, reconstruction, and the payload codec.

A worker keeps only the K highest-probability tokens of its output
distribution and ships (token id, probability) pairs. The server rebuilds a
full distribution from the payload in one of two ways:

* ``RENORMALIZED``   - rescale the received probabilities to sum to 1 and
                       assign zero to every other token.
* ``RESIDUAL_UNIFORM`` - keep the received probabilities as transmitted and
                       spread the missing mass uniformly over the tail.

``reconstructions`` is the only definition of both: ``reconstruct``, the
decode path's ``aggregate_compressed`` and the metrics' ``score_block``
all take their values from it.

Payload body layout (little-endian):

    u32 vocab_size | u32 k | k x (u32 token_id, f32 probability)

entries ordered by (probability desc, token id asc), as ``_payload_order``
alone defines it, for one payload or every row of an array. Framing
belongs to the transport layer; this module only defines the body.

Validation: ``TopKPayload(...)`` checks every invariant (range, duplicates,
order, ties, mass). ``decode_payload`` is the entry point for bytes from a
peer and re-checks them all at ``POST_WIRE_TOLERANCE`` (f32 rounding
slack). Payloads that ``truncate_topk`` builds locally are trusted by
construction and skip the checks; a property test holds them to the
validating constructor at ``PRE_WIRE_TOLERANCE``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dist import Distribution

# Validation budgets: exact math pre-wire, f32 rounding slack post-wire.
PRE_WIRE_TOLERANCE = 1e-9
POST_WIRE_TOLERANCE = 1e-5

_HEADER_BYTES = 8
_ENTRY_DTYPE = np.dtype([("id", "<u4"), ("p", "<f4")])


class PayloadError(ValueError):
    """A payload or its encoding violates an invariant."""


class TruncatedPayloadError(PayloadError):
    """Byte buffer shorter (or longer) than its header declares."""


class PayloadHeaderError(PayloadError):
    """vocab_size or k out of range."""


class DuplicateTokenError(PayloadError):
    """The same token id appears twice."""


class TokenRangeError(PayloadError):
    """A token id falls outside [0, vocab_size)."""


class ProbabilityValueError(PayloadError):
    """A probability is negative, non-finite, or the total mass is invalid."""


class EntryOrderError(PayloadError):
    """Entries are not sorted by (probability desc, token id asc)."""


class Strategy(enum.IntEnum):
    """Server-side reconstruction strategy selector."""

    RENORMALIZED = 1
    RESIDUAL_UNIFORM = 2

    @property
    def local_error_is_exact(self) -> bool:
        """Whether the L1 error of a reconstruction is exactly 2 eps, rather
        than at most 2 eps: true when the tail is rebuilt as zero."""
        return self is Strategy.RENORMALIZED


@dataclass(frozen=True)
class MassSplit:
    """Retained mass inside the top-K set and residual mass outside it."""

    rho: float
    epsilon: float


class TopKPayload:
    """The top-K tokens of one distribution plus their probabilities.

    ``ids`` and ``probs`` are parallel arrays of length k, sorted by
    (probability desc, token id asc). Probabilities are held at float64;
    the wire narrows them to float32.
    """

    __slots__ = ("vocab_size", "ids", "probs")

    def __init__(self, vocab_size: int, ids, probs, *, tol: float = PRE_WIRE_TOLERANCE) -> None:
        ids_arr = np.asarray(ids, dtype=np.int64)
        probs_arr = np.asarray(probs, dtype=np.float64)
        if ids_arr.ndim != 1 or probs_arr.shape != ids_arr.shape:
            raise PayloadError("ids and probs must be 1-D arrays of equal length")
        k = int(ids_arr.shape[0])
        if vocab_size < 2:
            raise PayloadHeaderError(f"vocab_size must be >= 2, got {vocab_size}")
        if not 1 <= k <= vocab_size:
            raise PayloadHeaderError(f"k={k} out of range [1, {vocab_size}]")
        if ids_arr.min() < 0 or ids_arr.max() >= vocab_size:
            raise TokenRangeError("token id outside [0, vocab_size)")
        sorted_ids = np.sort(ids_arr)
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise DuplicateTokenError("duplicate token ids in payload")
        # the min and the max are NaN if any entry is
        if not (probs_arr.min() >= 0.0 and probs_arr.max() < np.inf):
            raise ProbabilityValueError("probabilities must be finite and non-negative")
        diffs = np.diff(probs_arr)
        if np.any(diffs >= 0.0):  # a rise or a tie: find out which
            if np.any(diffs > 0.0):
                raise EntryOrderError("probabilities must be non-increasing")
            if np.any((diffs == 0.0) & (np.diff(ids_arr) <= 0)):
                raise EntryOrderError("tied probabilities must be ordered by ascending token id")
        total = float(probs_arr.sum())
        if total <= 0.0 or total > 1.0 + tol:
            raise ProbabilityValueError(
                f"retained mass {total!r} outside (0, 1 + {tol}]"
            )
        ids_arr.setflags(write=False)
        probs_arr.setflags(write=False)
        object.__setattr__(self, "vocab_size", int(vocab_size))
        object.__setattr__(self, "ids", ids_arr)
        object.__setattr__(self, "probs", probs_arr)

    @classmethod
    def unchecked(cls, vocab_size: int, ids: np.ndarray, probs: np.ndarray) -> "TopKPayload":
        """Wrap int64 ids and float64 probabilities already known to form a
        valid payload; no checks. Internal fast path for ``truncate_topk``."""
        self = object.__new__(cls)
        ids.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "vocab_size", int(vocab_size))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "probs", probs)
        return self

    @property
    def k(self) -> int:
        return int(self.ids.shape[0])

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(p)) for i, p in zip(self.ids, self.probs)]

    def __setattr__(self, name, value):  # noqa: ANN001
        raise AttributeError("TopKPayload is immutable")

    def __repr__(self) -> str:
        return f"TopKPayload(vocab_size={self.vocab_size}, entries={self.entries!r})"


def truncate_topk(d: Distribution, k: int) -> TopKPayload:
    """Keep the k highest-probability tokens of ``d``.

    Ties are broken by ascending token id, both for which tokens enter the
    top-K set and for the order of the entries, so the selection is a total
    order and identical everywhere.

    Selection is a threshold select in O(|V|): a partition finds the k-th
    largest probability ``v``, and one pass takes every token at or above
    it. All those above ``v`` are kept; if ties at ``v`` overfill the k
    slots, the lowest tied ids fill them. Only the k kept entries are then
    put in payload order by ``_payload_order``: one unstable argsort, with
    a lexsort fallback only when two kept probabilities are equal. At
    k == |V| there is nothing to select: the whole distribution is one
    row for ``_payload_order``.

    The selection yields distinct in-range ids in payload order, so the
    result skips validation (``TopKPayload.unchecked``).
    """
    size = d.vocab_size
    if not 1 <= k <= size:
        raise ValueError(f"k={k} out of range [1, {size}]")
    p = d.probs
    if k == size:
        # the ids are the permutation itself
        order, probs = _payload_order(np.arange(size), p)
        return TopKPayload.unchecked(size, order, probs)
    v = np.partition(p, size - k)[size - k]
    kept = np.flatnonzero(p >= v)
    probs = p[kept]
    if kept.size > k:
        # flatnonzero returns ascending ids, so the cut keeps the lowest tied ids
        above = probs > v
        tied = np.flatnonzero(~above)[: k - np.count_nonzero(above)]
        above[tied] = True
        kept, probs = kept[above], probs[above]
    order, probs = _payload_order(kept, probs)
    return TopKPayload.unchecked(size, kept[order], probs)


def _payload_order(ids: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's permutation into payload order, (probability desc, id
    asc), and its probabilities gathered in that order, both shaped like
    ``probs``: one payload's (n,) entries or every row of an (..., n)
    array. ``ids`` broadcasts to ``probs``.

    One unstable ``argsort`` along the rows orders every row whose
    probabilities are all distinct, whatever its ids, and one flat gather
    reads them. Only a row in which two sorted probabilities are equal
    falls back to ``lexsort``, with ascending ids breaking the tie.
    """
    order = np.argsort(-probs, axis=-1)
    flat = order
    if probs.ndim > 1:  # shift each row's permutation to the row's flat start
        n = probs.shape[-1]
        flat = order + np.arange(0, probs.size, n).reshape(*probs.shape[:-1], 1)
    ordered = probs.reshape(-1)[flat]
    ties = ordered[..., 1:] == ordered[..., :-1]
    if ties.any():
        tied = ties.any(axis=-1)
        tied_probs = probs[tied]
        # lexsort: primary key last
        fixed = np.lexsort((np.broadcast_to(ids, probs.shape)[tied], -tied_probs), axis=-1)
        order[tied] = fixed
        ordered[tied] = np.take_along_axis(tied_probs, fixed, axis=-1)
    return order, ordered


def mass_split(p: TopKPayload) -> MassSplit:
    """Retained mass rho and residual mass epsilon = 1 - rho.

    Float sums may overshoot 1 by a hair (more so after the f32 wire), in
    which case epsilon clamps to 0; payload validation already bounds the
    overshoot.
    """
    rho = float(p.probs.sum())
    eps = 1.0 - rho
    if eps < 0.0:
        eps = 0.0
    return MassSplit(rho=rho, epsilon=eps)


class _Rules(dict):
    """``reconstructions``' per-strategy values; an unknown key is a ValueError."""

    def __missing__(self, strategy):  # noqa: ANN001
        raise ValueError(f"unknown reconstruction strategy {strategy!r}")


def reconstructions(
    probs: np.ndarray, vocab_size: int
) -> tuple[np.ndarray, dict[Strategy, tuple[np.ndarray, np.ndarray | float]]]:
    """The reconstruction rule of every strategy, for one payload or a stack.

    ``probs`` holds payload probabilities in payload order along its last
    axis: shape (k,) for one payload, (..., k) for several of one k.
    Returns eps = max(0, 1 - sum(probs)), one per payload, and per
    ``Strategy`` ``(kept, other)``: the values of the transmitted tokens,
    shaped like ``probs``, and the one value of every other token, one per
    payload or a scalar shared by all. RENORMALIZED gives
    ``(probs / rho, 0.0)``, RESIDUAL_UNIFORM ``(probs, eps / (vocab_size -
    k))``. At k == vocab_size both give ``(probs, 0.0)`` with no divide, so
    the lossless round trip is bit-exact. eps clamps to 0 when f32 rounding
    lifts the sum above 1. Sums run along the last axis, so a payload gets
    the same floats alone or in a stack.
    """
    rho = probs.sum(axis=-1)
    if (rho <= 0.0).any():
        raise ValueError("cannot renormalize a payload with zero retained mass")
    eps = np.maximum(1.0 - rho, 0.0)
    tail = vocab_size - probs.shape[-1]
    if tail == 0:
        return eps, _Rules({Strategy.RENORMALIZED: (probs, 0.0),
                            Strategy.RESIDUAL_UNIFORM: (probs, 0.0)})
    return eps, _Rules({Strategy.RENORMALIZED: (probs / rho[..., None], 0.0),
                        Strategy.RESIDUAL_UNIFORM: (probs, eps / tail)})


def reconstruct(p: TopKPayload, strategy: Strategy) -> Distribution:
    """Rebuild the full distribution of ``p`` with ``strategy``."""
    kept, other = reconstructions(p.probs, p.vocab_size)[1][strategy]
    out = np.full(p.vocab_size, other)
    out[p.ids] = kept
    return Distribution.unchecked(out)


def encode_payload(p: TopKPayload) -> bytes:
    """Serialize a payload to its wire body.

    Probabilities narrow to f32. Narrowing can create new ties between
    adjacent entries, so ``_payload_order`` re-sorts the entries by (f32
    probability desc, id asc) to keep the ordering invariant valid on the
    receiving side; only a payload with an f32 tie takes its lexsort
    fallback.
    """
    order, probs32 = _payload_order(p.ids, p.probs.astype(np.float32))
    rec = np.empty(p.k, dtype=_ENTRY_DTYPE)
    rec["id"] = p.ids[order]
    rec["p"] = probs32
    header = np.array([p.vocab_size, p.k], dtype="<u4").tobytes()
    return header + rec.tobytes()


def decode_payload(buf: bytes) -> TopKPayload:
    """Parse and fully validate a wire body.

    Every ``TopKPayload`` invariant is re-checked at the post-wire
    tolerance; malformed input raises a ``PayloadError`` subclass, never
    anything else.
    """
    if len(buf) < _HEADER_BYTES:
        raise TruncatedPayloadError(f"payload header needs 8 bytes, got {len(buf)}")
    vocab_size, k = (int(x) for x in np.frombuffer(buf[:_HEADER_BYTES], dtype="<u4"))
    if vocab_size < 2:
        raise PayloadHeaderError(f"vocab_size must be >= 2, got {vocab_size}")
    if k < 1 or k > vocab_size:
        raise PayloadHeaderError(f"k={k} out of range [1, {vocab_size}]")
    expected = _HEADER_BYTES + k * _ENTRY_DTYPE.itemsize
    if len(buf) != expected:
        raise TruncatedPayloadError(
            f"payload declares {k} entries ({expected} bytes) but buffer has {len(buf)}"
        )
    rec = np.frombuffer(buf, dtype=_ENTRY_DTYPE, offset=_HEADER_BYTES)
    return TopKPayload(
        vocab_size,
        rec["id"].astype(np.int64),
        rec["p"].astype(np.float64),
        tol=POST_WIRE_TOLERANCE,
    )
