"""Probability-model providers standing in for the draft and worker LLMs.

Three families, all deterministic given their construction parameters:

* ``SyntheticModel`` - logits are scaled standard normals keyed by
  (seed, prefix hash). A correlation knob blends in a second normal vector
  drawn from a shared seed, so a worker can overlap the draft model by a
  tunable amount and acceptance rates become tunable rather than accidental.
  Models built by one ``RunConfig`` share a ``NormalMemo``: the draw keyed
  by the draft model's seed (the draft model's own noise, every worker's
  ``z_shared``) is made once per position and reused, while each worker's
  own noise is always drawn directly. The memo is keyed by what is drawn,
  so outputs are the same with or without it; it only saves work when the
  draft model and the workers live in one process, which makes in-process
  runs cheaper than TCP runs by construction.
* ``MarkovModel``  - add-lambda smoothed n-gram counts from an integer
  token corpus, backing off to uniform for unseen contexts.
* ``TraceModel``   - replays distributions recorded to a binary trace file,
  one row per model query, and checks that each query asks about the
  prefix its row was recorded for.

No neural inference, no tokenizers; vocabularies are plain integer ranges.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dist import Distribution, softmax_inplace
from .seeding import keyed_normals, stable_prefix_hash

TRACE_MAGIC = b"SFTR"
TRACE_VERSION = 2
TRACE_SUM_TOLERANCE = 1e-5
_TRACE_HEADER_BYTES = 14


class TraceError(ValueError):
    """A trace file is malformed or inconsistent."""


class TraceExhaustedError(TraceError):
    """A replay asked for more steps than were recorded."""


class TraceMismatchError(TraceError):
    """A replay asked about another prefix than the one a row was recorded for."""


class NormalMemo:
    """The most recent ``keyed_normals`` vectors, keyed by (seed, context, n).

    The key is the whole content of a draw, so every model that asks for it
    gets the same vector whatever its temperature or concentration. Entries
    are read-only, and the least recently used is dropped once more than
    ``capacity`` are held.

    Thread-safe: one lock covers lookup, draw and insert, so workers that
    score concurrently and ask for the same key get one vector, drawn once.
    """

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def normals(self, seed: int, context: int, n: int) -> np.ndarray:
        key = (seed, context, n)
        with self._lock:
            z = self._entries.get(key)
            if z is not None:
                self._entries.move_to_end(key)
                return z
            z = keyed_normals(seed, context, n)
            z.setflags(write=False)
            self._entries[key] = z
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return z


@dataclass(frozen=True)
class SyntheticModel:
    """Deterministic random-logit model.

    With ``correlation`` rho > 0 the logit noise is
    rho * z_shared + sqrt(1 - rho^2) * z_own, where z_shared is keyed by
    ``shared_seed`` (typically the draft model's seed). rho = 1 reproduces
    the shared model's logits exactly; rho = 0 is independent.

    With a ``memo``, only the draw keyed by the draft seed goes through it:
    ``shared_seed`` when one is set, otherwise (the draft model) ``seed``.
    Every branch of ``distribution`` builds its logits in a fresh array,
    and the softmax then runs in that array.
    """

    vocab_size: int
    seed: int
    concentration: float = 1.0
    temperature: float = 1.0
    correlation: float = 0.0
    shared_seed: int | None = None
    memo: NormalMemo | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not self.concentration >= 0.0:
            raise ValueError("concentration must be >= 0")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be > 0")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if self.correlation > 0.0 and self.shared_seed is None:
            raise ValueError("correlation > 0 requires a shared_seed")

    def _draft_seed_normals(self, h: int) -> np.ndarray:
        """The draw keyed by the draft seed; read-only when memoized."""
        seed = self.seed if self.shared_seed is None else self.shared_seed
        if self.memo is None:
            return keyed_normals(seed, h, self.vocab_size)
        return self.memo.normals(seed, h, self.vocab_size)

    def distribution(self, prefix: Sequence[int]) -> Distribution:
        h = stable_prefix_hash(prefix)
        rho = self.correlation
        if 0.0 < rho < 1.0:
            z = keyed_normals(self.seed, h, self.vocab_size)
            z *= math.sqrt(1.0 - rho * rho)
            z += rho * self._draft_seed_normals(h)
            z *= self.concentration
        elif rho == 0.0 and self.shared_seed is not None:  # worker independent of the draft
            z = keyed_normals(self.seed, h, self.vocab_size)
            z *= self.concentration
        else:  # the draft model, or a worker that copies it
            z = self.concentration * self._draft_seed_normals(h)
        return softmax_inplace(z, self.temperature)


class MarkovModel:
    """Add-lambda smoothed n-gram model over integer tokens.

    p(x | c) = (count(c, x) + lambda) / (count(c, .) + lambda * |V|); a
    context with no observations therefore collapses to uniform.
    """

    __slots__ = ("vocab_size", "order", "smoothing", "_table")

    def __init__(self, vocab_size: int, order: int, smoothing: float,
                 table: dict[tuple[int, ...], np.ndarray]) -> None:
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if order < 1:
            raise ValueError("order must be >= 1")
        if not smoothing > 0.0:
            raise ValueError("smoothing must be > 0")
        self.vocab_size = vocab_size
        self.order = order
        self.smoothing = smoothing
        self._table = table

    @classmethod
    def fit(cls, corpus: Sequence[int], vocab_size: int, order: int = 1,
            smoothing: float = 0.05) -> "MarkovModel":
        tokens = [int(t) for t in corpus]
        for t in tokens:
            if not 0 <= t < vocab_size:
                raise ValueError(f"corpus token {t} outside [0, {vocab_size})")
        table: dict[tuple[int, ...], np.ndarray] = {}
        for i in range(order, len(tokens)):
            ctx = tuple(tokens[i - order:i])
            row = table.get(ctx)
            if row is None:
                row = np.zeros(vocab_size, dtype=np.float64)
                table[ctx] = row
            row[tokens[i]] += 1.0
        return cls(vocab_size, order, smoothing, table)

    def distribution(self, prefix: Sequence[int]) -> Distribution:
        ctx = tuple(int(t) for t in prefix[-self.order:]) if len(prefix) >= self.order else None
        counts = self._table.get(ctx) if ctx is not None else None
        if counts is None:
            counts = np.zeros(self.vocab_size, dtype=np.float64)
        smoothed = counts + self.smoothing
        return Distribution.unchecked(smoothed / smoothed.sum())


def load_corpus(path: str | Path) -> list[int]:
    """Whitespace-separated integer token file."""
    text = Path(path).read_text()
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"corpus {path} contains a non-integer token") from exc


class Trace(NamedTuple):
    """The rows of a trace file and the prefix hash each was recorded for."""

    rows: np.ndarray  # (steps, vocab_size) float64
    prefix_hashes: np.ndarray | None  # (steps,) uint64; None in a version-1 file


def write_trace(path: str | Path, rows: np.ndarray, prefix_hashes: Sequence[int]) -> None:
    """Record per-query distributions as a version-2 trace.

    Layout (little-endian): magic, u16 version, u32 vocab_size, u32 steps,
    then ``steps`` u64 prefix hashes (``stable_prefix_hash`` of the prefix
    each row answers), then the rows as dense f32.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
        raise ValueError("trace rows must be a (steps, vocab_size) array")
    steps, vocab_size = arr.shape
    if len(prefix_hashes) != steps:
        raise ValueError(f"{len(prefix_hashes)} prefix hashes for {steps} trace rows")
    header = TRACE_MAGIC + np.array([TRACE_VERSION], dtype="<u2").tobytes()
    header += np.array([vocab_size, steps], dtype="<u4").tobytes()
    hashes = np.asarray(prefix_hashes, dtype="<u8").tobytes()
    Path(path).write_bytes(header + hashes + arr.astype("<f4").tobytes())


def read_trace(path: str | Path) -> Trace:
    """Load a trace back into float64 rows, validating the header.

    Reads version 2 and version 1, which has no prefix hashes: its rows can
    still be re-scored offline, but ``TraceModel`` refuses to replay them.
    Rows whose sum drifts from 1 by less than the storage tolerance are
    renormalized; larger deviations mean the file is corrupt.
    """
    buf = Path(path).read_bytes()
    if len(buf) < _TRACE_HEADER_BYTES or buf[:4] != TRACE_MAGIC:
        raise TraceError(f"{path} is not a trace file")
    version = int(np.frombuffer(buf, dtype="<u2", count=1, offset=4)[0])
    if version not in (1, TRACE_VERSION):
        raise TraceError(f"unsupported trace version {version}")
    vocab_size, steps = (int(x) for x in np.frombuffer(buf, dtype="<u4", count=2, offset=6))
    if vocab_size < 2 or steps < 1:
        raise TraceError(f"trace header has vocab_size={vocab_size}, steps={steps}")
    offset = _TRACE_HEADER_BYTES + (8 * steps if version == TRACE_VERSION else 0)
    expected = offset + 4 * steps * vocab_size
    if len(buf) != expected:
        raise TraceError(f"trace declares {expected} bytes but file has {len(buf)}")
    hashes = None
    if version == TRACE_VERSION:
        hashes = np.frombuffer(buf, dtype="<u8", count=steps, offset=_TRACE_HEADER_BYTES)
    rows = np.frombuffer(buf, dtype="<f4", offset=offset).astype(np.float64)
    rows = rows.reshape(steps, vocab_size)
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        if np.any(row < 0.0) or not np.all(np.isfinite(row)):
            raise TraceError(f"trace row {i} has invalid probabilities")
        total = row.sum()
        if abs(total - 1.0) >= TRACE_SUM_TOLERANCE or total <= 0.0:
            raise TraceError(f"trace row {i} sums to {total!r}")
        out[i] = row / total if total != 1.0 else row
    return Trace(out, hashes)


class TraceModel:
    """Replays recorded distributions in order; one consumer per instance.

    The cursor advances on every ``distribution`` call, mirroring how the
    rows were produced (one row per model query). Each call must ask about
    the prefix its row was recorded for: a replay whose transcript departs
    from the recording raises ``TraceMismatchError`` naming the file and
    the row, rather than scoring rows recorded for another prefix.
    """

    __slots__ = ("rows", "prefix_hashes", "source", "_cursor")

    def __init__(self, rows: np.ndarray, prefix_hashes: Sequence[int],
                 source: str = "trace") -> None:
        if len(prefix_hashes) != rows.shape[0]:
            raise ValueError(f"{len(prefix_hashes)} prefix hashes for {rows.shape[0]} rows")
        self.rows = rows
        self.prefix_hashes = [int(h) for h in prefix_hashes]
        self.source = source
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "TraceModel":
        rows, hashes = read_trace(path)
        if hashes is None:
            raise TraceError(f"{path} is a version-1 trace: it records no prefixes, so a "
                             f"replay of it cannot be checked; record it again")
        return cls(rows, hashes, str(path))

    @property
    def vocab_size(self) -> int:
        return int(self.rows.shape[1])

    @property
    def steps_remaining(self) -> int:
        return int(self.rows.shape[0]) - self._cursor

    def distribution(self, prefix: Sequence[int]) -> Distribution:
        row = self._cursor
        if row >= self.rows.shape[0]:
            raise TraceExhaustedError(
                f"trace exhausted after {self.rows.shape[0]} steps"
            )
        asked = stable_prefix_hash(prefix)
        if asked != self.prefix_hashes[row]:
            raise TraceMismatchError(
                f"{self.source} row {row}: recorded for prefix hash "
                f"{self.prefix_hashes[row]:#018x}, asked about {asked:#018x}"
            )
        self._cursor += 1
        return Distribution.unchecked(self.rows[row].copy())
