"""Output checks and statistics, computed apart from draftwire's own code.

Every function here works on plain numbers and numpy arrays, so the checks
do not share code with the program they check: the top-K selection uses a
stable argsort where the program uses lexsort, the uplink size comes from
the frame layout rather than from ``expected_upload_bytes``, and sweep rows
are read back from the CSV text.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

import numpy as np

# Frame layout (little-endian): u32 body length, u8 kind, u64 correlation id.
FRAME_HEADER_BYTES = 4 + 1 + 8
# SCORES_UPLOAD body header: u64 prefix checksum, u32 payload count.
SCORES_HEADER_BYTES = 8 + 4
# Per payload: u32 length prefix, then u32 vocab_size, u32 k, k x (u32 id, f32 p).
PAYLOAD_PREFIX_BYTES = 4
PAYLOAD_HEADER_BYTES = 4 + 4
ENTRY_BYTES = 4 + 4

BOUND_SLACK = 1e-9
EPS_AT_FULL_K = 1e-12
EPS_RECOMPUTE_TOLERANCE = 1e-12
MIN_TAIL_SAMPLES = 10


class CheckFailed(Exception):
    """An output of the program is wrong."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile ``q``, or None when it would be no tail.

    A tail is reported only when at least ``MIN_TAIL_SAMPLES`` values lie
    beyond the chosen rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return float(sorted(values)[rank - 1])


def upload_frame_bytes(gamma: int, k: int) -> int:
    """Bytes of one worker's SCORES_UPLOAD frame for one block."""
    payload = PAYLOAD_PREFIX_BYTES + PAYLOAD_HEADER_BYTES + ENTRY_BYTES * k
    return FRAME_HEADER_BYTES + SCORES_HEADER_BYTES + (gamma + 1) * payload


def check_sample(
    tokens: Sequence[int],
    *,
    blocks: int,
    accepted: int,
    uplink_bytes: int,
    budget: int,
    vocab_size: int,
    gamma: int,
    workers: int,
    k: int | None,
) -> None:
    """Properties every decoded sample must have (eos off).

    ``k=None`` skips the uplink check (the dense reference path sends no
    frames).
    """
    n = len(tokens)
    if n != budget:
        raise CheckFailed(f"sample committed {n} tokens, budget is {budget}")
    bad = [t for t in tokens if not 0 <= int(t) < vocab_size]
    if bad:
        raise CheckFailed(f"token ids {bad[:3]} outside [0, {vocab_size})")
    if not accepted + blocks - gamma <= n <= accepted + blocks:
        raise CheckFailed(
            f"{n} tokens from {blocks} blocks with {accepted} accepted breaks "
            f"accepted + blocks - gamma <= tokens <= accepted + blocks"
        )
    if k is not None:
        expected = blocks * workers * upload_frame_bytes(gamma, k)
        if uplink_bytes != expected:
            raise CheckFailed(f"uplink {uplink_bytes} bytes, frame layout gives {expected}")


def check_same_transcript(got: Sequence[int], want: Sequence[int], what: str) -> None:
    if tuple(got) != tuple(want):
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        raise CheckFailed(f"{what}: transcripts differ at token {at}")


def topk_ids(probs: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries' ids; equal values go to the lower id."""
    return np.argsort(-probs, kind="stable")[:k]


def check_payload(ids: np.ndarray, values: np.ndarray, probs: np.ndarray, k: int) -> None:
    """A decoded payload holds exactly the top-k of ``probs``, each at f32."""
    if len(ids) != k or len(values) != k:
        raise CheckFailed(f"payload holds {len(ids)} entries, expected {k}")
    want = topk_ids(probs, k)
    if set(int(i) for i in ids) != set(int(i) for i in want):
        raise CheckFailed("payload ids are not the distribution's top-k")
    exact32 = probs[np.asarray(ids, dtype=np.int64)].astype(np.float32)
    if not np.array_equal(np.asarray(values, dtype=np.float64), exact32.astype(np.float64)):
        raise CheckFailed("payload value differs from its probability rounded to f32")


def _float(row: Mapping[str, str], key: str) -> float:
    return float(row[key])


def check_sweep_rows(
    rows: Sequence[Mapping[str, str]],
    *,
    ks: Sequence[int],
    temperatures: Sequence[float],
    vocab_size: int,
) -> None:
    """Bounds, the lossless end point and monotonicity of a sweep CSV."""
    want_rows = 2 * len(ks) * len(temperatures)
    if len(rows) != want_rows:
        raise CheckFailed(f"sweep wrote {len(rows)} rows, expected {want_rows}")
    groups: dict[tuple[str, float], list[Mapping[str, str]]] = {}
    for row in rows:
        delta = _float(row, "delta_bar")
        eps = _float(row, "eps_bar")
        dalpha = _float(row, "delta_alpha_bar")
        if delta > 2.0 * eps + BOUND_SLACK:
            raise CheckFailed(f"row {dict(row)}: delta_bar > 2 eps_bar")
        if dalpha > delta / 2.0 + BOUND_SLACK:
            raise CheckFailed(f"row {dict(row)}: delta_alpha_bar > delta_bar / 2")
        if int(row["K"]) == vocab_size and (delta != 0.0 or abs(eps) > EPS_AT_FULL_K):
            raise CheckFailed(f"row {dict(row)}: K = |V| must be lossless")
        groups.setdefault((row["strategy"], _float(row, "temperature")), []).append(row)
    if len(groups) != 2 * len(temperatures):
        raise CheckFailed(f"sweep covers {len(groups)} (strategy, T) groups")
    for key, group in groups.items():
        group_ks = [int(r["K"]) for r in group]
        if group_ks != sorted(ks):
            raise CheckFailed(f"{key}: K column {group_ks} is not {sorted(ks)}")
        for col in ("delta_bar", "eps_bar"):
            vals = [_float(r, col) for r in group]
            if any(b > a for a, b in zip(vals, vals[1:])):
                raise CheckFailed(f"{key}: {col} {vals} increases with K")


def eps_bar_reference(steps: Sequence[Sequence[np.ndarray]], weights: Sequence[float], k: int) -> float:
    """Mean over steps of sum_i w_i (1 - top-k mass of worker i)."""
    total = 0.0
    for dists in steps:
        weighted = 0.0
        for w, probs in zip(weights, dists):
            top = np.ascontiguousarray(np.sort(probs)[::-1][:k])
            weighted += w * max(0.0, 1.0 - float(top.sum()))
        total += weighted
    return total / len(steps)


def check_eps_bar(csv_eps: float, reference: float, what: str) -> None:
    if abs(csv_eps - reference) > EPS_RECOMPUTE_TOLERANCE:
        raise CheckFailed(f"{what}: eps_bar {csv_eps!r}, recomputed {reference!r}")
