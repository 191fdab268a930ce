"""Deterministic seed derivation and stable hashing.

Every random draw in the system comes from a counter-based Philox generator
keyed by (seed, role), so independent streams (draft sampling, verification,
per-model logits) never interleave and any run is reproducible from its
config seed alone. Python's built-in ``hash`` is salted per process and must
never be used for anything that crosses a process or network boundary.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

MASK64 = (1 << 64) - 1

# Fixed role words for the per-sample Philox streams.
ROLE_DRAFT_SAMPLING = 0x44524146_54534D50  # draft-token sampling draws
ROLE_VERIFICATION = 0x56455249_46595354  # server-side accept/resample draws
ROLE_DRAFT_MODEL = 0x44524146_544D4F44  # draft model logit noise
ROLE_WORKER_MODEL_BASE = 0x574F524B_4D4F4400  # + worker index

# Polynomial rolling hash h <- h*B + (t + C) mod 2^64. The offset basis and
# multiplier are the 64-bit FNV constants; C shifts token 0 away from the
# additive identity so [0] and [0, 0] hash differently.
_HASH_OFFSET = 0xCBF29CE484222325
_HASH_MULTIPLIER = 0x00000100000001B3
_HASH_TOKEN_BIAS = 0x9E3779B97F4A7C15


def stable_prefix_hash(tokens: Iterable[int]) -> int:
    """64-bit polynomial rolling hash of a token sequence.

    Fixed constants, no per-process salt: identical across platforms,
    processes and runs. Used to key synthetic logit noise and to checksum
    worker prefix mirrors on the wire.
    """
    h = _HASH_OFFSET
    for t in tokens:
        h = (h * _HASH_MULTIPLIER + ((int(t) + _HASH_TOKEN_BIAS) & MASK64)) & MASK64
    return h


def derive_seed(seed: int, role: int) -> int:
    """Mix a base seed with a role word into a new 64-bit seed."""
    return stable_prefix_hash((seed & MASK64, role & MASK64))


def stream(seed: int, role: int) -> np.random.Generator:
    """A dedicated uniform stream keyed by (seed, role).

    Streams with distinct roles are statistically independent; the same
    (seed, role) always yields the same draw sequence.
    """
    return np.random.Generator(np.random.Philox(key=[seed & MASK64, role & MASK64]))


def keyed_normals(seed: int, context: int, n: int) -> np.ndarray:
    """``n`` standard-normal variates keyed by (seed, context).

    Counter-based: no state is carried between calls, so the same key pair
    always reproduces the same vector.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed & MASK64, context & MASK64]))
    return gen.standard_normal(n)
