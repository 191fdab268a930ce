"""Deterministic seed derivation and stable hashing.

Every random draw in the system comes from a counter-based Philox generator
keyed by (seed, role), so independent streams (draft sampling, verification,
per-model logits) never interleave and any run is reproducible from its
config seed alone. Python's built-in ``hash`` is salted per process and must
never be used for anything that crosses a process or network boundary.

A ``Prefix`` carries its ``stable_prefix_hash`` with its tokens: extending
it hashes only the new tokens, so a decode does O(1) hashing work per token
however long its output grows, and no model query hashes a whole prefix.
"""

from __future__ import annotations

import threading
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


def stable_prefix_hash(tokens: Iterable[int], start: int = _HASH_OFFSET) -> int:
    """64-bit polynomial rolling hash of a token sequence.

    Fixed constants, no per-process salt: identical across platforms,
    processes and runs. Used to key synthetic logit noise and to checksum
    worker prefix mirrors on the wire. From ``start``, the hash of some
    prefix, it returns the hash of that prefix followed by ``tokens``.
    """
    h = start
    for t in tokens:
        h = (h * _HASH_MULTIPLIER + ((int(t) + _HASH_TOKEN_BIAS) & MASK64)) & MASK64
    return h


class Prefix(tuple):
    """An immutable token prefix and its ``stable_prefix_hash``, ``.hash``.

    It is the tuple of its tokens. ``extend`` returns a new prefix and
    advances the hash over the new tokens only.
    """

    hash: int

    def __new__(cls, tokens: tuple[int, ...], prefix_hash: int) -> "Prefix":
        """The prefix of ``tokens``, whose hash the caller has computed;
        use ``of`` or ``extend``."""
        self = super().__new__(cls, tokens)
        object.__setattr__(self, "hash", prefix_hash)
        return self

    @classmethod
    def of(cls, tokens: Iterable[int]) -> "Prefix":
        tokens = tuple(int(t) for t in tokens)
        return cls(tokens, stable_prefix_hash(tokens))

    def extend(self, tokens: Iterable[int]) -> "Prefix":
        tokens = tuple(int(t) for t in tokens)
        return Prefix(self + tokens, stable_prefix_hash(tokens, self.hash))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a Prefix is immutable")


def derive_seed(seed: int, role: int) -> int:
    """Mix a base seed with a role word into a new 64-bit seed."""
    return stable_prefix_hash((seed & MASK64, role & MASK64))


def philox_key(a: int, b: int) -> np.ndarray:
    """The Philox key of the word pair (a, b), each taken mod 2^64.

    Keys were once passed to numpy as the list ``[a, b]``, and every
    recorded transcript depends on the key numpy made of it; this builds
    the same key as an explicit uint64 array. Two words on the same side
    of 2^63 are kept exactly. A pair with one word below 2^63 and one at or
    above it was read as float64, so both words are rounded to the nearest
    float64 (53 significant bits), and distinct pairs can share a key. A
    word that rounds up to 2^64 becomes 0.
    """
    words = (a & MASK64, b & MASK64)
    if words[0] >> 63 != words[1] >> 63:
        words = tuple(int(float(w)) & MASK64 for w in words)
    return np.array(words, dtype=np.uint64)


def stream(seed: int, role: int) -> np.random.Generator:
    """A dedicated uniform stream keyed by (seed, role).

    Streams with distinct roles are statistically independent; the same
    (seed, role) always yields the same draw sequence.
    """
    return np.random.Generator(np.random.Philox(key=philox_key(seed, role)))


_EMPTY_WORDS = np.zeros(4, dtype=np.uint64)
_keyed = threading.local()


def keyed_normals(seed: int, context: int, n: int) -> np.ndarray:
    """``n`` standard-normal variates keyed by (seed, context).

    Counter-based: no state is carried between calls, so the same key pair
    always reproduces the same vector. Each thread keeps one Philox and
    resets it to (key, counter 0, empty buffer) before every draw, which
    is the state a fresh ``Philox(key=...)`` starts in; building a fresh
    one would read OS entropy for a seed sequence it then discards.
    """
    gen = getattr(_keyed, "gen", None)
    if gen is None:
        gen = _keyed.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY_WORDS, "key": philox_key(seed, context)},
        "buffer": _EMPTY_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal(n)
