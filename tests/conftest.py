"""Shared generators for randomized numerical tests.

All randomness in tests is seeded through ``np.random.default_rng`` so a
failure reproduces exactly; hypothesis strategies build small distribution
vectors from raw float lists.
"""

from __future__ import annotations

import queue
import threading
import weakref
from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from draftwire import engine
from draftwire.dist import Distribution
from draftwire.metrics import ShadowBlock, instrument_position, score_block
from draftwire.transport import TcpPool, worker_serve


def random_distribution(rng: np.random.Generator, size: int, *, sparsity: float = 0.0) -> Distribution:
    """A random point on the simplex; optionally zero out a fraction of it."""
    raw = rng.gamma(shape=0.7, scale=1.0, size=size)
    if sparsity > 0.0:
        mask = rng.random(size) < sparsity
        if mask.all():
            mask[rng.integers(size)] = False
        raw[mask] = 0.0
    if raw.sum() <= 0.0:
        raw[rng.integers(size)] = 1.0
    return Distribution(raw / raw.sum())


def score_position(worker_dists, q, w, k_profile):
    """One position's ``StepMetrics`` from the block scorer: a block of one
    position, with a draft proposal unless ``q`` is None."""
    block = ShadowBlock([[d] for d in worker_dists], [] if q is None else [q], w)
    return instrument_position(score_block(block, k_profile), 0)


@st.composite
def distributions(draw, min_size: int = 2, max_size: int = 12):
    """Hypothesis strategy: small random distributions, zeros allowed."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        ).filter(lambda ws: sum(ws) > 1e-6)
    )
    arr = np.asarray(weights, dtype=np.float64)
    return Distribution(arr / arr.sum())


@st.composite
def distribution_pairs(draw, min_size: int = 2, max_size: int = 12):
    """Two distributions over the same vocabulary."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    a = draw(distributions(min_size=size, max_size=size))
    b = draw(distributions(min_size=size, max_size=size))
    return a, b


@contextmanager
def tcp_workers(factory, m: int):
    """``m`` ``worker_serve`` workers, each on a thread of this process and
    a port of its own; yields their endpoints. Every pool on them must be
    closed by then: on exit a ``TcpPool`` asks each worker to exit, and the
    threads are joined."""
    threads, endpoints = [], []
    try:
        for i in range(m):
            ready: queue.Queue[int] = queue.Queue()
            thread = threading.Thread(target=worker_serve, args=("127.0.0.1", 0, factory),
                                      kwargs={"worker_index": i, "ready": ready.put},
                                      daemon=True)
            thread.start()
            threads.append(thread)
            endpoints.append(("127.0.0.1", ready.get(timeout=5)))
        yield endpoints
    finally:
        if endpoints:
            TcpPool(endpoints, timeout=5).shutdown()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def watch_records(monkeypatch):
    """Watches the decode loop's drafts and the ``engine.BlockRecord``s it
    builds. Returns (events, alive, held): "D" in ``events`` at each
    ``engine.generate_draft`` call, a weak reference to each record in
    ``alive``, and in ``held`` the count of records and of their shadow
    rows still alive at each draft."""
    events, alive, rows, held = [], [], [], []
    draft, record = engine.generate_draft, engine.BlockRecord

    def drafted(*args, **kwargs):
        events.append("D")
        held.append(sum(ref() is not None for ref in alive + rows))
        return draft(*args, **kwargs)

    def recorded(**fields):
        rec = record(**fields)
        alive.append(weakref.ref(rec))
        rows.extend(weakref.ref(d.probs) for dists in rec.worker_dists for d in dists)
        return rec

    monkeypatch.setattr(engine, "generate_draft", drafted)
    monkeypatch.setattr(engine, "BlockRecord", recorded)
    return events, alive, held
