"""In-memory spans around draftwire's layer boundaries, and their analysis.

``Tracer.install`` replaces functions at the module, class or instance
attribute through which the program calls them: in an untraced run only
the few call sites that cut blocks, in a traced run every site that
``targets()`` lists. A span is the list ``[name, start_ns, end_ns,
parent_index, value]``; ``value`` holds the thread CPU time of
``transport.handle_draft`` spans. Spans stay in memory until the run ends
and are then written out as JSON.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

NAME, START, END, PARENT, VALUE = range(5)


def targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call site."""
    from draftwire import cli, engine, metrics, models, seeding, transport

    hash_name = "seeding.stable_prefix_hash"
    out: list[tuple[object, str, str]] = [
        (engine, "generate_draft", "specdec.generate_draft"),
        (engine, "verify_block", "specdec.verify_block"),
        (engine, "aggregate_compressed", "aggregation.aggregate_compressed"),
        (engine, "instrument_position", "metrics.instrument_position"),
        (models.SyntheticModel, "distribution", "models.distribution"),
        (transport, "truncate_topk", "compression.truncate_topk"),
        (metrics, "truncate_topk", "compression.truncate_topk"),
        (transport, "encode_payload", "compression.encode_payload"),
        (transport, "decode_payload", "compression.decode_payload"),
        (transport.WorkerCore, "handle_draft", "transport.handle_draft"),
        (cli, "sweep_aggregate", "metrics.sweep_aggregate"),
        (cli, "run_reference_sample", "engine.run_reference_sample"),
        (cli, "block_step_metrics", "metrics.block_step_metrics"),
    ]
    out += [(mod, "stable_prefix_hash", hash_name) for mod in (engine, models, seeding, transport)]
    out += [(transport.InProcessPool, attr, f"transport.{attr}")
            for attr in ("score_block", "commit", "configure")]
    return out


class Tracer:
    """Records a span per call of each function it is installed at.

    For each span name in ``keep``, ``keep[name]`` of every return value is
    kept too, in call order, under ``results[name]``.
    """

    def __init__(self, keep: Mapping[str, Callable[[Any], Any]] | None = None) -> None:
        self.spans: list[list] = []
        self._keep = dict(keep or {})
        self.results: dict[str, list] = {name: [] for name in self._keep}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        cpu = time.thread_time_ns if name == "transport.handle_draft" else None
        kept, project = self.results.get(name), self._keep.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = cpu() if cpu else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                if cpu:
                    span[VALUE] = cpu() - cpu0
                span[END] = clock()
                stack.pop()
            if kept is not None:
                kept.append(project(result))
            return result

        return traced

    def install(self, sites: Iterable[tuple[object, str, str]] | None = None) -> None:
        """Wrap each ``(owner, attribute, span name)``; all ``targets()`` by default."""
        for owner, attr, name in targets() if sites is None else sites:
            fn = getattr(owner, attr)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


class SpanTable:
    """Spans of one process, cut to a time window."""

    def __init__(self, spans: list[list], window: tuple[int, int]) -> None:
        lo, hi = window
        self.spans = spans
        self.inside = [i for i, s in enumerate(spans) if s[START] >= lo and s[END] <= hi]
        self.children: dict[int, list[int]] = defaultdict(list)
        for i in self.inside:
            if spans[i][PARENT] >= 0:
                self.children[spans[i][PARENT]].append(i)

    def named(self, name: str) -> list[list]:
        return [self.spans[i] for i in self.inside if self.spans[i][NAME] == name]

    def indices(self, name: str) -> list[int]:
        return [i for i in self.inside if self.spans[i][NAME] == name]

    def self_ns(self, i: int) -> int:
        s = self.spans[i]
        covered = sum(self.spans[c][END] - self.spans[c][START] for c in self.children[i])
        return (s[END] - s[START]) - covered


def blocks_of(table: SpanTable, sample_name: str, block_name: str) -> list[tuple[int, int]]:
    """Block intervals: from one ``block_name`` call directly inside a sample
    span to the next; the last block of a sample ends when the sample does."""
    out: list[tuple[int, int]] = []
    for i in table.indices(sample_name):
        starts = [table.spans[c][START] for c in table.children[i]
                  if table.spans[c][NAME] == block_name]
        out += zip(starts, starts[1:] + [table.spans[i][END]])
    return out


def durations_ns(table: SpanTable, name: str) -> list[int]:
    return [s[END] - s[START] for s in table.named(name)]


def total_ns(spans: Iterable[list]) -> int:
    return sum(s[END] - s[START] for s in spans)


def uncovered_ns(interval: tuple[int, int], covering: Sequence[list]) -> int:
    """Length of ``interval`` minus its overlap with disjoint ``covering`` spans."""
    lo, hi = interval
    overlap = sum(max(0, min(hi, s[END]) - max(lo, s[START])) for s in covering)
    return (hi - lo) - overlap


def block_self_ns(table: SpanTable, sample_name: str, blocks: Sequence[tuple[int, int]]) -> int:
    """Block time not covered by the sample span's direct children."""
    covering = [table.spans[c] for i in table.indices(sample_name) for c in table.children[i]]
    covering.sort(key=lambda s: s[START])
    total = 0
    for interval in blocks:
        inside = [s for s in covering if s[END] > interval[0] and s[START] < interval[1]]
        total += uncovered_ns(interval, inside)
    return total


def per_layer(
    table: SpanTable,
    *,
    blocks: Sequence[tuple[int, int]],
    sample_name: str,
    samples: int,
) -> dict[str, float]:
    """Per-layer figures that come from spans alone (see README for units)."""
    ms = 1e-6
    nb = len(blocks)

    def mean_ms(spans: list[list]) -> float:
        return total_ns(spans) * ms / len(spans) if spans else 0.0

    def total_ms(name: str) -> float:
        return total_ns(table.named(name)) * ms

    dist = table.named("models.distribution")
    hashes = table.named("seeding.stable_prefix_hash")
    topk = table.named("compression.truncate_topk")
    positions = table.named("metrics.instrument_position")
    score_self = sum(table.self_ns(i) for i in table.indices("transport.score_block"))
    return {
        "engine.block_self_ms": block_self_ns(table, sample_name, blocks) * ms / nb,
        "specdec.generate_draft_ms": total_ms("specdec.generate_draft") / nb,
        "specdec.verify_block_ms": total_ms("specdec.verify_block") / nb,
        "models.distribution_ms": mean_ms(dist),
        "models.distribution_calls_per_block": len(dist) / nb,
        "seeding.prefix_hash_ms_per_block": total_ns(hashes) * ms / nb,
        "seeding.prefix_hash_calls_per_block": len(hashes) / nb,
        "compression.truncate_topk_ms": mean_ms(topk),
        "compression.truncate_topk_calls_per_block": len(topk) / nb,
        "compression.encode_payload_ms": mean_ms(table.named("compression.encode_payload")),
        "compression.decode_payload_ms": mean_ms(table.named("compression.decode_payload")),
        "aggregation.aggregate_compressed_ms": total_ms("aggregation.aggregate_compressed") / nb,
        "transport.score_block_ms": total_ms("transport.score_block") / nb,
        "transport.score_wait_ms": score_self * ms / nb,
        "transport.commit_ms": total_ms("transport.commit") / nb,
        "transport.configure_ms": total_ms("transport.configure") / samples,
        "metrics.instrument_position_ms": mean_ms(positions),
        "metrics.instrument_position_calls": float(len(positions)),
        "metrics.sweep_aggregate_ms": mean_ms(table.named("metrics.sweep_aggregate")),
        "engine.reference_block_ms": total_ms("engine.run_reference_sample") / nb,
    }


def handle_draft_cpu_ns(table: SpanTable) -> int:
    return sum(s[VALUE] for s in table.named("transport.handle_draft"))
