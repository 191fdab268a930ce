"""The benchmark's span recorder wraps draftwire functions by attribute name.

``perfbench/tracing.py`` is loaded by path and every ``(owner, attribute)``
its ``targets()`` lists must resolve, so a refactor that renames or drops a
wrapped function fails here rather than only when the benchmark runs.
"""

import ast
import csv
import importlib.util
import threading
import time
import types
from pathlib import Path

from conftest import watch_records

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOAD = ROOT / "perfbench" / "workload.py"
# The comment that marks an import kept in ``src/`` only for the benchmark.
WRAPPED_IMPORT = "# noqa: F401  perfbench/tracing.py wraps it here"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_module("perfbench_tracing", TRACING)


def test_every_traced_call_site_resolves():
    sites = load_tracing().targets()
    assert sites
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in sites
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_benchmark_only_imports_are_wrapped():
    """Each import marked as kept for the benchmark names a (module,
    attribute) pair that ``targets()`` wraps. When ``targets()`` drops a
    pair, this names the import that can go with it."""
    wrapped = {(owner.__name__.rpartition(".")[2], attr)
               for owner, attr, _ in load_tracing().targets()
               if isinstance(owner, types.ModuleType)}
    marked = set()
    for path in sorted((ROOT / "src" / "draftwire").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        marked |= {(path.stem, alias.asname or alias.name)
                   for node in ast.parse(text).body
                   if isinstance(node, ast.ImportFrom)
                   and lines[node.lineno - 1].endswith(WRAPPED_IMPORT)
                   for alias in node.names}
    assert marked
    assert sorted(marked - wrapped) == []


def test_sweep_scores_each_position_through_engine_attribute(monkeypatch, tmp_path):
    """A traced sweep run requires its ``metrics.instrument_position`` span
    count to equal the CSV's steps column. That holds only while
    ``block_step_metrics`` calls ``engine.instrument_position`` once per
    scored position: gamma draft positions plus the bonus position."""
    from draftwire import cli, engine

    gamma = 3
    calls = {"positions": 0, "blocks": 0}
    position, block = engine.instrument_position, cli.block_step_metrics

    def counted_position(*args, **kwargs):
        calls["positions"] += 1
        return position(*args, **kwargs)

    def counted_block(*args, **kwargs):
        before = calls["positions"]
        steps = block(*args, **kwargs)
        assert calls["positions"] - before == len(steps) == gamma + 1
        calls["blocks"] += 1
        return steps

    monkeypatch.setattr(engine, "instrument_position", counted_position)
    monkeypatch.setattr(cli, "block_step_metrics", counted_block)
    csv_path = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--vocab_size", "16", "--workers", "2", "--k", "4",
                     "--gamma", str(gamma), "--samples", "2", "--max_tokens", "12",
                     "--sweep_ks", "1,4,16", "--sweep_temperatures", "0.8,1.2",
                     "--csv", str(csv_path)])
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    positions = sum(int(r["steps"]) for r in rows if r["strategy"] == rows[0]["strategy"])
    assert calls["blocks"] > 0
    assert calls["positions"] == positions == calls["blocks"] * (gamma + 1)


def count_truncations(monkeypatch, calls=None) -> list:
    """Calls of ``metrics.truncate_topk``, the attribute the traced span
    wraps, each a "t" appended to ``calls`` (a new list by default)."""
    from draftwire import metrics

    calls = [] if calls is None else calls
    truncate = metrics.truncate_topk

    def counted(*args, **kwargs):
        calls.append("t")
        return truncate(*args, **kwargs)

    monkeypatch.setattr(metrics, "truncate_topk", counted)
    return calls


def count_row_sorts(monkeypatch) -> list:
    """The row count of each ``metrics._payload_order`` call: the payload
    stack's one sort of every shadow of a block at K = |V|."""
    from draftwire import metrics

    rows = []
    order = metrics._payload_order

    def counted(ids, probs):
        rows.append(probs.size // probs.shape[-1])
        return order(ids, probs)

    monkeypatch.setattr(metrics, "_payload_order", counted)
    return rows


def test_sweep_scores_each_record_once_per_k_before_the_next_block_drafts(monkeypatch,
                                                                          tmp_path):
    """The sweep workload times ``block_step_metrics`` calls and cuts reference
    blocks at ``generate_draft`` calls inside ``run_reference_sample`` spans,
    and it raises unless there is one scoring per (record, K). Each record
    is scored at every K before the next block drafts, and with the Ks
    visited widest first each recorded shadow is put in payload order
    exactly once: when the widest K is |V|, by one row sort of all
    M (gamma + 1) shadows per record and no truncation; below |V|, by one
    truncation per shadow and no row sort."""
    for widest in (16, 8):  # |V|, and below it
        with monkeypatch.context() as patch:
            check_sweep_orders_each_shadow_once(patch, tmp_path, (4, widest, 1))


def check_sweep_orders_each_shadow_once(monkeypatch, tmp_path, ks):
    from draftwire import cli

    gamma, workers, size = 3, 2, 16
    events = watch_records(monkeypatch)[0]
    scored, blocks = [], []
    decode, score = cli.run_reference_sample, cli.block_step_metrics

    def counted_decode(*args, **kwargs):
        res = decode(*args, **kwargs)
        assert res.records == ()  # each went to the sweep's consumer
        blocks.append(res.blocks)
        return res

    def counted_score(record, *args, **kwargs):
        events.append("s")
        scored.append(record)
        return score(record, *args, **kwargs)

    monkeypatch.setattr(cli, "run_reference_sample", counted_decode)
    monkeypatch.setattr(cli, "block_step_metrics", counted_score)
    truncations = count_truncations(monkeypatch)
    row_sorts = count_row_sorts(monkeypatch)
    code = cli.main(["sweep", "--vocab_size", str(size), "--workers", str(workers),
                     "--k", "4", "--gamma", str(gamma), "--samples", "3", "--max_tokens", "12",
                     "--sweep_ks", ",".join(map(str, ks)), "--sweep_temperatures", "0.8,1.2",
                     "--csv", str(tmp_path / "sweep.csv")])
    assert code == 0
    records = sum(blocks)  # a reference run records every block
    assert records > 0
    # each block drafts, then its record is scored at every K
    assert "".join(events) == ("D" + "s" * len(ks)) * records
    assert len(scored) == records * len(ks)
    for b in range(records):
        group = scored[b * len(ks):(b + 1) * len(ks)]
        assert all(rec is group[0] for rec in group)
    if max(ks) == size:
        assert row_sorts == [(gamma + 1) * workers] * records
        assert truncations == []
    else:
        assert row_sorts == []
        assert len(truncations) == records * (gamma + 1) * workers


def test_untraced_sweep_cuts_a_block_per_draft_around_its_scorings(tmp_path, capsys):
    """An untraced sweep workload wraps three sites: it cuts reference blocks
    at ``generate_draft`` spans directly inside ``run_reference_sample``
    spans, times ``block_step_metrics`` spans, and raises unless there are
    one block per recorded block and |K| scorings per block. Scoring runs
    inside the reference span, at the end of each block: the cut must
    still count one block per draft, and each block must hold its own |K|
    scorings."""
    from draftwire import cli, engine

    tracing, workload = load_tracing(), load_module("perfbench_workload", WORKLOAD)
    sites = [(engine, "generate_draft", workload.DRAFT),
             (cli, "run_reference_sample", workload.REFERENCE),
             (cli, "block_step_metrics", workload.STEP)]
    source = WORKLOAD.read_text()
    for owner, attr, name in sites:  # the sites as the workload lists them
        constant = next(c for c in ("DRAFT", "REFERENCE", "STEP") if getattr(workload, c) == name)
        assert f'({owner.__name__.rpartition(".")[2]}, "{attr}", {constant})' in source

    ks = (1, 4, 16)
    tracer = tracing.Tracer(keep={workload.REFERENCE: lambda res: res.blocks})
    tracer.install(sites)
    start = time.perf_counter_ns()
    try:
        code = cli.main(["sweep", "--vocab_size", "16", "--workers", "2", "--k", "4",
                         "--gamma", "3", "--samples", "2", "--max_tokens", "12",
                         "--sweep_ks", ",".join(map(str, ks)), "--sweep_temperatures", "0.8,1.2",
                         "--csv", str(tmp_path / "sweep.csv")])
    finally:
        tracer.uninstall()
    end = time.perf_counter_ns()
    capsys.readouterr()
    assert code == 0
    table = tracing.SpanTable(tracer.spans, (start, end))
    blocks = tracing.blocks_of(table, workload.REFERENCE, workload.DRAFT)
    steps = table.named(workload.STEP)
    recorded = sum(tracer.results[workload.REFERENCE])
    assert recorded > 0
    assert len(blocks) == recorded
    assert len(steps) == recorded * len(ks)
    assert [sum(lo <= s[tracing.START] and s[tracing.END] <= hi for s in steps)
            for lo, hi in blocks] == [len(ks)] * recorded


def test_instrumented_run_truncates_each_shadow_once(monkeypatch, tmp_path):
    """Scored at its one K, an instrumented run truncates each recorded
    shadow once in ``metrics``, as it did before the sweep's cache, and
    it does so for each block before the next block drafts."""
    from draftwire import cli

    gamma, workers = 3, 2
    events, blocks = watch_records(monkeypatch)[0], []
    run = cli.run_sample

    def counted_run(*args, **kwargs):
        res = run(*args, **kwargs)
        assert res.records == ()  # each went to the run's consumer
        blocks.append(res.blocks)
        return res

    monkeypatch.setattr(cli, "run_sample", counted_run)
    count_truncations(monkeypatch, events)
    code = cli.main(["run", "--mode", "instrumented", "--vocab_size", "64",
                     "--workers", str(workers), "--k", "8", "--gamma", str(gamma),
                     "--samples", "2", "--max_tokens", "16"])
    assert code == 0
    assert len(blocks) == 2 and all(blocks)
    assert "".join(events) == ("D" + "t" * (gamma + 1) * workers) * sum(blocks)


def test_one_score_call_per_block(monkeypatch):
    """The decode workload cuts blocks at ``score_block`` calls directly
    inside ``run_sample`` and raises when their count differs from the
    ``blocks`` that the samples report."""
    from draftwire import InProcessPool, run_sample, sample_seed_for
    from draftwire.config import RunConfig, merge_config

    cfg = RunConfig.from_mapping(merge_config({"vocab_size": "64", "max_tokens": "24",
                                               "mode": "inprocess"}))
    pool = InProcessPool(cfg.workers, cfg.worker_factory())
    calls = []
    score = pool.score_block

    def counted(delta, draft):
        calls.append(len(draft))
        return score(delta, draft)

    monkeypatch.setattr(pool, "score_block", counted)
    ss = sample_seed_for(cfg.seed, 0)
    res = run_sample(cfg.draft_model(ss), pool, cfg.settings(), ss)
    assert res.blocks > 1
    assert calls == [cfg.gamma] * res.blocks


def shadow_pool_sample(on_record=None):
    """Sample 0 of the decode workload's config, run as its untimed sample
    0 is: on a pool that exposes the shadows."""
    from draftwire import InProcessPool, run_sample, sample_seed_for
    from draftwire.config import RunConfig, merge_config

    cfg = RunConfig.from_mapping(merge_config({"vocab_size": "64", "max_tokens": "24",
                                               "mode": "inprocess"}))
    pool = InProcessPool(cfg.workers, cfg.worker_factory(), instrumented=True)
    ss = sample_seed_for(cfg.seed, 0)
    try:
        return run_sample(cfg.draft_model(ss), pool, cfg.settings(), ss, on_record=on_record)
    finally:
        pool.close()


def test_a_shadow_pool_sample_without_a_consumer_records_nothing(monkeypatch):
    """The decode workload's ``peak_rss_mb`` counts on its untimed sample 0,
    run through a shadow-exposing pool with no ``on_record``, building no
    ``BlockRecord``: a collected sample would hold every block's shadows."""
    events, alive, _ = watch_records(monkeypatch)
    res = shadow_pool_sample()
    assert res.blocks > 1 and events == ["D"] * res.blocks
    assert alive == []
    assert res.records == ()


def test_a_consumer_gets_every_block_of_a_shadow_pool_sample(monkeypatch):
    """Given an ``on_record``, the sample hands it one record per block, as
    it is verified, and keeps none itself."""
    alive = watch_records(monkeypatch)[1]
    got = []
    res = shadow_pool_sample(got.append)
    assert res.blocks > 1 and len(got) == res.blocks
    assert [id(rec) for rec in got] == [id(ref()) for ref in alive]
    assert res.records == ()


def test_one_draft_per_reference_block(monkeypatch):
    """The sweep workload cuts reference blocks at ``engine.generate_draft``
    calls directly inside ``run_reference_sample`` and raises when their
    count differs from the ``blocks`` that the samples report."""
    from draftwire import engine, run_reference_sample, sample_seed_for
    from draftwire.config import RunConfig, merge_config

    cfg = RunConfig.from_mapping(merge_config({"vocab_size": "64", "max_tokens": "24"}))
    calls = []
    draft = engine.generate_draft

    def counted(*args, **kwargs):
        calls.append(1)
        return draft(*args, **kwargs)

    monkeypatch.setattr(engine, "generate_draft", counted)
    ss = sample_seed_for(cfg.seed, 0)
    res = run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss), cfg.settings(), ss)
    assert res.blocks > 1
    assert len(calls) == res.blocks


def test_traced_layers_see_every_worker_of_a_concurrent_block(monkeypatch):
    """The traced decode workload wraps ``WorkerCore.handle_draft``,
    ``engine.aggregate_compressed`` and ``transport.decode_payload`` at these
    attributes. With the workers scoring on their own threads, every block
    must still make M and M (gamma + 1) calls through the first and the
    last inside ``score_block``; verification then aggregates the accepted
    positions plus one, accepted + blocks in all."""
    from draftwire import InProcessPool, engine, run_sample, sample_seed_for, transport
    from draftwire.config import RunConfig, merge_config

    m, gamma = 3, 4
    cfg = RunConfig.from_mapping(merge_config({"vocab_size": "64", "workers": str(m),
                                               "gamma": str(gamma), "max_tokens": "24",
                                               "mode": "inprocess"}))
    calls = {"handle_draft": [], "aggregate_compressed": [], "decode_payload": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((transport.WorkerCore, "handle_draft"),
                        (engine, "aggregate_compressed"),
                        (transport, "decode_payload")):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    pool = InProcessPool(m, cfg.worker_factory())
    score = pool.score_block
    per_block = []

    def watched(delta, draft):
        before = {name: len(c) for name, c in calls.items()}
        result = score(delta, draft)
        per_block.append(tuple(len(c) - before[name] for name, c in calls.items()))
        return result

    monkeypatch.setattr(pool, "score_block", watched)
    ss = sample_seed_for(cfg.seed, 0)
    try:
        res = run_sample(cfg.draft_model(ss), pool, cfg.settings(), ss)
    finally:
        pool.close()
    assert res.blocks > 1
    assert per_block == [(m, 0, m * (gamma + 1))] * res.blocks
    assert len(calls["aggregate_compressed"]) == res.accepted + res.blocks
    assert len(set(calls["handle_draft"])) > 1  # the workers ran on more than one thread
