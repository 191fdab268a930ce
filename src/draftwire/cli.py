"""Command-line harness.

Subcommands:

* ``run``          - seeded generations at one config point; transcript out,
                     metrics row (instrumented mode) to CSV/stdout.
* ``sweep``        - cross product of sweep_ks x sweep_temperatures x both
                     strategies from one recorded uncompressed run per
                     temperature; CSV out plus a monotonicity summary.
* ``serve-worker`` - one TCP worker process; prints LISTENING <port>, then
                     serves runs one after another until SHUTDOWN.
* ``launch-demo``  - spawns local worker processes, runs a networked
                     generation, reruns it in-process, checks the
                     transcripts match, prints uplink accounting; shuts
                     the workers down.
* ``trace-record`` - records an uncompressed run's distributions to files.
* ``trace-replay`` - recomputes metrics offline from recorded traces.

Exit codes: 0 success and zero bound violations; 1 runtime failure
(worker unreachable, divergence, bad or exhausted trace); 2 usage/config error;
3 bound violations.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregation import TopKProfile, WeightVector
from .compression import Strategy
from .config import (
    DEFAULTS,
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    load_config_file,
    merge_config,
)
from .engine import (
    BlockRecord,
    RecordCache,
    block_step_metrics,
    run_reference_sample,
    run_sample,
    sample_seed_for,
)
from .dist import Distribution
from .metrics import SweepRecord, SweepTally, sweep_aggregate, write_sweep_csv
from .models import TraceError, read_trace, write_trace
from .seeding import stable_prefix_hash
from .specdec import ModelProvider
from .transport import (
    InProcessPool,
    TcpPool,
    WorkerFailureError,
    WorkerPool,
    expected_upload_bytes,
    worker_serve,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for key in sorted(KNOWN_KEYS):
        parser.add_argument(f"--{key}", metavar="V", default=None,
                            help=f"override {key} (default {DEFAULTS[key] or 'empty'})")


def _resolve(args: argparse.Namespace) -> RunConfig:
    layers = []
    if args.config:
        layers.append(load_config_file(args.config))
    layers.append({key: getattr(args, key) for key in KNOWN_KEYS})
    return RunConfig.from_mapping(merge_config(*layers))


def _make_pool(cfg: RunConfig) -> WorkerPool:
    if cfg.mode == "networked":
        return TcpPool(cfg.endpoints, timeout=cfg.timeout)
    return InProcessPool(cfg.workers, cfg.worker_factory(),
                         instrumented=cfg.mode == "instrumented")


def _homogeneous_k(cfg: RunConfig) -> int:
    # The CSV schema reports a scalar K; metric rows need k_1 = ... = k_M.
    if len(set(cfg.ks)) != 1:
        raise ConfigError("metric reporting requires a homogeneous k profile")
    return cfg.ks[0]


def _print_record(rec: SweepRecord) -> None:
    print(
        f"strategy={rec.strategy.name.lower()} K={rec.k} T={rec.temperature} "
        f"steps={rec.steps} delta_bar={rec.delta_bar:.6g} eps_bar={rec.eps_bar:.6g} "
        f"delta_alpha_bar={rec.delta_alpha_bar:.6g} violations={rec.violations}"
    )


def _report_point(cfg: RunConfig, row: SweepRecord) -> int:
    """Print one config point's metrics row, write it to ``cfg.csv`` if set,
    and return the exit code."""
    _print_record(row)
    if cfg.csv:
        write_sweep_csv([row], cfg.csv)
        print(f"wrote {cfg.csv}")
    if row.violations:
        print(f"BOUND VIOLATIONS: {row.violations}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _row_point(cfg: RunConfig, samples: int) -> dict[str, int | float]:
    """``SweepTally.record``'s keywords for a row at ``cfg``'s point."""
    return {"m": cfg.workers, "gamma": cfg.gamma, "vocab_size": cfg.vocab_size,
            "k": _homogeneous_k(cfg), "temperature": cfg.temperature, "seed": cfg.seed,
            "samples": samples}


def _tally_records(tally: SweepTally, records: Sequence[BlockRecord], weights: WeightVector,
                   k_profile: TopKProfile) -> None:
    """Score every position of ``records`` into ``tally``, block by block."""
    for rec in records:
        for step in block_step_metrics(rec, weights, k_profile):
            tally.add(step)


def cmd_run(cfg: RunConfig) -> int:
    settings = cfg.settings()
    instrumented = cfg.mode == "instrumented"
    pool = _make_pool(cfg)
    # An instrumented sample is scored as soon as it is decoded, so only one
    # sample's records are held; steps are added in (sample, block,
    # position) order.
    tally = SweepTally(cfg.strategy)
    drafted = accepted = uplink = blocks = 0
    try:
        for s in range(cfg.samples):
            ss = sample_seed_for(cfg.seed, s)
            res = run_sample(cfg.draft_model(ss), pool, settings, ss,
                             instrumented=instrumented)
            print(f"sample {s}: {' '.join(str(t) for t in res.tokens)}")
            _tally_records(tally, res.records, cfg.weights, settings.k_profile)
            drafted += res.drafted
            accepted += res.accepted
            uplink += res.uplink_bytes
            blocks += res.blocks
            del res  # scored: not held while the next sample decodes
    finally:
        pool.close()

    print(f"blocks={blocks} drafted={drafted} accepted={accepted} "
          f"accept_rate={accepted / drafted:.4f} uplink_bytes={uplink}")

    if not instrumented:
        return EXIT_OK
    return _report_point(cfg, tally.record(**_row_point(cfg, cfg.samples)))


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.validate_sweep()
    # Each reference sample is scored at every K as soon as it is decoded;
    # only the running tallies outlive it. A tally adds its K's steps in
    # (sample, block, position) order; rows go strategy, T, ascending K.
    profiles = {k: TopKProfile.homogeneous(k, cfg.workers, cfg.vocab_size)
                for k in sorted(cfg.sweep_ks, reverse=True)}
    rows: dict[Strategy, list[SweepRecord]] = {strategy: [] for strategy in Strategy}
    for temp in cfg.sweep_temperatures:
        cfg_t = cfg.with_temperature(temp)
        tallies = {k: [SweepTally(strategy) for strategy in Strategy] for k in profiles}
        for s in range(cfg.samples):
            ss = sample_seed_for(cfg.seed, s)
            res = run_reference_sample(cfg_t.draft_model(ss), cfg_t.worker_models(ss),
                                       cfg_t.settings(), ss)
            for rec in res.records:
                cache = RecordCache()  # Ks widest first: each shadow is truncated once
                for k, profile in profiles.items():
                    for step in block_step_metrics(rec, cfg.weights, profile, cache=cache):
                        for tally in tallies[k]:
                            tally.add(step)
        for k in sorted(profiles):
            for tally in tallies[k]:
                rows[tally.strategy].append(tally.record(
                    m=cfg.workers,
                    gamma=cfg.gamma,
                    vocab_size=cfg.vocab_size,
                    k=k,
                    temperature=temp,
                    seed=cfg.seed,
                    samples=cfg.samples,
                ))

    out = cfg.csv or "sweep.csv"
    all_rows = [row for strategy in Strategy for row in rows[strategy]]
    write_sweep_csv(all_rows, out)
    print(f"wrote {len(all_rows)} rows to {out}")

    for strategy in Strategy:
        for temp in cfg.sweep_temperatures:
            deltas = [r.delta_bar for r in rows[strategy] if r.temperature == temp]
            mono = all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
            print(f"{strategy.name.lower()} T={temp}: delta_bar by K "
                  f"{['%.5g' % d for d in deltas]} non-increasing={mono}")
    violations = sum(row.violations for row in all_rows)
    if violations:
        print(f"BOUND VIOLATIONS: {violations}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_serve_worker(cfg: RunConfig, host: str, port: int, worker_index: int) -> int:
    worker_serve(host, port, cfg.worker_factory(), worker_index=worker_index,
                 ready=lambda p: print(f"LISTENING {p}", flush=True))
    return EXIT_OK


def _spawn_worker(cfg: RunConfig, index: int) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable, "-m", "draftwire", "serve-worker",
        "--host", "127.0.0.1", "--port", "0", "--worker_index", str(index),
        "--vocab_size", str(cfg.vocab_size),
        "--model", cfg.model,
        "--temperature", repr(cfg.temperature),
        "--concentration", repr(cfg.concentration),
        "--correlation", repr(cfg.correlation),
    ]
    if cfg.model == "markov":
        cmd += ["--corpus", cfg.corpus,
                "--markov_order", str(cfg.markov_order),
                "--markov_smoothing", repr(cfg.markov_smoothing)]
    if cfg.model == "trace":
        cmd += ["--trace_dir", cfg.trace_dir]
    # the workers import this same package, also where it is not installed
    # and only the parent's sys.path finds it
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline().strip()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise WorkerFailureError(f"worker {index} failed to start (got {line!r})")
    return proc, int(line.split()[1])


def cmd_launch_demo(cfg: RunConfig) -> int:
    settings = cfg.settings()
    procs: list[subprocess.Popen] = []
    try:
        endpoints = []
        for i in range(cfg.workers):
            proc, port = _spawn_worker(cfg, i)
            procs.append(proc)
            endpoints.append(("127.0.0.1", port))
        print(f"workers listening on {[p for _, p in endpoints]}")

        ss = sample_seed_for(cfg.seed, 0)
        net_pool = TcpPool(endpoints, timeout=cfg.timeout)
        try:
            net = run_sample(cfg.draft_model(ss), net_pool, settings, ss)
            net_uplink = list(net_pool.uplink_totals)
        finally:
            net_pool.shutdown()  # the spawned workers exit now, not at cfg.timeout

        in_pool = InProcessPool(cfg.workers, cfg.worker_factory())
        try:
            local = run_sample(cfg.draft_model(ss), in_pool, settings, ss)
        finally:
            in_pool.close()

        print(f"networked transcript:  {' '.join(str(t) for t in net.tokens)}")
        print(f"in-process transcript: {' '.join(str(t) for t in local.tokens)}")
        if net.tokens != local.tokens:
            print("TRANSCRIPTS DIVERGED", file=sys.stderr)
            return EXIT_FAILURE
        print("transcripts identical")

        dense = net.blocks * (cfg.gamma + 1) * cfg.vocab_size * 4
        for i in range(cfg.workers):
            expected = net.blocks * expected_upload_bytes(cfg.gamma, cfg.ks[i])
            print(f"worker {i}: uplink {net_uplink[i]} bytes "
                  f"(expected {expected}, dense payload {dense} bytes, "
                  f"ratio {net_uplink[i] / dense:.4f})")
            if net_uplink[i] != expected:
                print(f"worker {i}: accounting mismatch", file=sys.stderr)
                return EXIT_FAILURE
        return EXIT_OK
    except (WorkerFailureError, OSError) as exc:
        print(f"demo failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=cfg.timeout)
            except subprocess.TimeoutExpired:
                proc.kill()


class _PrefixLog:
    """A model that logs the hash of every prefix it is asked about, so each
    recorded row can carry the prefix it answers."""

    def __init__(self, model: ModelProvider) -> None:
        self.model = model
        self.hashes: list[int] = []

    def distribution(self, prefix: Sequence[int]) -> Distribution:
        self.hashes.append(stable_prefix_hash(prefix))
        return self.model.distribution(prefix)


def cmd_trace_record(cfg: RunConfig) -> int:
    if not cfg.trace_dir:
        print("trace-record requires --trace_dir", file=sys.stderr)
        return EXIT_USAGE
    if cfg.samples != 1:
        # the file layout holds one sample
        raise ConfigError(f"trace-record records one sample, got samples = {cfg.samples}")
    out = Path(cfg.trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.settings()
    ss = sample_seed_for(cfg.seed, 0)
    draft = _PrefixLog(cfg.draft_model(ss))
    workers = [_PrefixLog(model) for model in cfg.worker_models(ss)]
    res = run_reference_sample(draft, workers, settings, ss)

    # each model was queried once per recorded row, in row order
    q_rows = np.stack([d.probs for rec in res.records for d in rec.q_dists])
    write_trace(out / "draft.trace", q_rows, draft.hashes)
    for i, worker in enumerate(workers):
        rows = np.stack([d.probs for rec in res.records for d in rec.worker_dists[i]])
        write_trace(out / f"worker_{i}.trace", rows, worker.hashes)
    (out / "drafts.txt").write_text(
        "\n".join(" ".join(str(t) for t in rec.draft_tokens) for rec in res.records) + "\n"
    )
    (out / "transcript.txt").write_text(" ".join(str(t) for t in res.tokens) + "\n")
    meta = {
        "vocab_size": cfg.vocab_size,
        "workers": cfg.workers,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "samples": 1,
        "max_tokens": cfg.max_tokens,
        "prompt": ",".join(str(t) for t in cfg.prompt),
        "eos": -1 if cfg.eos is None else cfg.eos,
        "weights": ",".join(repr(w) for w in cfg.weights.weights.tolist()),
        "model": "trace",
        "trace_dir": str(out.resolve()),  # so meta.cfg runs from any directory
    }
    (out / "meta.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in meta.items())
    )
    print(f"recorded {res.blocks} blocks ({len(q_rows)} draft rows) to {out}")
    return EXIT_OK


def _load_trace_records(trace_dir: Path, workers: int, gamma: int) -> list[BlockRecord]:
    q_rows = read_trace(trace_dir / "draft.trace").rows
    worker_rows = [read_trace(trace_dir / f"worker_{i}.trace").rows for i in range(workers)]
    draft_lines = (trace_dir / "drafts.txt").read_text().splitlines()
    blocks = q_rows.shape[0] // gamma
    if q_rows.shape[0] != blocks * gamma or len(draft_lines) != blocks:
        raise ConfigError("trace files disagree on block count")
    for rows in worker_rows:
        if rows.shape[0] != blocks * (gamma + 1):
            raise ConfigError("worker trace row count does not match gamma")
    records = []
    for b in range(blocks):
        draft_tokens = tuple(int(t) for t in draft_lines[b].split())
        if len(draft_tokens) != gamma:
            raise ConfigError(f"draft line {b} does not hold {gamma} tokens")
        q = tuple(Distribution.unchecked(q_rows[b * gamma + t].copy()) for t in range(gamma))
        dists = tuple(
            tuple(
                Distribution.unchecked(rows[b * (gamma + 1) + t].copy())
                for t in range(gamma + 1)
            )
            for rows in worker_rows
        )
        records.append(BlockRecord(draft_tokens=draft_tokens, q_dists=q, worker_dists=dists))
    return records


def cmd_trace_replay(cfg: RunConfig) -> int:
    if not cfg.trace_dir:
        print("trace-replay requires --trace_dir", file=sys.stderr)
        return EXIT_USAGE
    records = _load_trace_records(Path(cfg.trace_dir), cfg.workers, cfg.gamma)
    k_profile = TopKProfile(cfg.ks, cfg.vocab_size)
    point = _row_point(cfg, 1)
    steps = [step for rec in records
             for step in block_step_metrics(rec, cfg.weights, k_profile)]
    return _report_point(cfg, sweep_aggregate(steps, strategy=cfg.strategy, **point))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draftwire",
        description="Federated speculative decoding simulator with top-K uplink compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("run", "seeded generations at one config point"),
        ("sweep", "K x temperature x strategy sweep to CSV"),
        ("serve-worker", "run one TCP scoring worker"),
        ("launch-demo", "spawn local workers, run networked vs in-process"),
        ("trace-record", "record an uncompressed run's distributions"),
        ("trace-replay", "recompute metrics from recorded traces"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_config_flags(p)
        if name == "serve-worker":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=0)
            p.add_argument("--worker_index", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "serve-worker":
            return cmd_serve_worker(cfg, args.host, args.port, args.worker_index)
        if args.command == "launch-demo":
            return cmd_launch_demo(cfg)
        if args.command == "trace-record":
            return cmd_trace_record(cfg)
        if args.command == "trace-replay":
            return cmd_trace_replay(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WorkerFailureError, OSError) as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
