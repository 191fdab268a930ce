"""Command-line harness: ``COMMANDS`` lists the subcommands, and ``main``
decides how each one ends.

Exit codes: 0 success and zero bound violations; 1 runtime failure
(worker unreachable, divergence, bad or exhausted trace, a local file that
cannot be written); 2 usage/config error; 3 bound violations.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

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
from .metrics import SweepTally, write_sweep_csv
from .metrics import sweep_aggregate  # noqa: F401  perfbench/tracing.py wraps it here
from .models import TraceError, TraceMismatchError, TraceModel, write_trace
from .seeding import Prefix
from .specdec import scored_prefixes
from .transport import (
    InProcessPool,
    TcpPool,
    WorkerFailureError,
    WorkerPool,
    expected_upload_bytes,
    worker_serve,
)

if TYPE_CHECKING:
    import subprocess

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _port(text: str) -> int:
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port {port} out of range [0, 65535]")
    return port


def _resolve(args: argparse.Namespace) -> dict[str, str]:
    """Defaults, then ``--config``, then flags, merged as text."""
    layers = []
    if args.config:
        layers.append(load_config_file(args.config))
    layers.append({key: getattr(args, key) for key in KNOWN_KEYS})
    return merge_config(*layers)


def _make_pool(cfg: RunConfig, instrumented: bool) -> WorkerPool:
    if cfg.mode == "networked":
        return TcpPool(cfg.endpoints, timeout=cfg.timeout)
    return InProcessPool(cfg.workers, cfg.worker_factory(), instrumented=instrumented)


def _report_point(cfg: RunConfig, row: SweepTally) -> int:
    """Print one config point's metrics row, write it to ``cfg.csv`` if set,
    and return the exit code."""
    print(
        f"strategy={row.strategy.name.lower()} K={row.k} T={row.temperature} "
        f"steps={row.steps} delta_bar={row.delta_bar:.6g} eps_bar={row.eps_bar:.6g} "
        f"delta_alpha_bar={row.delta_alpha_bar:.6g} violations={row.violations}"
    )
    if cfg.csv:
        write_sweep_csv([row], cfg.csv)
        print(f"wrote {cfg.csv}")
    return _verdict(row.violations)


def _verdict(violations: int) -> int:
    """Exit 3, saying so on stderr, when any bound was violated; else 0."""
    if violations:
        print(f"BOUND VIOLATIONS: {violations}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _row(cfg: RunConfig, samples: int) -> SweepTally:
    """An empty metrics row at ``cfg``'s point."""
    # The CSV schema reports a scalar K; metric rows need k_1 = ... = k_M.
    if len(set(cfg.ks)) != 1:
        raise ConfigError("metric reporting requires a homogeneous k profile")
    return SweepTally(cfg.strategy, m=cfg.workers, gamma=cfg.gamma,
                      vocab_size=cfg.vocab_size, k=cfg.ks[0],
                      temperature=cfg.temperature, seed=cfg.seed, samples=samples)


def _tallier(weights: WeightVector, scoring: Sequence[tuple[TopKProfile, Sequence[SweepTally]]]
             ) -> Callable[[BlockRecord], None]:
    """A record consumer: it scores every position of a block at each k
    profile of ``scoring`` into that profile's tallies, and keeps nothing
    of the block. With the profiles widest first each shadow is put in
    payload order once."""
    def tally(rec: BlockRecord) -> None:
        cache = RecordCache()
        for k_profile, tallies in scoring:
            for step in block_step_metrics(rec, weights, k_profile, cache):
                for row in tallies:
                    row.add(step)

    return tally


def cmd_run(cfg: RunConfig) -> int:
    settings = cfg.settings()
    instrumented = cfg.mode == "instrumented"
    # a metrics row needs a homogeneous k: refuse before decoding anything
    row = _row(cfg, cfg.samples) if instrumented else None
    # each instrumented block is scored as soon as it is verified; the pool
    # exposes the shadows only when there is this consumer for them
    on_record = None if row is None else _tallier(cfg.weights, [(settings.k_profile, [row])])
    pool = _make_pool(cfg, instrumented)
    drafted = accepted = uplink = blocks = 0
    try:
        for s in range(cfg.samples):
            ss = sample_seed_for(cfg.seed, s)
            res = run_sample(cfg.draft_model(ss), pool, settings, ss, on_record=on_record)
            print(f"sample {s}: {' '.join(str(t) for t in res.tokens)}")
            drafted += res.drafted
            accepted += res.accepted
            uplink += res.uplink_bytes
            blocks += res.blocks
    finally:
        pool.close()

    print(f"blocks={blocks} drafted={drafted} accepted={accepted} "
          f"accept_rate={accepted / drafted:.4f} uplink_bytes={uplink}")

    if row is None:
        return EXIT_OK
    return _report_point(cfg, row)


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.validate_sweep()
    # One row per (strategy, T, K), in CSV order: strategy, T, ascending K.
    # Each reference block is scored at every K, widest first, as soon as
    # it is verified, and released before the next block drafts: only the
    # rows outlive it.
    ks = sorted(cfg.sweep_ks)
    rows = [SweepTally(strategy, m=cfg.workers, gamma=cfg.gamma, vocab_size=cfg.vocab_size,
                       k=k, temperature=temp, seed=cfg.seed, samples=cfg.samples)
            for strategy in Strategy for temp in cfg.sweep_temperatures for k in ks]
    for temp in cfg.sweep_temperatures:
        cfg_t = cfg.with_temperature(temp)
        tally = _tallier(cfg.weights, [
            (TopKProfile.homogeneous(k, cfg.workers, cfg.vocab_size),
             [row for row in rows if row.temperature == temp and row.k == k])
            for k in reversed(ks)])
        for s in range(cfg.samples):
            ss = sample_seed_for(cfg.seed, s)
            run_reference_sample(cfg_t.draft_model(ss), cfg_t.worker_models(ss),
                                 cfg_t.settings(), ss, on_record=tally)

    out = cfg.csv or "sweep.csv"
    write_sweep_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")

    for strategy in Strategy:
        for temp in cfg.sweep_temperatures:
            deltas = [r.delta_bar for r in rows
                      if r.strategy is strategy and r.temperature == temp]
            mono = all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
            print(f"{strategy.name.lower()} T={temp}: delta_bar by K "
                  f"{['%.5g' % d for d in deltas]} non-increasing={mono}")
    return _verdict(sum(row.violations for row in rows))


def cmd_serve_worker(cfg: RunConfig, host: str, port: int, worker_index: int) -> int:
    """One TCP worker process: prints LISTENING <port>, then serves runs one
    after another until SHUTDOWN."""
    worker_serve(host, port, cfg.worker_factory(), worker_index=worker_index,
                 ready=lambda p: print(f"LISTENING {p}", flush=True))
    return EXIT_OK


def _spawn_worker(raw: dict[str, str], index: int) -> subprocess.Popen:
    import subprocess  # only launch-demo starts processes

    # every key as the parent resolved it, so the worker accepts what the
    # parent accepted; the = form keeps a value such as -1 a value
    cmd = [sys.executable, "-m", "draftwire", "serve-worker",
           "--host", "127.0.0.1", "--port", "0", "--worker_index", str(index),
           *(f"--{key}={value}" for key, value in raw.items())]
    # the workers import this same package, also where it is not installed
    # and only the parent's sys.path finds it
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)


def cmd_launch_demo(cfg: RunConfig, raw: dict[str, str]) -> int:
    """Spawns local workers, runs a networked generation, reruns it
    in-process, checks the transcripts match and prints uplink accounting."""
    settings = cfg.settings()
    procs: list[subprocess.Popen] = []
    try:
        endpoints = []
        for i in range(cfg.workers):
            procs.append(_spawn_worker(raw, i))
            line = procs[-1].stdout.readline().strip()
            if not line.startswith("LISTENING "):
                raise WorkerFailureError(f"worker {i} failed to start (got {line!r})")
            endpoints.append(("127.0.0.1", int(line.split()[1])))
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
        # a worker that got no SHUTDOWN (the demo failed) would serve on:
        # kill each that still runs, then reap them all
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.wait()
            proc.stdout.close()


def cmd_trace_record(cfg: RunConfig) -> int:
    if not cfg.trace_dir:
        raise ConfigError("trace-record requires --trace_dir")
    if cfg.samples != 1:
        # the file layout holds one sample
        raise ConfigError(f"trace-record records one sample, got samples = {cfg.samples}")
    out = Path(cfg.trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.settings()
    ss = sample_seed_for(cfg.seed, 0)
    res = run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss), settings, ss)

    # a block's rows answer its scored prefixes: the draft model's the
    # first gamma, each worker's all gamma + 1. The rows are written from
    # the records, not copied into one array first.
    scored = [scored_prefixes(rec.prefix, rec.draft_tokens) for rec in res.records]
    q_rows = [d.probs for rec in res.records for d in rec.q_dists]
    write_trace(out / "draft.trace", q_rows,
                [p.hash for prefixes in scored for p in prefixes[:-1]])
    worker_hashes = [p.hash for prefixes in scored for p in prefixes]
    for i in range(cfg.workers):
        write_trace(out / f"worker_{i}.trace",
                    [d.probs for rec in res.records for d in rec.worker_dists[i]],
                    worker_hashes)
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
        "trace_dir": ".",  # the files beside meta.cfg, wherever it is copied
    }
    (out / "meta.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in meta.items())
    )
    print(f"recorded {res.blocks} blocks ({len(q_rows)} draft rows) to {out}")
    return EXIT_OK


def _read_token_lines(path: Path) -> list[list[int]]:
    """The integer tokens of each line of a recorded text file."""
    lines: list[list[int]] = []
    try:
        for n, line in enumerate(path.read_bytes().splitlines(), 1):
            lines.append([int(tok) for tok in line.split()])
    except OSError as exc:
        raise TraceError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise TraceError(f"{path} line {n}: {exc}") from None
    return lines


def _load_trace_records(cfg: RunConfig) -> Iterator[BlockRecord]:
    """Yield the blocks of the recording in ``cfg.trace_dir``, walked from
    the prompt: each line of ``drafts.txt`` is read from ``TraceModel``s at
    its scored prefixes, so every row is checked against the prefix it
    answers. A block's committed run of ``transcript.txt`` tokens leads to
    the next block's first recorded prefix; the last one ends the file."""
    trace_dir, gamma = Path(cfg.trace_dir), cfg.gamma
    paths = [trace_dir / "draft.trace",
             *(trace_dir / f"worker_{i}.trace" for i in range(cfg.workers))]
    draft_model, *workers = [TraceModel.from_file(path, cfg.vocab_size) for path in paths]
    drafts_path = trace_dir / "drafts.txt"
    draft_lines = _read_token_lines(drafts_path)
    q_rows = len(draft_model.prefix_hashes)
    blocks, extra = divmod(q_rows, gamma)
    if extra:
        raise ConfigError(f"{paths[0]} holds {q_rows} rows, not a whole number "
                          f"of blocks of gamma = {gamma} rows")
    if len(draft_lines) != blocks:
        raise ConfigError(f"{drafts_path} holds {len(draft_lines)} lines, but {paths[0]} "
                          f"holds {blocks} blocks of gamma = {gamma} rows")
    for path, model in zip(paths[1:], workers):
        if len(model.prefix_hashes) != blocks * (gamma + 1):
            raise ConfigError(f"{path} holds {len(model.prefix_hashes)} rows, but {blocks} "
                              f"blocks at gamma = {gamma} need {blocks} x {gamma + 1} = "
                              f"{blocks * (gamma + 1)}")
    transcript = [t for line in _read_token_lines(trace_dir / "transcript.txt") for t in line]
    prefix, pos = Prefix.of(cfg.prompt), 0
    reach = draft_model.prefix_hashes[gamma::gamma] + [prefix.extend(transcript).hash]
    for b, draft in enumerate(draft_lines):
        if len(draft) != gamma:
            raise ConfigError(f"draft line {b} does not hold {gamma} tokens")
        prefixes = scored_prefixes(prefix, draft)
        # views of the read-only rows: each row is held once
        q = tuple(draft_model.distribution(p) for p in prefixes[:gamma])
        dists = tuple(tuple(model.distribution(p) for p in prefixes) for model in workers)
        run = transcript[pos:pos + gamma + 1]  # accepted draft tokens, then one more
        n = next((n for n in range(1, len(run) + 1)
                  if run[:n - 1] == draft[:n - 1] and prefix.extend(run[:n]).hash == reach[b]), 0)
        if not n:
            raise TraceMismatchError(f"{trace_dir / 'transcript.txt'}: no run of 1 to {gamma + 1} "
                                     f"tokens continues block {b} as recorded")
        yield BlockRecord(prefix=prefix, draft_tokens=tuple(draft), q_dists=q, worker_dists=dists)
        prefix, pos = prefix.extend(run[:n]), pos + n


def cmd_trace_replay(cfg: RunConfig) -> int:
    if not cfg.trace_dir:
        raise ConfigError("trace-replay requires --trace_dir")
    row = _row(cfg, 1)
    tally = _tallier(cfg.weights, [(TopKProfile(cfg.ks, cfg.vocab_size), [row])])
    for rec in _load_trace_records(cfg):
        tally(rec)
    return _report_point(cfg, row)


class Command(NamedTuple):
    """A subcommand: its help line; its handler, called with the typed config,
    the parsed arguments and the resolved mapping; its own flags."""
    help: str
    handler: Callable[[RunConfig, argparse.Namespace, dict[str, str]], int]
    flags: tuple[tuple[str, dict], ...] = ()


COMMANDS: dict[str, Command] = {
    "run": Command("seeded generations at one config point", lambda cfg, *_: cmd_run(cfg)),
    "sweep": Command("K x temperature x strategy sweep to CSV", lambda cfg, *_: cmd_sweep(cfg)),
    "serve-worker": Command(
        "run one TCP scoring worker",
        lambda cfg, args, _: cmd_serve_worker(cfg, args.host, args.port, args.worker_index),
        flags=(("--host", {"default": "127.0.0.1"}),
               ("--port", {"type": _port, "default": 0}),
               ("--worker_index", {"type": int, "default": 0}))),
    "launch-demo": Command("spawn local workers, run networked vs in-process",
                           lambda cfg, _, raw: cmd_launch_demo(cfg, raw)),
    "trace-record": Command("record an uncompressed run's distributions",
                            lambda cfg, *_: cmd_trace_record(cfg)),
    "trace-replay": Command("recompute metrics from recorded traces",
                            lambda cfg, *_: cmd_trace_replay(cfg)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draftwire",
        description="Federated speculative decoding simulator with top-K uplink compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for key in sorted(KNOWN_KEYS):
            p.add_argument(f"--{key}", metavar="V", default=None,
                           help=f"override {key} (default {DEFAULTS[key] or 'empty'})")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _failure(exc: Exception) -> tuple[str, int] | None:
    """The stderr label and exit code of a command that raised ``exc``;
    None for any other exception, which is a bug and keeps its traceback."""
    if isinstance(exc, ConfigError):
        return "config error", EXIT_USAGE
    if isinstance(exc, TraceError):
        return "trace error", EXIT_FAILURE
    if isinstance(exc, OSError) and exc.filename is not None:
        return "file error", EXIT_FAILURE  # a local file, such as a --csv path
    if isinstance(exc, (WorkerFailureError, OSError)):
        return "worker failure", EXIT_FAILURE  # a socket's OSError names no file
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _resolve(args)
        return COMMANDS[args.command].handler(RunConfig.from_mapping(raw), args, raw)
    except Exception as exc:
        if (failure := _failure(exc)) is None:
            raise
        label, code = failure
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
