"""One benchmark workload, run in a fresh process.

Usage: python perfbench/workload.py --workload NAME --seed N --seconds S
       --trace 0|1 --out DIR [--setup-only]

Set-up time runs from the first statement of this process, before numpy
and draftwire are imported, until the first block can be issued. With
``--setup-only`` the process sets up and reports only ``setup_s``.
Otherwise it runs the workload's fixed plan (see README), checks every
output, and prints one JSON object as its last stdout line. An output that
fails its check is reported on stderr and counted in ``failed``.

Every loop here is closed: one orchestrator, one sample at a time, each
block waiting for the last.
"""

import time

START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

clock = time.perf_counter_ns

M = 2
K = 64
GAMMA = 4
SWEEP_KS = (1, 8, 64, 512)
SWEEP_TEMPERATURES = (0.8, 1.0, 1.2)
EPS_CHECK_TEMPERATURE = 1.0

# Span names of the call sites that cut blocks (see tracing.targets()).
SAMPLE = "engine.run_sample"
SCORE = "transport.score_block"
REFERENCE = "engine.run_reference_sample"
DRAFT = "specdec.generate_draft"
STEP = "metrics.block_step_metrics"


@dataclass(frozen=True)
class Plan:
    vocab_size: int
    max_tokens: int
    samples_per_second: float  # timed samples per second of --seconds

    def samples(self, seconds: int) -> int:
        return round(seconds * self.samples_per_second)


PLANS = {
    "decode-inproc-v32k": Plan(32000, 64, 0.5),
    "sweep-v512": Plan(512, 64, 1.4),
}


def base_seed(seed: int) -> int:
    """Config seed for a benchmark seed; sample i runs at base + i."""
    return 1000 * seed


def run_config(plan: Plan, seed: int, **extra: str):
    from draftwire.config import RunConfig, merge_config

    raw = {"vocab_size": plan.vocab_size, "workers": M, "k": K, "gamma": GAMMA,
           "max_tokens": plan.max_tokens, "seed": base_seed(seed), "mode": "inprocess", **extra}
    return RunConfig.from_mapping(merge_config({k: str(v) for k, v in raw.items()}))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def block_stats(durations_ns: list[int]) -> dict[str, float]:
    from checks import median, tail_percentile

    p90 = tail_percentile(durations_ns, 0.9)
    if p90 is None:
        raise RuntimeError(f"{len(durations_ns)} blocks are too few for a p90")
    return {"block_ms_p50": median(durations_ns) / 1e6, "block_ms_p90": p90 / 1e6}


def report(exc: Exception) -> None:
    print(f"check failed: {exc}", file=sys.stderr)


def passes(check: Callable, *args, **kwargs) -> bool:  # noqa: ANN002, ANN003
    """Runs one output check; a failure is reported and left to the caller to count."""
    from checks import CheckFailed

    try:
        check(*args, **kwargs)
    except CheckFailed as exc:
        report(exc)
        return False
    return True


# ---------------------------------------------------------------------------
# Decode workload


def run_decode(plan: Plan, args: argparse.Namespace) -> dict:
    from checks import check_payload, check_same_transcript, check_sample
    from draftwire import InProcessPool, run_sample, sample_seed_for
    from tracing import SpanTable, Tracer, blocks_of, handle_draft_cpu_ns, per_layer

    cfg = run_config(plan, args.seed)
    pool = InProcessPool(M, cfg.worker_factory())
    setup_s = (clock() - START_NS) / 1e9
    if args.setup_only:
        return {"setup_s": setup_s}
    settings = cfg.settings()

    def sample_ok(res) -> bool:  # noqa: ANN001
        return passes(check_sample, res.tokens, blocks=res.blocks, accepted=res.accepted,
                      uplink_bytes=res.uplink_bytes, budget=plan.max_tokens,
                      vocab_size=plan.vocab_size, gamma=GAMMA, workers=M, k=K)

    # Untimed sample 0: a warm-up on the timed pool, then the same seed on a
    # pool that exposes the shadow distributions, whose payloads are checked
    # as they arrive so that no block's shadows outlive it.
    ss = sample_seed_for(cfg.seed, 0)
    warm = run_sample(cfg.draft_model(ss), pool, settings, ss)
    shadow_pool = InProcessPool(M, cfg.worker_factory(), instrumented=True)
    inner = shadow_pool.score_block
    bad_payloads = 0

    def checked_score_block(delta, draft):  # noqa: ANN001
        nonlocal bad_payloads
        scores = inner(delta, draft)
        for payloads, shadows in zip(scores.payloads, scores.shadows):
            bad_payloads += sum(not passes(check_payload, p.ids, p.probs, d.probs, K)
                                for p, d in zip(payloads, shadows))
        return scores

    shadow_pool.score_block = checked_score_block
    shadowed = run_sample(cfg.draft_model(ss), shadow_pool, settings, ss)
    first_ok = (sample_ok(warm) and bad_payloads == 0
                and passes(check_same_transcript, shadowed.tokens, warm.tokens,
                           "shadow-exposing pool vs timed pool"))

    # Untraced, only the pool's score_block is hooked: its calls cut blocks.
    tracer = Tracer()
    tracer.install(None if args.trace else [(pool, "score_block", SCORE)])
    run = tracer.wrap(SAMPLE, run_sample)
    n = plan.samples(args.seconds)
    t_start = clock()
    cpu0 = time.process_time_ns()
    results = [run(cfg.draft_model(ss), pool, settings, ss)
               for ss in (sample_seed_for(cfg.seed, i) for i in range(1, n + 1))]
    t_end = clock()
    cpu_ns = time.process_time_ns() - cpu0
    rss = peak_rss_mb()
    tracer.uninstall()
    failed = (not first_ok) + sum(not sample_ok(res) for res in results)

    table = SpanTable(tracer.spans, (t_start, t_end))
    blocks = blocks_of(table, SAMPLE, SCORE)
    tokens = sum(len(r.tokens) for r in results)
    nb = sum(r.blocks for r in results)
    if nb != len(blocks):
        raise RuntimeError(f"{len(blocks)} score_block calls for {nb} blocks")
    wall_s = (t_end - t_start) / 1e9
    e2e = {
        "setup_s": setup_s,
        "tokens_per_s": tokens / wall_s,
        **block_stats([b - a for a, b in blocks]),
        "cpu_ms_per_token": cpu_ns / 1e6 / tokens,
        "peak_rss_mb": rss,
    }
    uplink = sum(r.uplink_bytes for r in results)
    layers = {
        "specdec.accept_rate": sum(r.accepted for r in results) / sum(r.drafted for r in results),
        "specdec.tokens_per_block": tokens / nb,
        "transport.uplink_bytes_per_block": uplink / nb,
        "transport.uplink_bytes_per_token": uplink / tokens,
    }
    if args.trace:
        tracer.dump(args.out / "spans.json")
        layers |= per_layer(table, blocks=blocks, sample_name=SAMPLE, samples=len(results))
        layers["transport.worker_cpu_ms_per_block"] = handle_draft_cpu_ns(table) / 1e6 / nb
        layers["metrics.sweep_positions_per_s"] = 0.0
    return {
        "correct": failed == 0, "attempted": n + 1, "failed": failed, "e2e": e2e,
        "layers": layers,
        "info": {"samples": len(results), "blocks": nb, "tokens": tokens, "wall_s": wall_s},
    }


# ---------------------------------------------------------------------------
# Sweep workload


def run_sweep(plan: Plan, args: argparse.Namespace) -> dict:
    from checks import CheckFailed
    from draftwire import cli, engine
    from tracing import SpanTable, Tracer, blocks_of, durations_ns, per_layer

    n = plan.samples(args.seconds)
    csv_path = args.out / "sweep.csv"
    argv = ["sweep", "--csv", str(csv_path), "--vocab_size", str(plan.vocab_size),
            "--workers", str(M), "--gamma", str(GAMMA), "--max_tokens", str(plan.max_tokens),
            "--seed", str(base_seed(args.seed)), "--samples", str(n),
            "--sweep_ks", ",".join(map(str, SWEEP_KS)),
            "--sweep_temperatures", ",".join(map(str, SWEEP_TEMPERATURES))]
    setup_s = (clock() - START_NS) / 1e9
    if args.setup_only:
        return {"setup_s": setup_s}

    # A reference block runs from one generate_draft call to the next, the
    # last ending when run_reference_sample returns; the per-layer figures
    # count per reference block. The timed "block" of the sweep is one
    # block_step_metrics call, one recorded block scored at one K, because
    # that work fills most of the sweep's wall time. Of each reference
    # sample only its counts are kept, not its recorded distributions.
    tracer = Tracer(keep={REFERENCE: lambda r: (r.tokens, r.blocks, r.accepted, r.drafted)})
    tracer.install(None if args.trace else [(engine, "generate_draft", DRAFT),
                                            (cli, "run_reference_sample", REFERENCE),
                                            (cli, "block_step_metrics", STEP)])
    t_start = clock()
    cpu0 = time.process_time_ns()
    with open(args.out / "sweep.log", "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(argv)
    t_end = clock()
    cpu_ns = time.process_time_ns() - cpu0
    rss = peak_rss_mb()
    tracer.uninstall()

    table = SpanTable(tracer.spans, (t_start, t_end))
    blocks = blocks_of(table, REFERENCE, DRAFT)
    scored = durations_ns(table, STEP)
    samples = tracer.results[REFERENCE]
    tokens = sum(len(s[0]) for s in samples)
    nb = sum(s[1] for s in samples)
    if nb != len(blocks) or len(scored) != nb * len(SWEEP_KS):
        raise RuntimeError(f"{len(blocks)} drafts, {len(scored)} scorings, {nb} reference blocks")
    wall_s = (t_end - t_start) / 1e9
    e2e = {
        "setup_s": setup_s,
        "tokens_per_s": tokens / wall_s,
        **block_stats(scored),
        "cpu_ms_per_token": cpu_ns / 1e6 / tokens,
        "peak_rss_mb": rss,
    }
    layers = {
        "specdec.accept_rate": sum(s[2] for s in samples) / sum(s[3] for s in samples),
        "specdec.tokens_per_block": tokens / nb,
        "transport.uplink_bytes_per_block": 0.0,
        "transport.uplink_bytes_per_token": 0.0,
    }
    if args.trace:
        tracer.dump(args.out / "spans.json")
        layers |= per_layer(table, blocks=blocks, sample_name=REFERENCE, samples=len(samples))
        layers["transport.worker_cpu_ms_per_block"] = 0.0

    # The sweep is one CLI call: a failed check fails all of its points.
    points = 2 * len(SWEEP_KS) * len(SWEEP_TEMPERATURES)
    failed, positions = 0, 0
    try:
        positions = check_sweep(plan, n, args.seed, code, csv_path, samples)
        if args.trace and layers["metrics.instrument_position_calls"] != positions:
            raise CheckFailed("instrument_position calls differ from the CSV steps column")
    except CheckFailed as exc:
        report(exc)
        failed = points
    if args.trace:
        layers["metrics.sweep_positions_per_s"] = positions / wall_s
    return {
        "correct": failed == 0, "attempted": points, "failed": failed, "e2e": e2e,
        "layers": layers,
        "info": {"samples": len(samples), "blocks": nb, "tokens": tokens, "wall_s": wall_s,
                 "positions": positions, "sweep_positions_per_s": positions / wall_s},
    }


def check_sweep(plan: Plan, n: int, seed: int, code: int, csv_path: Path, samples: list) -> int:
    """Checks a finished sweep; returns its position count."""
    import csv

    from checks import (CheckFailed, check_eps_bar, check_same_transcript, check_sample,
                        check_sweep_rows, eps_bar_reference)
    from draftwire import run_reference_sample, sample_seed_for

    if code != 0:
        raise CheckFailed(f"draftwire sweep exited {code}")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    check_sweep_rows(rows, ks=SWEEP_KS, temperatures=SWEEP_TEMPERATURES,
                     vocab_size=plan.vocab_size)
    if len(samples) != n * len(SWEEP_TEMPERATURES):
        raise CheckFailed(f"sweep decoded {len(samples)} reference samples")
    for tokens, blocks, accepted, _ in samples:
        check_sample(tokens, blocks=blocks, accepted=accepted, uplink_bytes=0,
                     budget=plan.max_tokens, vocab_size=plan.vocab_size, gamma=GAMMA,
                     workers=M, k=None)

    # Recompute eps_bar at one temperature from freshly decoded reference runs,
    # which must repeat the sweep's own transcripts at that temperature.
    cfg = run_config(plan, seed, samples=n).with_temperature(EPS_CHECK_TEMPERATURE)
    swept = samples[SWEEP_TEMPERATURES.index(EPS_CHECK_TEMPERATURE) * n:]
    steps = []
    for i in range(n):
        ss = sample_seed_for(cfg.seed, i)
        res = run_reference_sample(cfg.draft_model(ss), cfg.worker_models(ss), cfg.settings(), ss)
        check_same_transcript(res.tokens, swept[i][0], f"reference sample {i} rerun")
        for rec in res.records:
            steps += [[w[t].probs for w in rec.worker_dists] for t in range(GAMMA + 1)]
    weights = [1.0 / M] * M
    for row in rows:
        if float(row["temperature"]) == EPS_CHECK_TEMPERATURE:
            k = int(row["K"])
            check_eps_bar(float(row["eps_bar"]), eps_bar_reference(steps, weights, k),
                          f"{row['strategy']} T={EPS_CHECK_TEMPERATURE} K={k}")
    return sum(int(r["steps"]) for r in rows if r["strategy"] == rows[0]["strategy"])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = PLANS[args.workload]
    if args.workload == "sweep-v512":
        result = run_sweep(plan, args)
    else:
        result = run_decode(plan, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
