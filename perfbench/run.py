"""Benchmark entry point: one workload, one seed, one trace setting.

Usage, from the root of a draftwire checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh process with ``src/`` on the path, checks its
outputs, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; ``setup_s`` is the median of the workload
process's own set-up and ``SETUP_PROBES`` set-up-only processes. With
``--trace 1`` the metrics are the per-layer ones from a traced run. Metric
names and units come from ``BENCHMARK.json``. Everything a run writes goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20

def run_workload(args: argparse.Namespace, root: Path, out: Path, *, setup_only: bool) -> dict:
    """Start the workload in its own process group and return its JSON result."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=PROBE_TIMEOUT_S if setup_only else RUN_TIMEOUT_S)
    finally:
        # The group holds the workload's own workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "draftwire" / "__init__.py").is_file():
        print(f"no draftwire sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = root / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    def probes(count: int) -> list[float]:
        return [run_workload(args, root, out, setup_only=True)["setup_s"] for _ in range(count)]

    # Set-up probes go before and after the workload, to sample the machine twice.
    setups = [] if args.trace else probes(SETUP_PROBES // 2)
    result = run_workload(args, root, out, setup_only=False)
    if args.trace:
        metrics, values = spec["per_layer"], result["layers"]
    else:
        setups += [result["e2e"]["setup_s"], *probes(SETUP_PROBES - SETUP_PROBES // 2)]
        result["setup_runs_s"] = setups
        metrics, values = spec["end_to_end"], {**result["e2e"], "setup_s": statistics.median(setups)}
    (out / "result.json").write_text(json.dumps(result, indent=2))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
