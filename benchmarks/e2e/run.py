"""End-to-end benchmark of the serve tier: one command, every metric.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                 [--seconds S] [--trace [0|1]] [--out PATH]

Spawns the real ``python -m repro.cli serve`` as a subprocess, drives it
over TCP with seeded, counted work, checks every output against an
in-process oracle, prints each metric by name with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Exits non-zero on any correctness failure.  See README.md beside this
file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

CACHE_DIR = HERE / ".cache"
WORK_ROOT = HERE / ".work"


def print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(f"{title}:")
    for name, (value, unit) in rows.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool, out) -> bool:
    plan = workloads.PLANS[name].scaled(seconds)
    if quick:
        plan = plan.quick()
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    started = time.perf_counter()
    try:
        if trace:
            import tracing

            result = tracing.run_traced(plan, seed, work_dir, CACHE_DIR)
        else:
            result = harness.run_workload(plan, seed, work_dir, CACHE_DIR)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_table("metrics", result.metrics)
    if result.client:
        print_table("harness view (not gated)", result.client)
    print_table("exact-repeat counts", {k: (v, "count") for k, v in result.counts.items()})
    print(f"  ops_attempted {result.attempted}  ops_failed {result.failed}"
          f"  wall {time.perf_counter() - started:.1f} s")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result.metrics.items()
        },
    }
    if out is not None:
        record = dict(summary, workload=name, seed=seed, counts=result.counts,
                      client={k: v for k, (v, _) in result.client.items()})
        with open(out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(summary), flush=True)
    return result.correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.PLANS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the counted work (10 = the reference plan); "
                        "never a deadline")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the separate traced run (per-layer metrics, "
                        "trace.jsonl); 0: the end-to-end run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke test: scale-1 document, a handful of requests")
    parser.add_argument("--out", default=None,
                        help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)
    # leave through the finally blocks that stop the server processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_one(name, args.seed, args.seconds, bool(args.trace), args.quick, args.out) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
