"""A/A check: does the benchmark agree with itself?

    python benchmarks/e2e/aa_check.py [--runs 5] [--workload NAME ...]

Runs the benchmark on unchanged code as two interleaved sets (A B A B
...) of ``--runs`` runs per workload, run ``k`` of both sets using seed
``k``.  For every workload/metric pair it prints both medians, the
quartile spread of each set as a share of its median, and the relative
gap between the medians in the metric's worse direction, against the
bound in BENCHMARK.json.  A spread or a gap beyond the bound is a
violation; so is an exact-repeat count (lsn, rebuilds, nodes, dir_bytes,
batches_replayed) that differs between two runs of one seed, or a run
that fails its own checks.  Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def run_once(workload: str, seed: int, seconds: float, out: Path) -> dict:
    # check=False: a run that fails its own checks still leaves its
    # record, and is reported as a violation below
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--out", str(out)],
        check=False, stdout=subprocess.DEVNULL,
    )
    return json.loads(out.read_text().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--keep", default=None,
                        help="also append every run's JSON record to this file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 (quartiles need two values)")
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    violations: list[str] = []
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        out = Path(scratch) / "runs.jsonl"
        for name in names:
            sets: dict[str, list[dict]] = {"A": [], "B": []}
            for seed in range(1, args.runs + 1):
                for label in ("A", "B") if seed % 2 else ("B", "A"):
                    record = run_once(name, seed, args.seconds, out)
                    sets[label].append(record)
                    if args.keep:
                        with open(args.keep, "a") as handle:
                            handle.write(json.dumps(dict(record, set=label)) + "\n")
            for label, records in sets.items():
                for record in records:
                    if not record["correct"]:
                        violations.append(
                            f"{name} set {label} seed {record['seed']}: run failed "
                            f"its checks ({record['failed']} ops failed)")
            for a, b in zip(sets["A"], sets["B"]):
                if a["counts"] == b["counts"]:
                    continue
                message = (f"{name} seed {a['seed']}: counts differ between the sets: "
                           f"{a['counts']} vs {b['counts']}")
                if a["client"]["server.split_windows"] or b["client"]["server.split_windows"]:
                    # the server split a window under a stall: the later
                    # targets resolved against another state (README,
                    # "split windows"); the run still checks out
                    print(f"NOTE (window split by the server): {message}")
                else:
                    violations.append(message)
            print(f"\n{name}: {args.runs} runs per set, seeds 1..{args.runs}")
            print(f"  {'metric':<16}{'median A':>12}{'median B':>12}"
                  f"{'spread A':>10}{'spread B':>10}{'gap B/A':>9}{'bound':>7}")
            for metric in SPEC["end_to_end"]:
                key, bound = metric["name"], metric["bound"]
                a = [r["metrics"][key]["value"] for r in sets["A"]]
                b = [r["metrics"][key]["value"] for r in sets["B"]]
                gap = worsening(statistics.median(a), statistics.median(b),
                                metric["better"])
                flags = []
                # set-up time is exempt from the spread rule (one cold
                # boot is what it is); its medians must still agree
                if key != "setup_s" and max(spread(a), spread(b)) > bound:
                    flags.append("SPREAD")
                if gap > bound:
                    flags.append("GAP")
                print(f"  {key:<16}{statistics.median(a):>12.5g}"
                      f"{statistics.median(b):>12.5g}{spread(a):>10.4f}"
                      f"{spread(b):>10.4f}{gap:>+9.4f}{bound:>7.3f}"
                      f"  {' '.join(flags)}")
                violations.extend(f"{name}/{key}: {flag} beyond {bound}" for flag in flags)
            print("  counts, seed 1: " + json.dumps(sets["A"][0]["counts"]))
    print()
    for violation in violations:
        print(f"VIOLATION: {violation}")
    print("A/A check " + ("FAILED" if violations else "passed"))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
