#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py [--seeds 10] [--workloads a,b]

Runs `run.py --trace 0` once per (seed, set, workload) for two sets A and B,
interleaving them seed by seed so that drift of the machine's speed falls on
both alike. For each set, workload and metric it prints the median, the first
and third quartiles (statistics.quantiles(n=4)), the spread (q3 - q1) /
median, and, for set B, how much worse its median is than set A's, as a share
of set A's median. Each spread is flagged against a third of the metric's
bound in BENCHMARK.json (SPREAD) and against the whole bound (OVER), and the
median shift against the whole bound (SHIFT). Raw results go to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2  # set A and set B


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, HERE / "run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, time.monotonic() - start


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "steadiness.json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    runs = {}  # (set, workload) -> list of metric dicts
    for i in range(args.seeds):
        seed = args.first_seed + i
        for s in range(SETS):
            for workload in workloads:
                values, wall_s = run_once(workload, seed, args.seconds)
                runs.setdefault((s, workload), []).append(values)
                print(f"set {'AB'[s]} seed {seed} {workload} ({wall_s:.1f} s): " +
                      " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {f"{s}:{w}": r for (s, w), r in runs.items()}, indent=1))

    ok = True
    print("\nset workload metric median q1 q3 spread shift flag")
    for workload in workloads:
        first = {}
        for s in range(SETS):
            for metric in metrics:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs[(s, workload)]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                if s == 0:
                    first[name] = med
                worse = (med - first[name]) / first[name]
                if metric["better"] == "higher":
                    worse = -worse
                flag = ""
                if spread >= bound / 3:
                    flag += " SPREAD"
                if spread > bound:
                    flag += " OVER"
                if worse > bound:
                    flag += " SHIFT"
                ok = ok and not flag
                print(f"{'AB'[s]} {workload} {name} {med:.6g} {q1:.6g} {q3:.6g} "
                      f"{spread:.4f} {worse:+.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
