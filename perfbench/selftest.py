#!/usr/bin/env python3
"""Self-test of the benchmark's own contract.

    python3 perfbench/selftest.py [--seconds 2] [--workloads a,b]

For every workload:
  * an untraced run prints exactly the end_to_end metrics of BENCHMARK.json,
    each with its unit, non-zero, and ends with 0 failed operations;
  * two traced runs with the same seed print exactly the per_layer metrics,
    and every count (unit "count") is identical between them; only the
    timings may differ.
Exits 1 on the first violation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, HERE / "run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        sys.exit(f"FAIL {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in args.workloads.split(","):
        result = run(workload, args.seed, args.seconds, 0)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"{workload}: {result['failed']} of {result['attempted']} operations failed")
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        expect(got == end_to_end, f"{workload}: end-to-end metrics {sorted(got)}")
        for name, m in result["metrics"].items():
            expect(m["value"] != 0, f"{workload}: {name} is 0")

        traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        for t in traced:
            expect(t["correct"] and t["failed"] == 0,
                   f"{workload} traced: {t['failed']} of {t['attempted']} failed")
            got = {k: m["unit"] for k, m in t["metrics"].items()}
            expect(got == per_layer, f"{workload}: per-layer metrics {sorted(got)}")
        counts = [n for n, unit in per_layer.items() if unit == "count"]
        for name in counts:
            a, b = (t["metrics"][name]["value"] for t in traced)
            expect(a == b, f"{workload}: count {name} differs between traced runs: {a} vs {b}")
        print(f"ok {workload}: " + " ".join(
            f"{n}={traced[0]['metrics'][n]['value']:g}" for n in counts) +
              f" overhead={traced[0]['metrics']['trace.overhead_ratio']['value']:.3f}",
              flush=True)


if __name__ == "__main__":
    main()
