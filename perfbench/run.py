#!/usr/bin/env python3
"""Build netadv from source and run one perfbench workload.

    python3 perfbench/run.py --workload <attack|cotrain-serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from anywhere; paths resolve against this file. The repository's own
CMake build compiles the libraries (Release, tests/benches/examples off)
into .bench_build/netadv, this directory's CMakeLists.txt builds the
benchmark binary against them into .bench_build/perfbench-build, and the
binary's standard output is passed through: its last line is the JSON
result. Build output goes to standard error.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "netadv"
BENCH_BUILD = BUILD / "perfbench-build"
WORK_DIR = BUILD / "perfbench-work"
WORKLOADS = ("attack", "cotrain-serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(args):
    result = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S, check=False)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(map(str, args))}")


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (LIB_BUILD / "CMakeCache.txt").exists():
            run_build_step(["cmake", "-S", ROOT, "-B", LIB_BUILD, *generator,
                            "-DCMAKE_BUILD_TYPE=Release",
                            "-DNETADV_BUILD_TESTS=OFF",
                            "-DNETADV_BUILD_BENCH=OFF",
                            "-DNETADV_BUILD_EXAMPLES=OFF"])
        run_build_step(["cmake", "--build", LIB_BUILD, "-j", jobs])
        if not (BENCH_BUILD / "CMakeCache.txt").exists():
            run_build_step(["cmake", "-S", HERE, "-B", BENCH_BUILD, *generator,
                            "-DCMAKE_BUILD_TYPE=Release",
                            f"-DNETADV_ROOT={ROOT}",
                            f"-DNETADV_LIB_BUILD={LIB_BUILD}"])
        run_build_step(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    return BENCH_BUILD / "perfbench"


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*"))]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no netadv sources next to {HERE.name}/ (expected CMakeLists.txt and src/)")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR, "--commit", commit_id()]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
