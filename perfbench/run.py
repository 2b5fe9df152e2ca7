#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore_tall --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench and
traced runs write their spans to .bench_out/. The last line of standard
output is the result JSON; build output goes to standard error.

    python3 perfbench/run.py --test      # build and run the benchmark's tests
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("explore_tall", "render_wide_mt", "serve_open")
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    run_quiet(["cmake", "--build", str(BUILD), "--target", target,
               "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build("perfbench_test")
        sys.exit(subprocess.run([str(BUILD / "perfbench_test")],
                                cwd=ROOT).returncode)
    if args.workload is None:
        fail("--workload is required")

    build("slam_perfbench")
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    cmd = [str(BUILD / "slam_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--trace-out", str(trace_out),
           "--work-dir", str(OUT)]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
