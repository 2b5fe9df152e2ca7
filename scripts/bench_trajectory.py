#!/usr/bin/env python3
"""Benchmark trajectory snapshot: pinned configs -> BENCH_10.json.

Runs the bench_table7_default binary at small, pinned configurations
(fixed scale / resolution / seed, so successive PRs measure the same
work) with SLAM_BENCH_JSON pointed at a scratch file, aggregates
per-method wall times into p50/p95/p99, and writes BENCH_10.json at the
repo root. The file is the newest point of the repo's performance
trajectory (ROADMAP item 1: track method latency PR over PR); diff it
against the previous snapshot with scripts/bench_compare.py.

Four pinned configs (ROADMAP item 1):
  table7_default  the historical workload, full ten-method roster
  large_n         4x the points at the same 120x90 grid (sweep methods
                  only) — stresses the O(n) terms
  high_res        the same points at a 480x360 grid (sweep methods
                  only) — stresses the O(X) terms, where the counting
                  sort's win over comparison sorting grows
  rao_transposed  the same points at a 360x480 grid (sweep methods
                  only): height > width, the regime the paper's Section
                  3.6 rotation argument targets. The RAO variants sweep
                  its 360 columns of 480 pixels where that reads fewer
                  point-line pairs than the 480 rows of 360 the non-RAO
                  variants sweep (src/core/rao.h): on a city whose
                  pixels come out wider than tall

The snapshot's top-level "methods" key mirrors configs.table7_default
so older tooling (and older snapshots) keep comparing like for like.

Each method runs in its OWN subprocess (via the SLAM_BENCH_METHODS
roster filter). Peak RSS per method is the max over that method's
cells' "peak_rss_bytes" — the harness resets the kernel's RSS watermark
(/proc/self/clear_refs) immediately before each timed compute, so the
figure is the method's own footprint, not whichever earlier phase
(dataset generation) peaked highest. On platforms without watermark
resets the cells report 0 and we fall back to the child's ru_maxrss,
which IS process-lifetime and therefore roster-independent; the
snapshot records which source was used per method.

Usage:
  scripts/bench_trajectory.py [--build-dir build] [--repetitions 5]
                              [--output BENCH_9.json]

The bench binary must already be built (cmake --build build with
SLAM_BUILD_BENCHMARKS=ON). No deps beyond the Python standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Pinned workloads: identical across PRs so the trajectory is comparable.
# Each config is (env, roster). The historical table7_default keeps the
# full roster; the two scaling configs run only the sweep methods (the
# slow baselines would either blow the budget or dominate wall time
# without adding trajectory signal).
SWEEP_METHODS = ["slam_sort", "slam_bucket", "slam_sort_rao",
                 "slam_bucket_rao"]
FULL_ROSTER = [
    "scan", "rqs_kd", "rqs_ball", "z-order", "akde", "quad",
] + SWEEP_METHODS

CONFIGS = {
    "table7_default": {
        "env": {
            "SLAM_BENCH_SCALE": "0.005",
            "SLAM_BENCH_BUDGET": "10",
            "SLAM_BENCH_RES": "120x90",
            "SLAM_BENCH_CHECK": "0",
        },
        "methods": FULL_ROSTER,
    },
    "large_n": {
        "env": {
            "SLAM_BENCH_SCALE": "0.02",
            "SLAM_BENCH_BUDGET": "10",
            "SLAM_BENCH_RES": "120x90",
            "SLAM_BENCH_CHECK": "0",
        },
        "methods": SWEEP_METHODS,
    },
    "high_res": {
        "env": {
            "SLAM_BENCH_SCALE": "0.005",
            "SLAM_BENCH_BUDGET": "10",
            "SLAM_BENCH_RES": "480x360",
            "SLAM_BENCH_CHECK": "0",
        },
        "methods": SWEEP_METHODS,
    },
    # Height > width: the transposed regime where the RAO rotation pays.
    # Same pixel budget as high_res, so RAO vs non-RAO is the only axis
    # that moves between the two configs.
    "rao_transposed": {
        "env": {
            "SLAM_BENCH_SCALE": "0.005",
            "SLAM_BENCH_BUDGET": "10",
            "SLAM_BENCH_RES": "360x480",
            "SLAM_BENCH_CHECK": "0",
        },
        "methods": SWEEP_METHODS,
    },
}


def percentile(values, p):
    """Linear-interpolated percentile, mirroring bench::Percentile."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    frac = rank - lo
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


# getrusage(2) reports ru_maxrss in kilobytes on Linux (and most BSDs)
# but in plain BYTES on macOS; multiplying unconditionally by 1024
# inflated Darwin RSS figures 1024x.
RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def run_once(binary, json_path, env):
    """Runs one bench subprocess; returns its lifetime peak RSS in bytes."""
    run_env = dict(os.environ)
    run_env.update(env)
    run_env["SLAM_BENCH_JSON"] = json_path
    proc = subprocess.Popen(
        [binary], env=run_env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    stderr = proc.stderr.read()
    # wait4 gives the child's rusage.
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{binary} exited with {proc.returncode}")
    return rusage.ru_maxrss * RU_MAXRSS_SCALE


def read_new_cells(scratch_path, offset):
    """The cells appended past `offset`, parsed."""
    cells = []
    with open(scratch_path) as f:
        f.seek(offset)
        for line in f:
            if line.strip():
                cells.append(json.loads(line))
    return cells


def run_config(binary, config, repetitions, label):
    """Runs every (method, repetition) for one config; returns its cells
    plus each method's lifetime-RSS fallback figure."""
    with tempfile.NamedTemporaryFile(
            mode="r", suffix=".jsonl", delete=False) as scratch:
        scratch_path = scratch.name
    cells = []
    lifetime_rss = {}  # canonical method name -> max child ru_maxrss
    try:
        for method in config["methods"]:
            env = dict(config["env"])
            env["SLAM_BENCH_METHODS"] = method
            before = os.path.getsize(scratch_path)
            rss = 0
            for i in range(repetitions):
                print(f"[bench_trajectory] {label}: {method} "
                      f"run {i + 1}/{repetitions}")
                rss = max(rss, run_once(binary, scratch_path, env))
            # The cells this method appended name it in its canonical
            # spelling (e.g. "SLAM_BUCKET_RAO"); map the RSS onto that.
            new_cells = read_new_cells(scratch_path, before)
            for cell in new_cells:
                lifetime_rss[cell["method"]] = rss
            cells.extend(new_cells)
    finally:
        os.unlink(scratch_path)
    return cells, lifetime_rss


def aggregate(cells, lifetime_rss):
    """Per-method stats over the completed cells of one config."""
    by_method = {}    # method -> [seconds]
    cell_rss = {}     # method -> max per-cell watermark peak_rss_bytes
    excluded = 0
    for cell in cells:
        if cell.get("experiment") != "table7_default":
            continue  # the binary stamps its own name; anything else is junk
        method = cell["method"]
        # RSS is measured even on censored/failed cells — the memory was
        # genuinely touched; only the latency sample is unusable.
        cell_rss[method] = max(cell_rss.get(method, 0),
                               cell.get("peak_rss_bytes", 0))
        if not cell.get("ok", False) or cell.get("censored", False):
            excluded += 1
            continue
        by_method.setdefault(method, []).append(cell["seconds"])

    methods = {}
    for method in sorted(by_method):
        seconds = by_method[method]
        # Prefer the per-cell watermark (method-attributable); fall back
        # to the child's lifetime ru_maxrss where the platform cannot
        # reset watermarks.
        watermark = cell_rss.get(method, 0)
        methods[method] = {
            "samples": len(seconds),
            "p50_seconds": percentile(seconds, 50),
            "p95_seconds": percentile(seconds, 95),
            "p99_seconds": percentile(seconds, 99),
            "mean_seconds": statistics.fmean(seconds),
            "peak_rss_bytes": watermark or lifetime_rss.get(method, 0),
            "peak_rss_source": "cell_watermark" if watermark
                               else "process_lifetime",
        }
    return methods, excluded


def check_rss_attribution(methods):
    """Fails loudly when per-method RSS capture has regressed to the old
    behavior of reporting one process-wide number for every method.

    With per-cell watermark resets, methods with different working sets
    (e.g. SCAN's row buffer vs aKDE's tree) must report different peaks.
    All-identical values mean the reset silently stopped working and the
    column is lying about attribution.
    """
    values = {m["peak_rss_bytes"] for m in methods.values()}
    if len(methods) >= 2 and len(values) < 2:
        raise SystemExit(
            "[bench_trajectory] RSS attribution regression: all "
            f"{len(methods)} methods report peak_rss_bytes="
            f"{next(iter(values))}. Per-method RSS capture is supposed to "
            "reset the kernel watermark per cell (bench::ResetPeakRss); "
            "identical values for every method mean it measured the "
            "process, not the method.")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--output", default="BENCH_10.json")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = os.path.join(repo_root, args.build_dir, "bench",
                          "bench_table7_default")
    if not os.path.exists(binary):
        raise SystemExit(
            f"{binary} not found; build first: cmake --build {args.build_dir}"
            " (SLAM_BUILD_BENCHMARKS=ON)")

    configs_out = {}
    for name, config in CONFIGS.items():
        cells, lifetime_rss = run_config(
            binary, config, args.repetitions, name)
        methods, excluded = aggregate(cells, lifetime_rss)
        if not methods:
            raise SystemExit(
                f"[bench_trajectory] {name}: no completed cells")
        configs_out[name] = {
            "pinned_env": config["env"],
            "cells": len(cells),
            "excluded_cells": excluded,
            "methods": methods,
        }

    # Full-roster config is where divergent working sets are guaranteed.
    check_rss_attribution(configs_out["table7_default"]["methods"])

    default = configs_out["table7_default"]
    out = {
        "experiment": "trajectory",
        "per_method_process": True,
        "repetitions": args.repetitions,
        "configs": configs_out,
        # Legacy mirror of the historical single-config schema, so older
        # snapshots and tooling keep diffing the same workload.
        "pinned_env": default["pinned_env"],
        "cells": default["cells"],
        "excluded_cells": default["excluded_cells"],
        "methods": default["methods"],
    }
    out_path = os.path.join(repo_root, args.output)
    with open(out_path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    total_cells = sum(c["cells"] for c in configs_out.values())
    print(f"[bench_trajectory] wrote {out_path} "
          f"({len(configs_out)} configs, {total_cells} cells)")


if __name__ == "__main__":
    main()
