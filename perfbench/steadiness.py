#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

    python3 perfbench/steadiness.py --seeds 1-10 --save .bench_out/set-a.jsonl
    python3 perfbench/steadiness.py --load .bench_out/set-a.jsonl \\
        --compare .bench_out/set-b.jsonl --markdown

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
BENCHMARK.json run length, then reports for every (workload, metric) pair
the median over seeds and the interquartile spread -- (Q3 - Q1) / median,
quartiles from statistics.quantiles(values, n=4) -- next to the metric's
bound. With --compare, it also reports how far the second set's median moved
from the first's, signed so that positive means worse. A pair with a failed
op or a null value in any run is printed as FAILED and the exit code is 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(records, spec):
    """{(workload, metric): (median, spread)} over the records' seeds.

    A pair is (None, None) -- reported as failed -- when any of its runs
    failed an op, reported the metric as null, or it has fewer than two runs.
    """
    table = {}
    for workload in spec["workloads"]:
        runs = [r for r in records if r["workload"] == workload]
        broken = any(r["result"]["failed"] > 0 or not r["result"]["correct"]
                     for r in runs)
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs]
            if broken or len(values) < 2 or any(v is None for v in values):
                table[(workload, metric["name"])] = (None, None)
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            table[(workload, metric["name"])] = (median, (q3 - q1) / median)
    return table


def cells(median, spread):
    if median is None:
        return ["FAILED", "FAILED"]
    return [f"{median:.5g}", f"{spread:.2%}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma list; default: all")
    parser.add_argument("--save", help="append raw results to this JSONL")
    parser.add_argument("--load", action="append", default=[],
                        help="read raw results instead of running")
    parser.add_argument("--compare", help="second result set (JSONL)")
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec["workloads"] = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        spec["workloads"] = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    records = []
    for path in args.load:
        records += [json.loads(line) for line in Path(path).read_text()
                    .splitlines() if line.strip()]
    if not args.load:
        for workload in spec["workloads"]:
            for seed in parse_seeds(args.seeds):
                context, result = run_one(workload, seed, spec["run_seconds"])
                record = {"workload": workload, "seed": seed,
                          "context": context, "result": result}
                records.append(record)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}"
                    for k, v in result["metrics"].items()), file=sys.stderr)
                if args.save:
                    with open(args.save, "a") as out:
                        out.write(json.dumps(record) + "\n")

    first = summarize(records, spec)
    second = {}
    if args.compare:
        other = [json.loads(line) for line in Path(args.compare).read_text()
                 .splitlines() if line.strip()]
        second = summarize(other, spec)

    header = ["workload", "metric", "median", "IQR/median", "bound",
              "spread/bound"]
    if second:
        header += ["median 2", "IQR/median 2", "median moved (worse +)"]
    rows = []
    any_failed = False
    for (workload, metric), (median, spread) in first.items():
        bound = bounds[metric]["bound"]
        row = [workload, metric, *cells(median, spread), f"{bound:.0%}",
               "-" if median is None else f"{spread / bound:.2f}"]
        any_failed |= median is None
        if second and (workload, metric) in second:
            median2, spread2 = second[(workload, metric)]
            any_failed |= median2 is None
            row += cells(median2, spread2)
            if median is None or median2 is None:
                row.append("-")
            else:
                sign = 1 if bounds[metric]["better"] == "lower" else -1
                row.append(f"{sign * (median2 - median) / median:+.2%}")
        rows.append(row)
    if args.markdown:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
        for row in [header] + rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    if any_failed:
        sys.exit("steadiness: a run failed an op or reported a null metric")


if __name__ == "__main__":
    main()
