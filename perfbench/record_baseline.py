#!/usr/bin/env python3
"""Measure the benchmark's baseline and rewrite perfbench/baseline.json.

    python3 perfbench/record_baseline.py [--runs 10] [--seconds 30]

For every workload in baseline.json: --runs untraced runs, one per seed
(1, 2, ...), then one traced run on the default seed. Each end-to-end
metric, printed ones included, is stored as the median of its runs with
the spread (inter-quartile range over median, as statistics.quantiles(n=4)
gives it) and every run's value in seed order; each per-layer metric is
the traced run's value. Seeds, workload reasons and stressed layers are
kept from the existing file. Any failed run aborts without writing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{out.stdout}\n{out.stderr}")
    host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
    # The printed table also holds the metrics the result line leaves out
    # (batch_p99_us, mrc_mae, failed_ratio).
    start = lines.index(next(l for l in lines if l.startswith("metric ")))
    table = {}
    for line in lines[start + 1:-1]:
        fields = line.split()
        if len(fields) == 5 and not line.startswith("FAILED"):
            table[fields[0]] = float(fields[1])
    return table, host


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(BASELINE) as f:
        baseline = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    default_seed = baseline["seeds"]["default"]

    host = None
    # Every workload the harness knows, gated or not, so the spreads that
    # keep web_bytes and sharded_zoo out of BENCHMARK.json stay on record.
    for name in baseline["workloads"]:
        values = {}
        for seed in range(1, args.runs + 1):
            start = time.time()
            table, host = run(name, seed, seconds, 0)
            for metric, value in table.items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: {time.time() - start:.1f} s", file=sys.stderr)
        traced, _ = run(name, default_seed, seconds, 1)
        entry = baseline["workloads"].setdefault(name, {})
        entry["end_to_end"] = {
            m: {"median": statistics.median(v), "spread": round(spread(v), 4),
                "values": v}
            for m, v in values.items()}
        entry["per_layer"] = traced
        for m, v in entry["end_to_end"].items():
            print(f"{name:15s} {m:20s} median {v['median']:.6g} "
                  f"spread {v['spread']:.4f}", file=sys.stderr)
    host.pop("workload", None)
    host.pop("seed", None)
    host.pop("trace", None)
    host.pop("valid", None)
    host["machine"] = platform.machine()
    baseline["host"] = host
    baseline["run_seconds"] = seconds
    with open(BASELINE, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
