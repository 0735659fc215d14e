#!/usr/bin/env python3
"""Steadiness report: runs workloads of the benchmark N times, each with its
own seed, and prints for every metric its median, quartiles, interquartile
range over median and (max - min) over median, next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/steady.py --runs 10 [--workloads grid,rmat,serve]
        [--first-seed 1]

Run it from the root of a checkout. Each run measures for BENCHMARK.json's
run_seconds. Quartiles are those of statistics.quantiles(values, n=4). A
metric is marked "ok" when its interquartile spread is below a third of its
bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spreads(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    base = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / base, (max(values) - min(values)) / base


def main():
    here = Path(__file__).resolve().parent
    spec = json.loads((here.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    failed = False
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(here / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                failed = True
                continue
            result = json.loads(last)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}"
                  f" failed {result['failed']}", flush=True)
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':38} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, iqr, rng = spreads(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if iqr < bound / 3 else "WIDE"
            print(f"  {name:38} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {iqr:8.3f} {rng:8.3f} {bound if bound else '':>6} {mark}")
        print(flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
