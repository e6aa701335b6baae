#!/usr/bin/env python3
"""Steadiness check: runs each workload as independent sets of runs.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--trace]

Each set runs every workload of BENCHMARK.json --runs times at its
run_seconds, each time with another seed: 1 + 1000 * set + run (workloads
interleaved, so slow drift of the host hits all of them alike).
For every metric and set it prints the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread: (Q3 - Q1) / median. Without
--trace it also prints, per end-to-end metric, how much worse the last
set's median is than the first's, and the bound BENCHMARK.json gives it.
The spreads are what the bounds in BENCHMARK.json were derived from (see
README.md). Raw results go to .bench_runs/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run failed: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = 1 + 1000 * s + i
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"], args.trace)
                results[w][s].append(r)
                print("set %d run %d %-20s seed %-5d attempted %-7d failed %d"
                      % (s + 1, i + 1, w, seed, r["attempted"], r["failed"]),
                      file=sys.stderr)

    os.makedirs(os.path.join(ROOT, ".bench_runs"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_runs", "steady.json"), "w") as f:
        json.dump({"args": vars(args), "results": results}, f, indent=1)

    for w in workloads:
        print("\n== %s" % w)
        for s in range(args.sets):
            runs = results[w][s]
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print("set %d: correct %s, failed share %s" % (
                s + 1, all(r["correct"] for r in runs), shares))
        print("%-32s %4s %14s %14s %14s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread"))
        for m in metrics:
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][m["name"]]["value"] for r in results[w][s]]
                if len(values) < 2:
                    continue
                median, q1, q3, spread = summary(values)
                medians.append(median)
                print("%-32s %4d %14.6g %14.6g %14.6g %7.2f%%" % (
                    m["name"], s + 1, median, q1, q3, 100 * spread))
            if "bound" in m and len(medians) >= 2 and medians[0]:
                change = (medians[-1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                print("%-32s      last set worse by %+.2f%% (bound %.0f%%)" % (
                    "", 100 * worse, 100 * m["bound"]))


if __name__ == "__main__":
    main()
