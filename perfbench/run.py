#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr. The last line of stdout
is the run's JSON result: {"correct", "attempted", "failed", "metrics"},
the end-to-end metrics with --trace 0 and the per-layer ones with --trace 1,
each with the unit BENCHMARK.json declares for it. The exit code is 0 only
when the run finished, printed every metric that BENCHMARK.json declares for
its mode, and every output was correct; otherwise the result, if any, goes
to stderr.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("vm_bert_mrpc", "serve_lstm_offline", "http_lstm_online")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside perfbench/: run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A terminated run.py stops its child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    declared = declared_metrics(args.trace)
    printed = result["metrics"]
    if set(printed) != set(declared):
        fail("printed metrics differ from BENCHMARK.json: %s"
             % sorted(set(printed) ^ set(declared)))
    result["metrics"] = {name: {"value": printed[name], "unit": unit}
                         for name, unit in declared.items()}
    if result["attempted"] < 1:
        fail("no operation attempted")
    if not result["correct"] or result["failed"]:
        fail("wrong or failed outputs: " + json.dumps(result))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
