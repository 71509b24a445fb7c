#!/usr/bin/env python3
"""Build and run pipeline_bench for one workload; print its result.

Usage (from the repository root):
    python3 pipeline_bench/run.py --workload NAME --seed N --seconds S
                                  --trace 0|1 [--json REPORT.json]

Builds the library and the bench from source into .bench_build/ (a
Release CMake build of pipeline_bench/CMakeLists.txt, which adds the
repository's own CMakeLists.txt; concurrent runs serialize on a lock
file), runs one workload, and relays the bench's
last stdout line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, and the span export
(.bench_build/spans-<workload>-<seed>.json) must pass validate_spans.py.
A result whose metric names or units differ from BENCHMARK.json is not
printed. The exit code is non-zero on any failure, including a failed
correctness check.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no repository build under {ROOT}", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "pipeline_bench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail(f"build failed: {' '.join(step)}", 3)


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--json")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    spans = os.path.join(BUILD_DIR,
                         f"spans-{args.workload}-{args.seed}.json")
    if args.trace:
        command += ["--trace", spans]
    if args.json:
        command += ["--json", os.path.abspath(args.json)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"bench printed no result (exit {done.returncode})", 5)

    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected_units(args.trace):
        fail("metric names or units differ from BENCHMARK.json", 6)
    if args.trace:
        sys.path.insert(0, BENCH_DIR)
        import validate_spans
        if validate_spans.validate(spans) != 0:
            fail(f"span export {spans} failed validation", 7)
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
