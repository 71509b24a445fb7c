#!/usr/bin/env python3
"""Repeated pipeline_bench runs, and the paired comparison of two sets.

Usage (from the repository root):
    python3 pipeline_bench/pipeline_runs.py run --reps N --out DIR
            [--pair CHECKOUT --pair-out DIR2]
            [--seconds S] [--seed S0] [--workloads NAME,...]
    python3 pipeline_bench/pipeline_runs.py compare A B
    python3 pipeline_bench/pipeline_runs.py check-ladder --out DIR
            [--seed S0] [--seconds S1,S2]

run: every workload N times through run.py, repetition r at seed S0+r,
alternating the workload order between repetitions; each run writes
DIR/<workload>-<seed>.json. Then one traced run per workload at seed S0
(DIR/<workload>-trace.json), and DIR/summary.json: per workload the
median and quartiles of every end-to-end metric, the per-seed digests,
the traced per-layer numbers, and the host facts. With --pair, every
run is paired with the same run in another checkout (holding a copy of
this pipeline_bench/, so both sides run identical benchmark code),
written to DIR2; the two sides alternate which goes first, and both
summaries get one shared pair id. The host's speed drifts by several
percent over minutes, so only interleaved sets compare fairly.

compare: A is the parent, B the change, and both must come from one
`run --pair` (equal pair ids); runs pair up by (workload, seed). For
every workload x end-to-end metric, with directions from BENCHMARK.json
and as bound the smaller of its bound and PAIRED_BOUND, one verdict:
  improved    B wins >= 90% of the pairs (ties count for neither) and
              the medians differ by more than A's quartile distance
  unresolved  the larger relative quartile distance of the two sides
              exceeds the bound, and the runs do not separate cleanly
  regressed   B's median is worse than A's by more than the bound
  no worse    otherwise, or every B run beats every A run
Exits 1 on any regression, or when a (workload, seed) digest differs
between A and B: the digest covers every run's first ops, so equal code
must reproduce it, and a change that alters it changed behaviour.
Exits 2 when A and B are not the two sides of one paired run.

check-ladder: one traced run of every workload at seed S0 for each
--seconds value (default 4,12), written to DIR. The stage ladder that
yields the per-layer metrics must not depend on --seconds or on the
workload traced, so every run must report the same ladder digest and
the same untimed per-layer values. Exits 1 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# BENCHMARK.json's bounds must also hold between sets run minutes
# apart, across which this kind of host drifts by up to a quarter.
# Interleaved pairs cancel that drift (two paired sets of one commit
# agree within a few percent), so compare holds them to 10%.
PAIRED_BOUND = 0.10


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(root, workload, seed, seconds, trace, out):
    command = [sys.executable, os.path.join(root, "pipeline_bench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--json", out]
    done = subprocess.run(command, cwd=root, stdout=subprocess.DEVNULL)
    print(f"{out}: exit {done.returncode}", file=sys.stderr)
    return done.returncode == 0


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cmd_run(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    sides = [(ROOT, os.path.abspath(args.out))]
    if args.pair:
        sides.append((os.path.abspath(args.pair),
                      os.path.abspath(args.pair_out)))
    for _, out in sides:
        os.makedirs(out, exist_ok=True)
    ok = True
    runs = [(w, 0, args.seed + rep)
            for rep in range(args.reps)
            for w in (workloads if rep % 2 == 0 else workloads[::-1])]
    runs += [(w, 1, args.seed) for w in workloads]
    for turn, (workload, trace, seed) in enumerate(runs):
        name = f"{workload}-trace.json" if trace else f"{workload}-{seed}.json"
        for root, out in (sides if turn % 2 == 0 else sides[::-1]):
            ok &= run_one(root, workload, seed, args.seconds, trace,
                          os.path.join(out, name))
    pair_id = uuid.uuid4().hex if args.pair else None
    for _, out in sides:
        write_summary(out, spec, workloads, args, pair_id)
    return 0 if ok else 1


def write_summary(out, spec, workloads, args, pair_id):
    summary = {"reps": args.reps, "seconds": args.seconds,
               "seeds": [args.seed + r for r in range(args.reps)],
               "pair_id": pair_id, "workloads": {}}
    all_runs = load_runs(out)
    for workload in workloads:
        runs = all_runs.get(workload, {})
        entry = {"digests": {str(s): r["digest"] for s, r in runs.items()},
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in runs.values()]
            if not values:
                continue
            q1, q3 = spread(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "n": len(values)}
        trace_path = os.path.join(out, f"{workload}-trace.json")
        if os.path.exists(trace_path):
            with open(trace_path) as f:
                traced = json.load(f)
            summary["host"] = traced["host"]
            entry["per_layer"] = traced["metrics"]
        summary["workloads"][workload] = entry
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")


def load_runs(directory):
    """{workload: {seed: report}} for the untraced runs in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            report = json.load(f)
        if "workload" not in report or report["trace"]:
            continue
        runs.setdefault(report["workload"], {})[report["seed"]] = report
    return runs


def verdict(a, b, pairs, better, bound):
    """One verdict for parent values `a` vs change values `b`."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1a, q3a = spread(a)
    if pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3a - q1a:
        return "improved", wins
    worse = sign * (ma - mb) / abs(ma) if ma else 0.0
    widest = max((q3 - q1) / abs(m) if m else 0.0
                 for (q1, q3), m in ((spread(a), ma), (spread(b), mb)))
    if widest > bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "no worse", wins
        if max(sign * y for y in b) < min(sign * x for x in a) and worse > bound:
            return "regressed", wins
        return "unresolved", wins
    return ("regressed" if worse > bound else "no worse"), wins


def pair_id(directory):
    try:
        with open(os.path.join(directory, "summary.json")) as f:
            return json.load(f).get("pair_id")
    except (OSError, json.JSONDecodeError):
        return None


def cmd_compare(args):
    spec = load_spec()
    if pair_id(args.a) is None or pair_id(args.a) != pair_id(args.b):
        print(f"{args.a} and {args.b} are not the two sides of one "
              f"`run --pair`; only interleaved sets compare fairly",
              file=sys.stderr)
        return 2
    parent, change = load_runs(args.a), load_runs(args.b)
    failed = False
    print(f"{'workload':<15} {'metric':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'B wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        seeds = sorted(set(a_runs) & set(b_runs))
        for seed in seeds:
            if a_runs[seed]["digest"] != b_runs[seed]["digest"]:
                print(f"{workload} seed {seed}: digest "
                      f"{a_runs[seed]['digest']} != {b_runs[seed]['digest']}")
                failed = True
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(run):
                return run["metrics"][name]["value"]

            a = [value(r) for r in a_runs.values()]
            b = [value(r) for r in b_runs.values()]
            pairs = [(value(a_runs[s]), value(b_runs[s])) for s in seeds]
            result, wins = verdict(a, b, pairs, metric["better"],
                                   min(metric["bound"], PAIRED_BOUND))
            failed |= result == "regressed"
            (qa1, qa3), (qb1, qb3) = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            change_pct = 100.0 * (mb - ma) / ma if ma else 0.0
            print(f"{workload:<15} {name:<14} "
                  f"{f'{ma:.5g} [{qa1:.5g}, {qa3:.5g}]':<34} "
                  f"{f'{mb:.5g} [{qb1:.5g}, {qb3:.5g}]':<34} "
                  f"{change_pct:>+7.1f}% {f'{wins}/{len(pairs)}':>7}  {result}")
    return 1 if failed else 0


def cmd_check_ladder(args):
    """The ladder digest covers the ladder's span call counts and its
    untimed per-layer values (pipeline_bench.cc: LadderDigest)."""
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    digests = set()
    for seconds in args.seconds.split(","):
        for workload in (w["name"] for w in spec["workloads"]):
            out = os.path.join(args.out, f"{workload}-{seconds}s.json")
            if not run_one(ROOT, workload, args.seed, seconds, 1, out):
                return 1
            with open(out) as f:
                digest = json.load(f)["ladder_digest"]
            print(f"{workload:<15} --seconds {seconds:<5} ladder digest {digest}")
            digests.add(digest)
    if len(digests) != 1:
        print("FAIL: the ladder's work changed between runs; diff the "
              "untimed per-layer values of the reports")
        return 1
    print("the ladder is the same whatever --seconds and workload")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--reps", type=int, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seconds", type=float,
                     default=load_spec()["run_seconds"])
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--workloads")
    run.add_argument("--pair")
    run.add_argument("--pair-out")
    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    ladder = sub.add_parser("check-ladder")
    ladder.add_argument("--out", required=True)
    ladder.add_argument("--seed", type=int, default=1)
    ladder.add_argument("--seconds", default="4,12")
    args = parser.parse_args()
    if args.command == "run" and bool(args.pair) != bool(args.pair_out):
        parser.error("--pair and --pair-out go together")
    commands = {"run": cmd_run, "compare": cmd_compare,
                "check-ladder": cmd_check_ladder}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
