#!/usr/bin/env python3
"""Gate GF(256) kernel performance against the committed baseline.

Usage:
    check_regression.py CURRENT BASELINE [--symbol-bytes N]
                        [--max-regression F] [--min-speedup F]
                        [--require-simd] [--strict]
                        [--extra-current PATH ...]

CURRENT and BASELINE are bench_fec.json files produced by
`micro_fec_bench --json <path>`. Each --extra-current (repeatable)
names another report whose records are merged into CURRENT before the
--strict presence check — the way stream_latency_bench --json results
join the micro-kernel report so the one committed baseline can cover
every bench binary. The gated metric is the dispatched-
over-scalar GfAxpy throughput RATIO at --symbol-bytes (default 1024):
ratios, not absolute MB/s, so the gate is robust to runner hardware
generation differences. The build fails (exit 1) when:

  * the current speedup regressed more than --max-regression (default
    0.20, i.e. 20%) relative to the baseline speedup, or
  * the current speedup is below --min-speedup (default 4.0) while a
    SIMD backend is active — the ROADMAP's ">= 4x scalar at 1 KiB"
    floor, or
  * --require-simd is set and the active backend is scalar (the hosted
    runner is expected to dispatch a vector kernel; losing that is
    itself a regression), or
  * --strict is set and a baseline record has no matching
    (bench, kernel, impl, symbol_bytes[, terms][, k]) record in
    CURRENT — a silently dropped benchmark would otherwise shrink
    coverage without tripping any ratio gate. Without --strict this
    only warns. Records missing a per-record "bench" field inherit the
    report's doc-level "bench" header, so one committed baseline can
    hold records from several bench binaries without ambiguity.
    Baseline records pinned to a GF(256) backend the current host
    cannot dispatch (the current report's "impls" header names what the
    host probed; e.g. gfni records checked on a pre-GFNI runner) are
    skipped with a note rather than failed: the baseline is allowed to
    be measured on wider hardware than any one runner.

Refreshing the baseline (after an intentional kernel change):

    cmake --build build -j --target micro_fec_bench
    ./build/micro_fec_bench --json bench/baseline/bench_fec.json

on an idle machine, then commit the file. The committed baseline is
deliberately seeded with a conservative 5.0x dispatch speedup so the
gate tracks "did the vector kernel stop pulling its weight" rather than
one machine's peak; raise it once archived CI artifacts show a stable
higher ratio.
"""

import argparse
import json
import sys


# Every GF(256) backend the dispatcher can ever name; used to tell "a
# backend this host lacks" apart from non-backend impl tags like
# "ack-deficit" or "engine".
GF_BACKENDS = {"scalar", "avx2", "neon", "gfni"}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    # Records without their own "bench" tag belong to the binary that
    # wrote the report: stamp the doc-level header down so merged
    # reports (and the one committed baseline) key unambiguously.
    bench = doc.get("bench")
    for rec in doc.get("results", []):
        rec.setdefault("bench", bench)
    return doc


def host_impls(doc):
    """GF backends the current host probed, from the report header."""
    raw = doc.get("impls")
    return set(raw.split(",")) if raw else None


def axpy_mbps(doc, path, impl, symbol_bytes, required=True):
    for rec in doc["results"]:
        if (rec.get("kernel") == "GfAxpy" and rec.get("impl") == impl
                and rec.get("symbol_bytes") == symbol_bytes):
            return rec["mb_per_s"]
    if required:
        sys.exit(f"{path}: no GfAxpy record for impl={impl} "
                 f"symbol_bytes={symbol_bytes}")
    # A missing BASELINE entry is expected right after a new bench name
    # or backend lands (the committed baseline predates it): warn and
    # let the caller skip the baseline-relative gate rather than fail
    # the build on a KeyError-shaped error.
    print(f"warning: {path}: no GfAxpy record for impl={impl} "
          f"symbol_bytes={symbol_bytes}; baseline-relative gate skipped "
          "(refresh the baseline to re-arm it)", file=sys.stderr)
    return None


def has_impl(doc, impl, symbol_bytes):
    return any(rec.get("kernel") == "GfAxpy" and rec.get("impl") == impl
               and rec.get("symbol_bytes") == symbol_bytes
               for rec in doc["results"])


def record_key(rec):
    return (rec.get("bench"), rec.get("kernel"), rec.get("impl"),
            rec.get("symbol_bytes"), rec.get("terms"), rec.get("k"))


def describe_key(key):
    bench, kernel, impl, symbol_bytes, terms, k = key
    desc = f"bench={bench} kernel={kernel}"
    if impl is not None:
        desc += f" impl={impl}"
    if symbol_bytes is not None:
        desc += f" symbol_bytes={symbol_bytes}"
    if terms is not None:
        desc += f" terms={terms}"
    if k is not None:
        desc += f" k={k}"
    return desc


def missing_from_current(cur_doc, base_doc, impls):
    """Baseline record keys with no matching record in the current report.

    Baseline records pinned to a GF backend the host cannot dispatch
    (per the current report's probed `impls`) are reported separately
    as skips, never failures.
    """
    have = {record_key(rec) for rec in cur_doc["results"]}
    missing, skipped = [], []
    for key in dict.fromkeys(record_key(rec) for rec in base_doc["results"]):
        if key in have:
            continue
        impl = key[2]
        if (impls is not None and impl in GF_BACKENDS and impl not in impls):
            skipped.append(key)
        else:
            missing.append(key)
    return missing, skipped


def speedup(doc, path, symbol_bytes, impl=None, required=True):
    impl = impl or doc.get("active_impl", "scalar")
    scalar = axpy_mbps(doc, path, "scalar", symbol_bytes, required=required)
    dispatched = axpy_mbps(doc, path, impl, symbol_bytes, required=required)
    if scalar is None or dispatched is None:
        return impl, None
    return impl, dispatched / scalar


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--symbol-bytes", type=int, default=1024)
    parser.add_argument("--max-regression", type=float, default=0.20)
    parser.add_argument("--min-speedup", type=float, default=4.0)
    parser.add_argument("--require-simd", action="store_true")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail (instead of warn) when a baseline record is missing "
             "from the current report")
    parser.add_argument(
        "--extra-current", action="append", default=[], metavar="PATH",
        help="additional report whose records are merged into CURRENT "
             "before the --strict presence check (repeatable)")
    args = parser.parse_args()

    cur_doc, base_doc = load(args.current), load(args.baseline)
    for extra_path in args.extra_current:
        cur_doc["results"].extend(load(extra_path)["results"])
    failures = []
    missing, skipped = missing_from_current(cur_doc, base_doc,
                                            host_impls(cur_doc))
    for key in skipped:
        print(f"note: baseline record skipped (backend unavailable on this "
              f"host): {describe_key(key)}", file=sys.stderr)
    for key in missing:
        msg = f"baseline record missing from current report: {describe_key(key)}"
        if args.strict:
            failures.append(msg)
        else:
            print(f"warning: {msg}", file=sys.stderr)
    cur_impl, cur = speedup(cur_doc, args.current, args.symbol_bytes)
    # Compare like with like: when the baseline recorded the runner's
    # active backend, gate against that backend's ratio rather than the
    # (possibly wider) backend the baseline machine dispatched. A
    # baseline that predates the current bench name or backend entirely
    # downgrades the baseline-relative check to a warning.
    base_pin = cur_impl if has_impl(base_doc, cur_impl,
                                    args.symbol_bytes) else None
    base_impl, base = speedup(base_doc, args.baseline, args.symbol_bytes,
                              impl=base_pin, required=False)

    if base is None:
        print(f"baseline: no usable entry at {args.symbol_bytes} B")
    else:
        print(f"baseline: {base_impl} {base:.2f}x scalar at "
              f"{args.symbol_bytes} B")
    print(f"current:  {cur_impl} {cur:.2f}x scalar at "
          f"{args.symbol_bytes} B")

    if cur_impl == "scalar":
        if args.require_simd:
            failures.append(
                "active backend is scalar but --require-simd was given: "
                "the runner should dispatch a SIMD kernel")
        else:
            print("note: scalar-only host, ratio gates skipped")
    else:
        if base is not None:
            floor = (1.0 - args.max_regression) * base
            if cur < floor:
                failures.append(
                    f"dispatch speedup {cur:.2f}x regressed more than "
                    f"{args.max_regression:.0%} vs baseline {base:.2f}x "
                    f"(floor {floor:.2f}x)")
        if cur < args.min_speedup:
            baseline_note = (f" (baseline was {base:.2f}x)"
                             if base is not None else "")
            failures.append(
                f"dispatch speedup {cur:.2f}x is below the "
                f"{args.min_speedup:.1f}x floor{baseline_note}")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("OK: GF(256) dispatch throughput within bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
