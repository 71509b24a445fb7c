#!/usr/bin/env python3
"""Check the span export of a traced pipeline_bench run.

Usage:
    validate_spans.py SPANS.json [--min-spans N]

First the Chrome-trace schema checks of bench/validate_trace.py (sorted
keys, required fields, numeric timestamps), then the span tree:

  * every span has integer args parent, span and trace, and span ids
    are unique;
  * every non-zero parent exists, and a child lies inside its parent's
    interval;
  * every root span (an op or a ladder group) carries a trace id >= 0,
    and each child shares its root's trace id;
  * each span's self time (its duration minus its children's) is >= 0.

Chrome traces carry microseconds with three decimals, so interval
comparisons allow one nanosecond of rounding per endpoint.
"""

import argparse
import importlib.util
import json
import os
import sys

EPS_US = 0.002


def load_schema_checker():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "bench", "validate_trace.py")
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_tree(events):
    errors = []
    spans = {}
    for i, event in enumerate(events):
        args = event.get("args", {})
        if event.get("ph") != "X" or not all(
                isinstance(args.get(k), int)
                for k in ("parent", "span", "trace")):
            errors.append(f"event {i} ({event.get('name')}): not a span")
            continue
        if args["span"] in spans:
            errors.append(f"event {i}: duplicate span id {args['span']}")
        spans[args["span"]] = event
    children = {}
    for span_id, event in spans.items():
        args = event["args"]
        name = event["name"]
        if args["parent"] == 0:
            if args["trace"] < 0:
                errors.append(f"root span {span_id} ({name}) has no trace id")
            continue
        parent = spans.get(args["parent"])
        if parent is None:
            errors.append(f"span {span_id} ({name}): parent "
                          f"{args['parent']} missing")
            continue
        children.setdefault(args["parent"], []).append(event)
        if args["trace"] != parent["args"]["trace"]:
            errors.append(f"span {span_id} ({name}): trace id differs "
                          f"from its parent's")
        if (event["ts"] < parent["ts"] - EPS_US or
                event["ts"] + event["dur"] >
                parent["ts"] + parent["dur"] + EPS_US):
            errors.append(f"span {span_id} ({name}) lies outside parent "
                          f"{args['parent']} ({parent['name']})")
    for span_id, kids in children.items():
        parent = spans[span_id]
        self_us = parent["dur"] - sum(k["dur"] for k in kids)
        if self_us < -EPS_US * (len(kids) + 1):
            errors.append(f"span {span_id} ({parent['name']}): negative "
                          f"self time {self_us:.3f} us")
    return len(spans), errors


def validate(path, min_spans=1):
    """Returns 0 when `path` passes every check, 1 otherwise."""
    if load_schema_checker().check_chrome(path, min_spans):
        return 1
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    count, errors = check_tree(events)
    for error in errors[:20]:
        print(f"FAIL: {error}", file=sys.stderr)
    if errors:
        print(f"FAIL: {len(errors)} span-tree errors", file=sys.stderr)
        return 1
    print(f"{path}: {count} spans, tree OK", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace")
    parser.add_argument("--min-spans", type=int, default=1)
    args = parser.parse_args()
    return validate(args.trace, args.min_spans)


if __name__ == "__main__":
    sys.exit(main())
