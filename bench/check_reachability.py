#!/usr/bin/env python3
"""Fail when libppr.a defines a function that no non-test binary reaches.

Usage:
    check_reachability.py [--build-dir DIR] [--jobs N] [--no-build]
                          [--print-unreached]

The check builds the library, every figure, table, ablation, example,
bench and probe binary, and pipeline_bench, all at -O0 with
-ffunction-sections -fdata-sections and linked with -Wl,--gc-sections.
-O0 keeps inlining from hiding a caller, and --gc-sections drops every
function section that nothing in the binary references. The build is
configured through pipeline_bench/, whose CMakeLists.txt adds the root
project, so one build directory (default .reach_build/) holds every
binary. The root project looks for GoogleTest while configuring even
though no test binary is built here, so install it (libgtest-dev); the
micro_* benches need Google Benchmark (libbenchmark-dev), and the check
refuses to run without them.

The script then lists the demangled ppr:: functions that libppr.a
defines (nm text symbols) and that no non-test binary contains. It
drops what the linker cannot attribute to a caller: operators,
destructors, lambdas, anonymous-namespace helpers, std:: instantiations,
thunks, and the default, copy and move constructors a class gets
implicitly. It diffs the rest against bench/reachability_allowlist.txt,
in which every entry carries a one-line reason:

    <demangled signature>  # <reason>

The check fails (exit 1) on an unreached function missing from the
allowlist, and on an allowlisted function that is now reached or no
longer exists, so the list cannot go stale. --print-unreached prints
the current unreached set in allowlist form (reason left blank), which
is how the list is refreshed after a deliberate change.

Blind spot: a function defined inline in a header appears in libppr.a
only if a library translation unit emits it, so an inline function that
only tests use goes unseen. So does a virtual function of a class some
binary constructs, because its vtable references it. And the check sees
calls, not values: code behind a branch on a config field that nothing
but a test sets counts as reached (the verify skill's config-field grep
lists such fields).
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BUILD_DIR = os.path.join(ROOT, ".reach_build")
ALLOWLIST = os.path.join(ROOT, "bench", "reachability_allowlist.txt")
TEXT_TYPES = {"T", "t", "W", "w"}


def run(cmd):
    # Build chatter goes to stderr, so --print-unreached output stays
    # clean on stdout.
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def binary_targets(build_dir):
    """Every non-test executable the root project defines, plus
    pipeline_bench. The micro_* benches exist only when Google Benchmark
    was found at configure time, and the set must not depend on the
    host, so the check requires it."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        cache = f.read()
    if not re.search(r"^benchmark_DIR:PATH=(?!.*NOTFOUND).+$", cache, re.M):
        sys.exit("Google Benchmark not found: the micro_* benches would be "
                 "missing from the reachability set (install "
                 "libbenchmark-dev)")
    targets = ["pipeline_bench"]
    for name in sorted(os.listdir(os.path.join(ROOT, "bench"))):
        stem, ext = os.path.splitext(name)
        if ext == ".cc" and stem != "bench_util":
            targets.append(stem)
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        stem, ext = os.path.splitext(name)
        if ext == ".cpp":
            targets.append("example_" + stem)
    return targets


def build(build_dir, jobs):
    run(["cmake", "-S", os.path.join(ROOT, "pipeline_bench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"])
    targets = binary_targets(build_dir)
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target",
         "ppr"] + targets)
    return targets


def binary_path(build_dir, target):
    if target == "pipeline_bench":
        return os.path.join(build_dir, target)
    return os.path.join(build_dir, "ppr", target)


def nm_symbols(path):
    """(type, demangled name) for every defined symbol in `path`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            symbols.append((parts[1], parts[2]))
    return symbols


def split_top_level(name):
    """(qualified function name, parameter list) of a demangled
    signature. The parameter list is the last bracket group outside any
    template argument list; the name before it loses any leading return
    type (function templates), which may itself name a function-local
    class."""
    depth = 0
    params_at = None
    for i, ch in enumerate(name):
        if ch in "<(":
            if ch == "(" and depth == 0:
                params_at = i
            depth += 1
        elif ch in ">)":
            depth -= 1
    if params_at is None:
        return name, ""
    head = name[:params_at]
    depth = 0
    start = 0
    for i, ch in enumerate(head):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == " " and depth == 0:
            start = i + 1
    return head[start:], name[params_at:]


def strip_template_args(name):
    out, depth = [], 0
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def is_implicit_special_member(qualified, params):
    parts = strip_template_args(qualified).split("::")
    if len(parts) < 2 or parts[-1] != parts[-2]:
        return False  # not a constructor
    cls = qualified[:qualified.rfind("::")]
    params = params.split(")")[0] + ")"
    return params in ("()", "(%s const&)" % cls, "(%s&&)" % cls)


def is_candidate(name):
    if "(anonymous namespace)" in name or "{lambda(" in name:
        return False
    if "thunk to " in name or re.search(r"\boperator\b", name):
        return False  # operators first: "operator<" would unbalance <>
    qualified, params = split_top_level(name)
    if not qualified.startswith("ppr::") or "~" in qualified:
        return False  # std:: and other instantiations, destructors
    return not is_implicit_special_member(qualified, params)


def unreached_functions(build_dir, targets):
    library = os.path.join(build_dir, "ppr", "libppr.a")
    defined = {name for kind, name in nm_symbols(library)
               if kind in TEXT_TYPES and is_candidate(name)}
    reached = set()
    for target in targets:
        reached.update(name for _, name in
                       nm_symbols(binary_path(build_dir, target)))
    return sorted(defined - reached), defined


def read_allowlist(path):
    entries = {}
    errors = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            name, reason = name.strip(), reason.strip()
            if not sep or not reason:
                errors.append("%s:%d: entry has no reason: %s"
                              % (path, lineno, name))
                continue
            if name in entries:
                errors.append("%s:%d: duplicate entry: %s"
                              % (path, lineno, name))
            entries[name] = reason
    return entries, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=DEFAULT_BUILD_DIR)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--no-build", action="store_true",
                        help="analyse an existing --build-dir as it is")
    parser.add_argument("--print-unreached", action="store_true",
                        help="print the unreached set in allowlist form")
    args = parser.parse_args()

    if args.no_build:
        targets = binary_targets(args.build_dir)
    else:
        targets = build(args.build_dir, args.jobs)
    unreached, defined = unreached_functions(args.build_dir, targets)
    if args.print_unreached:
        for name in unreached:
            print(name + "  # ")
        return 0

    allowed, errors = read_allowlist(ALLOWLIST)
    missing = [n for n in unreached if n not in allowed]
    reached = [n for n in allowed if n in defined and n not in unreached]
    gone = [n for n in allowed if n not in defined]
    for name in missing:
        errors.append("unreached, not allowlisted: " + name)
    for name in reached:
        errors.append("allowlisted, but a non-test binary reaches it: " + name)
    for name in gone:
        errors.append("allowlisted, but libppr.a no longer defines it: " + name)
    print("%d ppr:: functions checked across %d binaries; %d unreached, "
          "%d allowlisted" % (len(defined), len(targets), len(unreached),
                              len(allowed)))
    if errors:
        for line in errors:
            print("FAIL " + line)
        print("Delete unreached code or allowlist it with a reason, and drop "
              "entries that are reached or gone (%s)."
              % os.path.relpath(ALLOWLIST, ROOT))
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
