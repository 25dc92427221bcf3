#!/usr/bin/env python3
"""Guard committed benchmark claims against a fresh bench run.

Asserts numeric values inside a bench-report JSON (as written by the
criterion benches' ``write_report``) in two ways:

* ``--require PATH>=VALUE`` (or ``<=``): absolute floor/ceiling on a
  dotted-path value, e.g. ``equi_join.speedup>=1.5``. Use these for
  machine-independent claims (speedup ratios) in CI.
* ``--baseline FILE --compare PATH --tolerance FRAC``: the result's value
  at PATH must be within ``FRAC`` relative deviation of the committed
  baseline's value, e.g. ``--tolerance 0.75`` allows ±75%. Use these to
  catch a committed baseline drifting away from what the code reproduces.
* ``--report PATH``: print the value at PATH (with the baseline's value
  alongside when one is given) without asserting anything. Use these to
  surface machine-dependent numbers — e.g. the threaded speedup on a
  2-core runner — in the CI log without making them gate the build.
* ``--require-if COND REQ...``: like ``--require``, but the assertions
  only apply when COND (same ``PATH{>=|<=}VALUE`` syntax, evaluated
  against the result JSON) holds; otherwise each REQ is printed as a
  documented skip. Use for floors that only make sense on big-enough
  hardware, e.g. ``--require-if 'cores>=8' 'speedup_8t_threaded>=2.0'``
  — a 2-core runner cannot exhibit an 8-lane threaded speedup, and a
  silently failing floor there would teach people to ignore the guard.

Exits non-zero with a per-assertion report on any violation.

Examples:
    scripts/bench_guard.py results/BENCH_chase_eval_quick.json \
        --require 'equi_join.speedup>=1.5' 'chain_join.speedup>=1.5'
    scripts/bench_guard.py BENCH_bsp_exchange.json \
        --require 'checkpoint_overhead<=1.05'
"""

import argparse
import json
import re
import sys


def lookup(doc, path):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"path {path!r} not found (missing {part!r})")
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise TypeError(f"path {path!r} is not numeric: {node!r}")
    return float(node)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="bench report JSON to check")
    ap.add_argument(
        "--require",
        nargs="*",
        default=[],
        metavar="PATH{>=|<=}VALUE",
        help="absolute assertions on dotted paths",
    )
    ap.add_argument(
        "--require-if",
        action="append",
        nargs="+",
        default=[],
        metavar="EXPR",
        help="first EXPR is a condition on the result JSON; the remaining "
        "EXPRs are asserted only when it holds, else reported as skipped",
    )
    ap.add_argument("--baseline", help="committed baseline JSON to compare against")
    ap.add_argument(
        "--compare",
        nargs="*",
        default=[],
        metavar="PATH",
        help="dotted paths that must match the baseline within --tolerance",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="max relative deviation for --compare (default 0.25)",
    )
    ap.add_argument(
        "--report",
        nargs="*",
        default=[],
        metavar="PATH",
        help="dotted paths to print without asserting",
    )
    args = ap.parse_args()

    with open(args.result) as f:
        result = json.load(f)
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
    if args.compare and baseline is None:
        ap.error("--compare needs --baseline")

    failures = []
    checks = 0

    def parse_expr(expr, flag):
        m = re.fullmatch(r"\s*([\w.]+)\s*(>=|<=)\s*([-+0-9.eE]+)\s*", expr)
        if not m:
            ap.error(f"malformed {flag} expression {expr!r}")
        return m.group(1), m.group(2), float(m.group(3))

    def check_require(expr, flag):
        nonlocal checks
        path, op, bound = parse_expr(expr, flag)
        checks += 1
        try:
            got = lookup(result, path)
        except (KeyError, TypeError) as e:
            failures.append(str(e))
            return
        ok = got >= bound if op == ">=" else got <= bound
        line = f"{path} = {got:.4g} {op} {bound:.4g}"
        if ok:
            print(f"ok: {line}")
        else:
            failures.append(f"FAIL: {line} violated")

    for expr in args.require:
        check_require(expr, "--require")

    for group in args.require_if:
        if len(group) < 2:
            ap.error("--require-if needs a condition plus at least one assertion")
        cond, reqs = group[0], group[1:]
        path, op, bound = parse_expr(cond, "--require-if")
        checks += 1
        try:
            got = lookup(result, path)
        except (KeyError, TypeError) as e:
            failures.append(str(e))
            continue
        holds = got >= bound if op == ">=" else got <= bound
        if holds:
            print(f"condition holds: {path} = {got:.4g} {op} {bound:.4g}")
            for expr in reqs:
                check_require(expr, "--require-if")
        else:
            print(f"condition false: {path} = {got:.4g} (wanted {op} {bound:.4g})")
            for expr in reqs:
                print(f"skip: {expr} (condition {cond!r} not met on this host)")

    for path in args.compare:
        checks += 1
        try:
            got = lookup(result, path)
            want = lookup(baseline, path)
        except (KeyError, TypeError) as e:
            failures.append(str(e))
            continue
        dev = abs(got - want) / abs(want) if want else float("inf")
        line = f"{path} = {got:.4g} vs baseline {want:.4g} (deviation {dev:.1%}, tolerance {args.tolerance:.0%})"
        if dev <= args.tolerance:
            print(f"ok: {line}")
        else:
            failures.append(f"FAIL: {line}")

    for path in args.report:
        try:
            got = lookup(result, path)
        except (KeyError, TypeError) as e:
            failures.append(str(e))
            checks += 1
            continue
        if baseline is not None:
            try:
                want = lookup(baseline, path)
                print(f"report: {path} = {got:.4g} (baseline {want:.4g})")
                continue
            except (KeyError, TypeError):
                pass
        print(f"report: {path} = {got:.4g}")

    if not checks:
        print("bench_guard: no assertions given", file=sys.stderr)
        return 2
    for f in failures:
        print(f, file=sys.stderr)
    if failures:
        print(f"bench_guard: {len(failures)}/{checks} assertions failed", file=sys.stderr)
        return 1
    print(f"bench_guard: {checks} assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
