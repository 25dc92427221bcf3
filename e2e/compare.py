#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    e2e/compare.py A.jsonl B.jsonl

A set is a JSON Lines file, one run per line; its `--trace 0` runs of a
workload (one per seed) are what is compared. For each (workload, end-to-end
metric) this prints the median of each set, how much
worse B is than A as a share of A, the bound from BENCHMARK.json, and a
verdict:

    ok          B is not worse than A by more than the bound
    worse       B is worse than A by more than the bound
    unresolved  the runs inside a set spread wider than the bound, so the
                two medians cannot be told apart: not "unchanged"

The spread of a set is the distance between the first and third quartile of
its runs as a share of their median, which is what the bound is sized
against. Exits 1 if any row is `worse`, 2 on a malformed input.
"""

import json
import pathlib
import statistics
import sys


def contract():
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(path) as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def runs_of(result_set, workload):
    return [r for r in result_set if r["workload"] == workload and r["trace"] == 0]


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread(vals):
    """Interquartile distance as a share of the median; 0 for a single run."""
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / abs(statistics.median(vals))


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    bench = contract()
    worse = unresolved = 0
    print(f"{'workload':<14}{'metric':<18}{'A':>16}{'B':>16}{'worse by':>10}{'bound':>7}"
          f"{'spread':>8}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        runs_a, runs_b = runs_of(a, workload), runs_of(b, workload)
        failed = sum(r["failed"] for r in runs_a + runs_b)
        if failed:
            print(f"{workload}: {failed} failed operations: the sets are not comparable")
            worse += 1
        for m in bench["end_to_end"]:
            va, vb = values(runs_a, m["name"]), values(runs_b, m["name"])
            if not va or not vb:
                print(f"{workload:<14}{m['name']:<18} missing from a set", file=sys.stderr)
                return 2
            med_a, med_b = statistics.median(va), statistics.median(vb)
            delta = (med_b - med_a) / abs(med_a)
            if m["better"] == "higher":
                delta = -delta
            wide = max(spread(va), spread(vb))
            if wide > m["bound"]:
                verdict = "unresolved"
                unresolved += 1
            elif delta > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:<14}{m['name']:<18}{med_a:>16.4f}{med_b:>16.4f}{delta:>+10.3f}"
                  f"{m['bound']:>7.2f}{wide:>8.3f}  {verdict}")
    print(f"{worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
