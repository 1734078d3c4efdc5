#!/usr/bin/env python3
"""Compare two sets of snapbench runs.

Usage:

    python3 snapbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds run files written by `snapbench.exe --out FILE`.
For every (workload, end-to-end metric) pair this prints each side's
median and quartiles and a verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound (a share of the base median)
  better      the new side wins at least 9 of 10 runs paired by seed and
              the medians differ by more than the base side's quartile
              spread
  unresolved  either side's quartile spread exceeds the bound, unless
              every new run reads better than every base run
  unchanged   otherwise

Per-layer metrics (from --trace 1 runs) are listed with their median
change and no verdict.  Exits 1 on any "worse", on a larger failed-op
share, or on a run whose output checks failed.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit("compare.py: no run files in %s" % directory)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(base, new, bound, better):
    """base, new: {seed: value}; better: "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    gain = sign * (nmed - bmed)  # > 0 when the new side is better
    every_new_better = min(sign * v for v in new.values()) > max(
        sign * v for v in base.values()
    )
    if max(spread(bq1, bmed, bq3), spread(nq1, nmed, nq3)) > bound:
        return "better" if every_new_better else "unresolved"
    if -gain > bound * abs(bmed):
        return "worse"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    if seeds and wins >= 0.9 * len(seeds) and gain > (bq3 - bq1):
        return "better"
    return "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def by_workload(runs, trace):
    out = {}
    for r in runs:
        if r.get("trace", 0) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def metric_values(runs, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in runs if name in r["metrics"]}


def change(base, new):
    bmed, nmed = statistics.median(base.values()), statistics.median(new.values())
    return "%+.1f%%" % (100.0 * (nmed - bmed) / abs(bmed)) if bmed else "n/a"


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    failing = False

    for r in new_runs:
        if not r["correct"]:
            print("new run %s seed %s failed its output checks" % (r["workload"], r["seed"]))
            failing = True

    base_e2e, new_e2e = by_workload(base_runs, 0), by_workload(new_runs, 0)
    row = "%-11s %-20s %-38s %-38s %8s  %s"
    print(row % ("workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict"))
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in base_e2e or w not in new_e2e:
            continue
        for m in bench["end_to_end"]:
            base = metric_values(base_e2e[w], m["name"])
            new = metric_values(new_e2e[w], m["name"])
            if not base or not new:
                continue
            v = verdict(base, new, m["bound"], m["better"])
            failing |= v == "worse"
            print(row % (w, m["name"], fmt(list(base.values())), fmt(list(new.values())),
                         change(base, new), v))
        bf, nf = failed_share(base_e2e[w]), failed_share(new_e2e[w])
        if nf > bf:
            print("%-11s failed-op share grew: %.3g -> %.3g" % (w, bf, nf))
            failing = True

    base_pl, new_pl = by_workload(base_runs, 1), by_workload(new_runs, 1)
    if base_pl and new_pl:
        print()
        row = "%-11s %-36s %14s %14s %8s"
        print(row % ("workload", "per-layer metric", "base median", "new median", "change"))
        for w in [x["name"] for x in bench["workloads"]]:
            if w not in base_pl or w not in new_pl:
                continue
            for m in bench["per_layer"]:
                base = metric_values(base_pl[w], m["name"])
                new = metric_values(new_pl[w], m["name"])
                if not base or not new:
                    continue
                print(row % (w, m["name"], "%.5g" % statistics.median(base.values()),
                             "%.5g" % statistics.median(new.values()), change(base, new)))

    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
