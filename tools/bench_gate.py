#!/usr/bin/env python3
"""Perf-trajectory regression gate for BENCH_8.json.

Compares a freshly generated bench document (--candidate) against the
committed baseline (--baseline, BENCH_8.json at the repo root) and
fails if any section's metrics drift past its tolerance.

The simulator is deterministic, so most drift is a real behavior
change: op counts and latency quantiles move only when scheduling or
protocol logic changes, goodput only when the data path changes.  The
two resource metrics — modeled engine CPU per op and minor-GC words
per op — also move with compiler/runtime versions, so they get loose
tolerances; everything else is tight.

Intentional changes update the baseline: regenerate with

    dune exec bench/main.exe -- \
        chaos,chaos_upgrade,overload,partition,tenants,churn,hostile \
        --bench-out BENCH_8.json

and commit the diff alongside the change that caused it.

Exit status: 0 clean, 1 regression, 2 usage/shape error.
Stdlib only; no third-party imports.
"""

import argparse
import json
import sys

# metric -> allowed relative drift (fraction of the baseline value).
TOLERANCES = {
    "ops": 0.01,
    "goodput_gbps": 0.05,
    "p50_ns": 0.10,
    "p99_ns": 0.10,
    "cpu_ns_per_op": 0.50,
    "gc_minor_words_per_op": 0.50,
}

# section -> metric -> absolute ceiling on the candidate value,
# independent of baseline drift.  The churn section measures its
# steady-state window in-workload over a >=100k-connection mesh; these
# ceilings pin the datapath-scaling contract itself (no O(conns)
# rescans on the hot path, near-zero steady-state allocation), so a
# "regenerate the baseline" PR cannot quietly ratchet them away.  The
# GC ceiling is about 3x the 317 words/op the steady window measures
# with allocation-free handler events and engine passes, so one new
# allocation per conn or per packet fails it, not only a 100x one.
ABS_CEILINGS = {
    "churn": {
        "gc_minor_words_per_op": 1_000.0,
        "cpu_ns_per_op": 5_000.0,
    },
}


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_gate: cannot read {path}: {e}")
    if doc.get("bench") != "BENCH_8" or "sections" not in doc:
        sys.exit(f"bench_gate: {path} is not a BENCH_8 document")
    return {s["section"]: s for s in doc["sections"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--candidate", required=True)
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    failures = []
    missing = sorted(set(base) - set(cand))
    if missing:
        failures.append(f"sections missing from candidate: {', '.join(missing)}")
    extra = sorted(set(cand) - set(base))
    if extra:
        # New sections are fine to add, but the baseline must learn them
        # in the same change — otherwise they are never gated.
        failures.append(f"sections missing from baseline: {', '.join(extra)}")

    rows = []
    for sec in sorted(set(base) & set(cand)):
        for metric, tol in TOLERANCES.items():
            b = base[sec].get(metric)
            c = cand[sec].get(metric)
            if b is None or c is None:
                failures.append(f"{sec}.{metric}: missing field")
                continue
            if b == 0:
                # No baseline signal (e.g. a section with no goodput
                # notion): only flag something appearing from nothing.
                ok = c == 0
                drift = float("inf") if not ok else 0.0
            else:
                drift = abs(c - b) / abs(b)
                ok = drift <= tol
            rows.append((sec, metric, b, c, drift, tol, ok))
            if not ok:
                failures.append(
                    f"{sec}.{metric}: baseline {b}, candidate {c} "
                    f"(drift {drift:.1%} > allowed {tol:.0%})"
                )

    for sec, ceilings in ABS_CEILINGS.items():
        if sec not in cand:
            continue
        for metric, ceiling in ceilings.items():
            c = cand[sec].get(metric)
            if c is None:
                failures.append(f"{sec}.{metric}: missing field (ceiling check)")
                continue
            ok = c <= ceiling
            print(f"{sec}.{metric}: {c} <= ceiling {ceiling}: {'yes' if ok else 'NO'}")
            if not ok:
                failures.append(
                    f"{sec}.{metric}: candidate {c} exceeds absolute ceiling {ceiling}"
                )

    w = max((len(f"{s}.{m}") for s, m, *_ in rows), default=10)
    print(f"{'metric':<{w}}  {'baseline':>14}  {'candidate':>14}  {'drift':>8}  ok")
    for sec, metric, b, c, drift, _tol, ok in rows:
        d = "-" if drift == 0 else f"{drift:.1%}"
        print(f"{sec + '.' + metric:<{w}}  {b:>14}  {c:>14}  {d:>8}  {'yes' if ok else 'NO'}")

    if failures:
        print(f"\nbench_gate: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nbench_gate: {len(rows)} checks clean")


if __name__ == "__main__":
    main()
