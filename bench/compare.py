#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

Usage:
    python3 bench/compare.py P1.json C1.json P2.json C2.json ...

Arguments alternate: each pair is one parent `result.json` and one
change `result.json` written by the benchmark (`bench/out/result.json`)
with identical settings, measured back to back with the side that runs
first alternating between pairs.

For every workload and end-to-end metric of BENCHMARK.json it prints
one verdict, one row per workload:

* gain: at least ten pairs, the change better in at least 9/10 of
  them (ties count for neither side), its median better than the
  parent's by more than the parent's interquartile range, and no more
  failed runs than the parent;
* regression: the change's median worse than the parent's by more
  than the metric's bound;
* unresolved: the parent's own spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* same: none of the above.

It also reports whether each pair's study digests agree, since a
speed-only change must leave every simulated result identical.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def verdict(parent, change, better, bound, failed_more):
    """One metric's verdict over paired runs (lists in pair order)."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = change better.
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    p_iqr = q[2] - q[0]
    delta = (c_med - p_med) / p_med if p_med else 0.0
    text = f"{delta:+.1%} ({wins}/{len(gains)} wins)"
    all_better = min(sign * -c for c in change) > max(sign * -p for p in parent)
    if (len(gains) >= 10 and wins >= 0.9 * len(gains) and sign * (p_med - c_med) > p_iqr
            and not failed_more):
        return "gain " + text
    if p_med and p_iqr / p_med > bound and not all_better:
        return "unresolved " + text
    if sign * (c_med - p_med) > bound * p_med:
        return "REGRESSION " + text
    return "same " + text


def main(paths):
    if len(paths) < 2 or len(paths) % 2:
        sys.exit(__doc__)
    spec = load(os.path.join(HERE, "..", "BENCHMARK.json"))
    results = [load(p) for p in paths]
    parents, changes = results[0::2], results[1::2]
    if len(parents) < 10:
        print(f"note: {len(parents)} pairs; a gain needs at least 10")
    workloads = [w["name"] for w in spec["workloads"]]
    rc = 0
    for w in workloads:
        present = sum(w in r["workloads"] for r in results)
        if present == 0:
            continue
        if present < len(results):
            print(f"{w:<16} missing from some results")
            rc = 1
            continue
        runs = lambda side: [r["workloads"][w] for r in side]
        failed_more = sum(r["failed"] for r in runs(changes)) > sum(r["failed"] for r in runs(parents))
        cells = []
        for m in spec["end_to_end"]:
            name = m["name"]
            values = lambda side: [r["metrics"][name]["value"] for r in runs(side)]
            v = verdict(values(parents), values(changes), m["better"], m["bound"], failed_more)
            rc |= v.startswith("REGRESSION")
            cells.append(f"{name}: {v}")
        same = all(p["sim_digest"] == c["sim_digest"] for p, c in zip(runs(parents), runs(changes)))
        cells.append("digest: " + ("same" if same else "DIFFERENT"))
        print(f"{w:<16} " + " | ".join(cells))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
