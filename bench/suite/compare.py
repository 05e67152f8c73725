#!/usr/bin/env python3
"""Compare benchmark result files (run.py --out) against BENCHMARK.json's bounds.

  python3 bench/suite/compare.py BASE.json NEW.json [NEW2.json ...]
  python3 bench/suite/compare.py BASE1.json BASE2.json --against NEW1.json NEW2.json

Without --against the first file is the base and the rest the new side.
For every workload x metric it prints the median and quartiles of each
side's per-file values, the relative delta of the medians, and a verdict
against the metric's bound.  A side's spread is its quartile distance as
a share of its median; it takes two or more files (runs) to measure, so
compare ten runs a side (one seed each) before claiming anything:

  improved       better by more than the bound
  within bound   not worse by more than the bound
  regressed      worse by more than the bound
  unresolved     a side's spread exceeds the bound, unless every new
                 run beats every base run (then improved)

Per-layer metrics (traced files) have no bound; their deltas are printed
for reading only.  Exit status: 1 on any regression or any failed output
check (error_rate > 0) in either side, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    return results


def side_stats(side, workload, metric):
    """(median, q1, q3, spread, values) of one side's runs, or None if absent."""
    values = [r["workloads"][workload]["metrics"][metric]["value"]
              for r in side if metric in r["workloads"].get(workload, {}).get("metrics", {})]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread, values


def verdict(spec, base, new):
    b_med, _, _, b_spread, b_values = base
    n_med, _, _, n_spread, n_values = new
    delta = (n_med - b_med) / abs(b_med) if b_med else 0.0
    worse = delta if spec["better"] == "lower" else -delta
    if "bound" not in spec:
        return delta, "-"
    bound = spec["bound"]
    if max(b_spread, n_spread) > bound:
        if spec["better"] == "lower":
            clear = max(n_values) < min(b_values)
        else:
            clear = min(n_values) > max(b_values)
        return delta, "improved" if clear else "unresolved"
    if worse > bound:
        return delta, "regressed"
    if worse < -bound:
        return delta, "improved"
    return delta, "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", help="result files (run.py --out)")
    parser.add_argument("--against", nargs="+", help="the new side; files are then the base")
    args = parser.parse_args()
    if args.against:
        base, new = load(args.files), load(args.against)
    elif len(args.files) >= 2:
        base, new = load(args.files[:1]), load(args.files[1:])
    else:
        parser.error("need at least two result files")
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"] + bench["per_layer"]

    failed = 0
    counts = {}
    print("%-15s %-30s %12s %12s %12s %12s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "base med", "base q1", "base q3", "new med", "new q1", "new q3",
        "delta", "bound", "verdict"))
    for w in [w["name"] for w in bench["workloads"]]:
        for side_name, side in (("base", base), ("new", new)):
            for r in side:
                entry = r["workloads"].get(w)
                if entry and entry["error_rate"] > 0:
                    print("%-15s %s side: error_rate %.4g (%s)" % (
                        w, side_name, entry["error_rate"], "; ".join(entry["checks"]["failures"])))
                    failed += 1
        for spec in specs:
            b, n = side_stats(base, w, spec["name"]), side_stats(new, w, spec["name"])
            if b is None or n is None:
                continue
            delta, v = verdict(spec, b, n)
            counts[v] = counts.get(v, 0) + 1
            bm, bq1, bq3 = b[:3]
            nm, nq1, nq3 = n[:3]
            bound = "%.2f" % spec["bound"] if "bound" in spec else "-"
            print("%-15s %-30s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.2f%% %7s  %s" % (
                w, spec["name"] + " (" + spec["unit"] + ")", bm, bq1, bq3, nm, nq1, nq3,
                100 * delta, bound, v))
    print("summary: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    return 1 if failed or counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
