#!/usr/bin/env python3
"""Compares two sets of perfbench runs, one row per workload and metric.

  python3 perfbench/bench_diff.py BASE NEW [--trace 0|1]

BASE and NEW are JSON-lines files (or directories of them) written by
`perfbench/run.py --record FILE`. For every workload and metric present on
both sides the row shows each side's median and quartiles, the change of the
median with its base, and a verdict:

  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the metric's bound, and not every NEW run
              beats every BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than the bound, or every NEW
              run beats every BASE run
  same        otherwise

Per-layer metrics have no bound in BENCHMARK.json; they are compared against
LAYER_BOUND (0.1) and marked with '*' so they are not read as end-to-end
verdicts. Exits 1 when any end-to-end metric is worse, 0
otherwise.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYER_BOUND = 0.1


def load_runs(path, trace):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".jsonl")] if os.path.isdir(path) else [path])
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if entry.get("trace", 0) != trace:
                    continue
                for metric, cell in entry["result"]["metrics"].items():
                    runs.setdefault((entry["workload"], metric), []).append(
                        cell["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, better):
    sign = -1.0 if better == "lower" else 1.0  # positive = improvement
    b_med, n_med = statistics.median(base), statistics.median(new)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if all_better:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = load_runs(args.base, args.trace)
    new = load_runs(args.new, args.trace)

    header = ("workload", "metric", "unit", "base q1/med/q3 (n)",
              "new q1/med/q3 (n)", "new/base (base median)", "verdict")
    rows = []
    any_worse = False
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        m = spec.get(metric)
        if m is None:
            continue
        b, n = base[key], new[key]
        bound = m.get("bound", LAYER_BOUND)
        v = verdict(b, n, bound, m["better"])
        if "bound" not in m:
            v += "*"
        elif v == "worse":
            any_worse = True
        bq, nq = quartiles(b), quartiles(n)
        b_med = bq[1]
        ratio = ("%.3fx (base %s %s)" % (nq[1] / b_med, fmt(b_med), m["unit"])
                 if b_med else "n/a (base 0)")
        rows.append((workload, metric, m["unit"],
                     "%s/%s/%s (%d)" % (fmt(bq[0]), fmt(bq[1]), fmt(bq[2]),
                                        len(b)),
                     "%s/%s/%s (%d)" % (fmt(nq[0]), fmt(nq[1]), fmt(nq[2]),
                                        len(n)),
                     ratio, v))
    if not rows:
        print("no workload/metric pairs in common", file=sys.stderr)
        return 2
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(7)]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
