#!/usr/bin/env python3
"""Compare benchmark results from two commits.

Each input is a results.jsonl written by perfbench/run.py (one line per
run: workload, seed, trace flag, metadata and result). Run both commits
with the same seeds, alternating which side runs first; runs with the
same (workload, trace, seed) form a pair, in order of appearance.

For every workload and end-to-end metric this prints each side's median
and quartiles, the share of pairs the new commit wins (ties count for
neither), and a verdict:

    better / worse   every pair, or nine tenths of them, moved one way
                     and the medians differ by more than the base's own
                     quartile spread (worse also when the new median is
                     past the metric's bound)
    no change        within the bound and no consistent win
    unresolved       the base's quartile spread exceeds the bound, and
                     the runs do not separate completely

Count metrics are exact for a given seed, so they are judged pair by
pair: worse if any same-seed pair moved against the metric's direction,
better if some pair moved its way and none against it, same otherwise
(unpaired when no seed appears on both sides). The exit code is 1 when
any metric is worse.

Usage:
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path, trace):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for raw in f:
            if not raw.strip():
                continue
            row = json.loads(raw)
            if int(row["trace"]) != trace:
                continue
            for name, m in row["result"]["metrics"].items():
                runs[(row["workload"], name)].append(
                    (row["seed"], float(m["value"])))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pair_up(base, new):
    """Pairs with equal seeds, matched in order of appearance."""
    pending = defaultdict(list)
    for seed, value in base:
        pending[seed].append(value)
    pairs = []
    for seed, value in new:
        if pending[seed]:
            pairs.append((pending[seed].pop(0), value))
    return pairs


def verdict(metric, base, new, pairs):
    b_vals = [v for _, v in base]
    n_vals = [v for _, v in new]
    b_q1, b_med, b_q3 = quartiles(b_vals)
    n_med = statistics.median(n_vals)
    lower = metric.get("better", "lower") == "lower"
    sign = -1.0 if lower else 1.0  # positive = improvement
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    share = wins / len(pairs) if pairs else None
    if metric["unit"] == "count":
        # Exact for a given seed: one pair that moved the wrong way is a
        # loss of output quality, whatever the bound.
        if not pairs:
            return "unpaired", share
        if losses:
            return "worse", share
        return ("better" if wins else "same"), share
    bound = metric.get("bound")
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    separated_better = all(sign * (n - b) > 0 for b in b_vals for n in n_vals)
    separated_worse = all(sign * (n - b) < 0 for b in b_vals for n in n_vals)
    moved = abs(n_med - b_med) > (b_q3 - b_q1)
    worse_by = sign * (b_med - n_med) / b_med if b_med else 0.0
    if bound is not None and spread > bound and not (
            separated_better or separated_worse):
        return "unresolved", share
    if bound is not None and worse_by > bound:
        return "worse", share
    if pairs and moved and wins >= 0.9 * len(pairs):
        return "better", share
    if pairs and moved and losses >= 0.9 * len(pairs):
        return "worse", share
    return "no change", share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = load(args.base, args.trace)
    new = load(args.new, args.trace)
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    if not workloads:
        print("no workload appears in both result sets", file=sys.stderr)
        return 2

    header = (f"{'workload':14s} {'metric':34s} {'base q1/med/q3':32s} "
              f"{'new q1/med/q3':32s} {'pairs':>5s} {'win':>5s}  verdict")
    print(header)
    print("-" * len(header))
    regressions = 0
    for w in workloads:
        for m in metrics:
            key = (w, m["name"])
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            pairs = pair_up(b, n)
            result, share = verdict(m, b, n, pairs)
            regressions += result == "worse"
            bq = "/".join(f"{x:.4g}" for x in quartiles([v for _, v in b]))
            nq = "/".join(f"{x:.4g}" for x in quartiles([v for _, v in n]))
            win = "-" if share is None else f"{share:.2f}"
            print(f"{w:14s} {m['name']:34s} {bq:32s} {nq:32s} "
                  f"{len(pairs):5d} {win:>5s}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
