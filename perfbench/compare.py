#!/usr/bin/env python3
"""Judge benchmark runs against the bounds in BENCHMARK.json.

Each run directory holds one file per run: the standard output of
`python3 perfbench/run.py --workload W ...`, named `W.<anything>`
(for example `fig7.seed3.out`); only its last line, the JSON result,
is read.

    python3 perfbench/compare.py spread RUNS_DIR
        Per workload and end-to-end metric: median and spread (the
        distance between the first and third quartile as a share of
        the median), flagged when the spread exceeds a third of the
        metric's bound.

    python3 perfbench/compare.py diff PARENT_DIR CHANGE_DIR
        Per workload and end-to-end metric: whether the change is
        worse than the parent by more than the bound, better, within
        the bound, or unresolved because the parent's own spread is
        wider than the bound. Exits 1 when any metric is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(parent_median, change_median, better):
    """How much worse the change's median is, as a share of the
    parent's (negative when it is better)."""
    delta = (change_median - parent_median) / parent_median
    return delta if better == "lower" else -delta


def verdict(parent, change, better, bound):
    """One of 'worse', 'better', 'unchanged' or 'unresolved'.

    'worse' when the change's median is worse than the parent's by
    more than `bound` (a share of the parent's median). When the
    parent's own spread exceeds the bound, a difference inside it is
    'unresolved' rather than 'unchanged', unless every change run
    reads better than every parent run.
    """
    w = worse_by(statistics.median(parent), statistics.median(change),
                 better)
    if w > bound:
        return "worse"
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if all_better:
        return "better"
    if spread(parent) > bound:
        return "unresolved"
    if -w > bound:
        return "better"
    return "unchanged"


def load_runs(directory):
    """{workload: [metrics dict of each run]} from a run directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line]
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: the run failed its output checks")
        workload = name.split(".", 1)[0]
        runs.setdefault(workload, []).append(result["metrics"])
    return runs


def values_of(runs, metric):
    return [r[metric]["value"] for r in runs]


def main(argv):
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    if len(argv) == 3 and argv[1] == "spread":
        for workload, runs in sorted(load_runs(argv[2]).items()):
            for m in metrics:
                v = values_of(runs, m["name"])
                s = spread(v)
                flag = "" if s <= m["bound"] / 3 else "  > bound/3"
                print(f"{workload:8} {m['name']:18} n={len(v):2} "
                      f"median={statistics.median(v):.6g} {m['unit']:5} "
                      f"spread={s:.4f} bound={m['bound']}{flag}")
        return 0
    if len(argv) == 4 and argv[1] == "diff":
        parent, change = load_runs(argv[2]), load_runs(argv[3])
        status = 0
        for workload in sorted(parent):
            for m in metrics:
                p = values_of(parent[workload], m["name"])
                c = values_of(change[workload], m["name"])
                v = verdict(p, c, m["better"], m["bound"])
                status |= v == "worse"
                print(f"{workload:8} {m['name']:18} parent "
                      f"{statistics.median(p):.6g} change "
                      f"{statistics.median(c):.6g} {m['unit']:5} "
                      f"({worse_by(statistics.median(p), statistics.median(c), m['better']):+.3f} worse) {v}")
        return status
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
