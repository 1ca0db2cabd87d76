"""Compare two sets of benchmark runs, one row per workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as run.py appends them (`--out FILE`), at least
ten untraced runs per workload and side; pair runs by seed and alternate
which side runs first.  For every end-to-end metric of BENCHMARK.json the
row shows each side's median and quartiles, the share of seed pairs the
change wins (ties count for neither), and a verdict:

- `unresolved`: the parent's own quartile spread exceeds the metric's bound,
  and not every change run beats every parent run;
- `regression`: the change's median is worse than the parent's by more than
  the bound;
- `gain`: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile spread;
- `no change` otherwise.

Failed/attempted job counts are shown per side; a gain with more failures
than the parent does not count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] or rec["smoke"]:
                continue
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(metric, parent, change):
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    pv = {r["seed"]: r["result"]["metrics"][name]["value"] for r in parent}
    cv = {r["seed"]: r["result"]["metrics"][name]["value"] for r in change}
    pq, cq = quartiles(sorted(pv.values())), quartiles(sorted(cv.values()))
    seeds = sorted(set(pv) & set(cv))
    wins = sum(1 for s in seeds if sign * (pv[s] - cv[s]) > 0)
    p_med, c_med = pq[1], cq[1]
    spread = pq[2] - pq[0]
    all_better = all(sign * (p - c) > 0 for p in pv.values() for c in cv.values())
    if spread > bound * abs(p_med) and not all_better:
        verdict = "unresolved"
    elif sign * (c_med - p_med) > bound * abs(p_med):
        verdict = "regression"
    elif seeds and wins >= 0.9 * len(seeds) and sign * (p_med - c_med) > spread:
        verdict = "gain"
    else:
        verdict = "no change"
    return (f"{name}: {p_med:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> "
            f"{c_med:.4g} [{cq[0]:.4g}, {cq[2]:.4g}], win {wins}/{len(seeds)}, {verdict}")


def failures(runs):
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, []), change.get(workload, [])
        if not p or not c:
            print(f"{workload}: runs on one side only ({len(p)} parent, {len(c)} change)")
            continue
        pf, cf = failures(p), failures(c)
        cells = [compare_metric(m, p, c) for m in metrics]
        print(f"{workload} (runs {len(p)}/{len(c)}, failed {pf[0]}/{pf[1]} -> {cf[0]}/{cf[1]}) | "
              + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
