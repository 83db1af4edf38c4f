"""Compare two result sets written by run.py --out: parent, then change.

For every workload and end-to-end metric it prints each side's median,
quartiles and run count from the untraced runs, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (a share of the parent's
              median)
  better      every change run beats every parent run, or the change wins
              at least 9 in 10 paired runs and the medians differ by more
              than the parent's interquartile range
  unresolved  either side's interquartile range exceeds the bound
  same        none of the above: within the bound, no gain shown

Runs pair by seed where both sides ran it, otherwise in file order.  A
metric without a bound in BENCHMARK.json (energy_s, rerun_s) can only be
better, worse (the pair rule reversed) or unresolved.  The per-layer table
gives the median of each per-layer metric over the traced runs of each
side and their difference.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"], rec["trace"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def paired(parent, change):
    """(parent value, change value) pairs from lists of (seed, value)."""
    p_by_seed, c_by_seed = dict(parent), dict(change)
    common = [s for s in p_by_seed if s in c_by_seed]
    if common:
        return [(p_by_seed[s], c_by_seed[s]) for s in common]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def verdict(parent, change, pairs, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0

    def gain(new, old):
        return (old - new) * sign > 0

    pm, cm = statistics.median(parent), statistics.median(change)
    p1, _, p3 = quartiles(parent)
    c1, _, c3 = quartiles(change)
    clear = abs(cm - pm) > p3 - p1
    if bound is not None and (cm - pm) * sign > bound * abs(pm):
        return "worse"
    if all(gain(c, p) for c in change for p in parent) or (
            pairs and clear and gain(cm, pm)
            and sum(gain(c, p) for p, c in pairs) >= 0.9 * len(pairs)):
        return "better"
    if bound is None:
        if (pairs and clear and gain(pm, cm)
                and sum(gain(p, c) for p, c in pairs) >= 0.9 * len(pairs)):
            return "worse"
        return "unresolved"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    return "unresolved" if spread > bound else "same"


def _series(records, pick):
    out = []
    for rec in records:
        value = pick(rec)
        if value is not None:
            out.append((rec["seed"], value))
    return out


def main(parent_path, change_path, spec):
    parent, change = load(parent_path), load(change_path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<12} {'metric':<14} {'parent median [q1, q3] n':>36}"
          f" {'change median [q1, q3] n':>36} {'delta':>8}  verdict")
    for workload in sorted({w for w, t in parent if t == 0}):
        p_runs, c_runs = parent[workload, 0], change[workload, 0]
        if not c_runs:
            print(f"{workload:<12} (no change runs)")
            continue
        names = sorted({k for r in p_runs + c_runs
                        for k in r["timings"]["end_to_end"]})
        for name in names:
            pick = lambda r: r["timings"]["end_to_end"].get(name, {}).get(
                "value")
            ps, cs = _series(p_runs, pick), _series(c_runs, pick)
            if not ps or not cs:
                continue
            pv, cv = [v for _, v in ps], [v for _, v in cs]
            m = bounds.get(name, {})
            v = verdict(pv, cv, paired(ps, cs), m.get("bound"),
                        m.get("better", "lower") == "lower")
            pq, cq = quartiles(pv), quartiles(cv)
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(vals)}"
                     for q, vals in ((pq, pv), (cq, cv))]
            print(f"{workload:<12} {name:<14} {cells[0]:>36} {cells[1]:>36}"
                  f" {delta:>+8.1%}  {v}")
    print()
    print(f"{'workload':<12} {'per-layer metric':<34} {'parent':>12}"
          f" {'change':>12} {'delta':>12} {'rel':>8}")
    for workload in sorted({w for w, t in parent if t == 1}):
        p_runs, c_runs = parent[workload, 1], change[workload, 1]
        names = sorted({k for r in p_runs + c_runs
                        for k in r["timings"]["per_layer"]})
        for name in names:
            pick = lambda r: r["timings"]["per_layer"].get(name)
            pv = [v for _, v in _series(p_runs, pick)]
            cv = [v for _, v in _series(c_runs, pick)]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            rel = f"{(cm - pm) / abs(pm):+.1%}" if pm else ""
            print(f"{workload:<12} {name:<34} {pm:>12.6g} {cm:>12.6g}"
                  f" {cm - pm:>+12.4g} {rel:>8}")
    return 0
