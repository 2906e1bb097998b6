#!/usr/bin/env python3
"""Compare two sets of benchmark results: the regression gate.

  benchmark/compare.py --parent P1.json P2.json ... --change C1.json ...

Each file is what `run.sh --out F` writes. Per workload:

* simulated metrics (clock "sim") must be equal, seed by seed, on both sides;
* each end-to-end metric of BENCHMARK.json gets its median and quartiles per
  side, and is
  - "unresolved" when either side's spread (quartile distance over median)
    exceeds its bound, unless every change run beats every parent run;
  - a REGRESSION when the change's median is worse than the parent's by
    more than the bound;
  - "improved" when the change wins at least 9 of 10 pairs (runs paired in
    file order, ties count for neither) and the medians differ by more than
    the parent's quartile distance; "slower" when the parent wins by the
    same rule, so a consistent slowdown inside the bound is not reported
    as "no change";
  the signed percentage is the change's median against the parent's,
  positive when better;
* per-layer metrics of traced runs are listed side by side.

Exits 1 on a regression or a simulated-metric mismatch.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    runs = defaultdict(list)
    for p in paths:
        for r in json.loads(Path(p).read_text())["runs"]:
            runs[(r["workload"], bool(r["trace"]))].append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def sim_mismatches(parent, change):
    """(seeds compared, mismatches) of the simulated metrics."""
    by_seed = {r["seed"]: r for r in parent}
    bad = []
    seeds = 0
    for c in change:
        p = by_seed.get(c["seed"])
        if p is None:
            continue
        seeds += 1
        for name, m in c["metrics"].items():
            if m["clock"] == "sim" and name in p["metrics"] and \
                    p["metrics"][name]["value"] != m["value"]:
                bad.append(f"seed {c['seed']} {name}: "
                           f"{p['metrics'][name]['value']} -> {m['value']}")
        if p["digests"]["counters"] != c["digests"]["counters"]:
            bad.append(f"seed {c['seed']} counter digest differs")
    return seeds, bad


def verdict(metric, p, c):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)

    def better(a, b):
        return a < b if lower else a > b

    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if (pq3 - pq1) / pmed > bound or (cq3 - cq1) / cmed > bound:
        status = "better" if all(better(x, y) for x in c for y in p) \
            else "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    else:
        pairs = list(zip(p, c))
        clear = pairs and abs(cmed - pmed) > pq3 - pq1
        if clear and sum(better(y, x) for x, y in pairs) >= 0.9 * len(pairs):
            status = "improved"
        elif clear and sum(better(x, y) for x, y in pairs) >= 0.9 * len(pairs):
            status = "slower"
        else:
            status = "no change"
    line = (f"  {metric['name']:<16} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]"
            f"  change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {-worse:+.1%}"
            f"  bound {bound:.0%}  {status}")
    return status, line


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    failed = False
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        print(f"{workload}:")
        pu = parent.get((workload, False), [])
        cu = change.get((workload, False), [])
        if pu and cu:
            seeds, bad = sim_mismatches(pu, cu)
            print(f"  simulated metrics: "
                  f"{'DIFFER' if bad else 'identical'} over {seeds} "
                  f"common seed{'s' if seeds != 1 else ''}")
            for b in bad[:20]:
                print(f"    {b}")
            failed |= bool(bad)
            for metric in spec["end_to_end"]:
                pv, cv = values(pu, metric["name"]), values(cu, metric["name"])
                if pv and cv:
                    status, line = verdict(metric, pv, cv)
                    print(line)
                    failed |= status == "REGRESSION"
        pt = parent.get((workload, True), [])
        ct = change.get((workload, True), [])
        if pt and ct:
            print("  per-layer (traced runs, medians):")
            for m in spec["per_layer"]:
                pv, cv = values(pt, m["name"]), values(ct, m["name"])
                if not pv or not cv:
                    continue
                pm, cm = statistics.median(pv), statistics.median(cv)
                rel = f"{(cm - pm) / pm:+.1%}" if pm else ""
                print(f"    {m['name']:<42} {pm:>12.6g} {cm:>12.6g} "
                      f"{m['unit']:<14} {rel}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
