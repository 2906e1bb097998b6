#!/usr/bin/env python3
"""Run the end-to-end benchmark (benchmark/README.md).

Called by benchmark/run.sh once it has built
build/benchmark/namecoh_benchmark.
Each workload runs in its own process. Prints every metric as
`workload metric value unit`, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics of
BENCHMARK.json (or, with --trace 1, its per-layer metrics).

  run.sh [--workload W] [--seed N] [--trace [0|1]] [--scale full|smoke]
         [--out F] [--seconds S]
  run.sh --check        determinism and seed plumbing, smoke scale
  run.sh --self-test    corrupt one answer per workload; exits 1 when the
                        oracle refuses every corrupted run, 3 when it does not

--seconds is the measured time per workload. Benchmark harnesses pass it on
every run; it defaults to run_seconds of BENCHMARK.json at full scale and to
1 at smoke scale.
"""
import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY = ROOT / "build" / "benchmark" / "namecoh_benchmark"
RESULTS = ROOT / "build" / "benchmark" / "results"
WORKLOADS = ["fabric_wire", "cache_rebind", "churn", "local_walk"]
IN_SIM = WORKLOADS[:3]
TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(workload, seed, seconds, trace, scale, corrupt=False,
               deadline=None):
    """One workload in one process: (exit code, result, other lines). The
    process runs in RESULTS, where a traced run leaves its trace file."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", scale]
    if corrupt:
        cmd.append("--corrupt")
    timeout = TIMEOUT_S if deadline is None else max(1, deadline - time.time())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=RESULTS)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    if result is None:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result, lines


def measure(workload, args, deadline):
    """The workload's result. A traced run is paired with an untraced run of
    the same seed, which gives trace.overhead_frac."""
    code, result, lines = run_binary(workload, args.seed, args.seconds, False,
                                     args.scale, deadline=deadline)
    if result is None or not args.trace:
        return code, result, lines
    tcode, traced, tlines = run_binary(workload, args.seed, args.seconds, True,
                                       args.scale, deadline=deadline)
    if traced is None:
        return tcode, None, tlines
    untraced_rate = result["metrics"]["lookups_per_s"]["value"]
    traced_rate = traced["metrics"]["lookups_per_s"]["value"]
    traced["metrics"]["trace.overhead_frac"] = {
        "value": 1.0 - traced_rate / untraced_rate, "unit": "frac",
        "clock": "wall"}
    traced["correct"] = traced["correct"] and result["correct"]
    traced["attempted"] += result["attempted"]
    traced["failed"] += result["failed"]
    return max(code, tcode), traced, tlines


def not_applicable(result, spec):
    """Per-layer metrics of BENCHMARK.json the workload does not produce,
    because it never enters their layer (say, the name service under
    local_walk)."""
    return [m["name"] for m in spec["per_layer"]
            if m["name"] not in result["metrics"]]


def reported_metrics(result, spec, trace):
    """The metrics BENCHMARK.json names for this mode, in its units. The
    result line needs a number for every per-layer name, so a metric listed
    in the result's "not_applicable" reads 0 there."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            if m["name"] not in result.get("not_applicable", []):
                raise SystemExit(f"{result['workload']}: no {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {got['unit']} but "
                             f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_metrics(workload, result, spec):
    for name, m in sorted(result["metrics"].items()):
        print(f"{workload} {name} {m['value']:.10g} {m['unit']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in result.get("not_applicable", []):
        print(f"{workload} {name} n/a {units[name]}")


def check(args):
    """Same seed twice: identical simulated metrics and counter digest. A
    second seed: a different query stream."""
    ok = True
    for w in IN_SIM:
        runs = [run_binary(w, seed, 1, False, "smoke")[1]
                for seed in (args.seed, args.seed, args.seed + 1)]
        if any(r is None or not r["correct"] for r in runs):
            print(f"check {w}: a run failed")
            ok = False
            continue
        a, b, other = runs
        sim = [n for n, m in a["metrics"].items() if m["clock"] == "sim"]
        diff = [n for n in sim if a["metrics"][n] != b["metrics"].get(n)]
        same_counters = a["digests"]["counters"] == b["digests"]["counters"]
        same_queries = a["digests"]["queries"] == b["digests"]["queries"]
        seeded = other["digests"]["queries"] != a["digests"]["queries"]
        passed = not diff and same_counters and same_queries and seeded
        ok = ok and passed
        print(f"check {w}: {len(sim)} simulated metrics "
              f"{'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}; "
              f"counter digest {'identical' if same_counters else 'DIFFERS'}; "
              f"query digest {'identical' if same_queries else 'DIFFERS'}; "
              f"seed {args.seed + 1} "
              f"{'changes' if seeded else 'DOES NOT change'} the query stream")
    return 0 if ok else 1


def self_test(args):
    refused = True
    for w in ([args.workload] if args.workload else WORKLOADS):
        code, result, _ = run_binary(w, args.seed, 1, False, "smoke",
                                     corrupt=True)
        caught = code == 1 and result is not None and not result["correct"]
        refused = refused and caught
        print(f"self-test {w}: corrupted answer "
              f"{'refused' if caught else 'ACCEPTED'} (exit {code})")
    return 1 if refused else 3


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--scale", choices=["full", "smoke"], default="full")
    p.add_argument("--out", type=Path)
    p.add_argument("--check", action="store_true")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    args.trace = args.trace == "1"
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if args.scale == "full" else 1
    if args.check:
        return check(args)
    if args.self_test:
        return self_test(args)

    workloads = [args.workload] if args.workload else WORKLOADS
    deadline = time.time() + TIMEOUT_S if args.workload else None
    results = []
    code = 0
    for w in workloads:
        wcode, result, lines = measure(w, args, deadline)
        for line in lines:
            print(line)
        if result is None:
            print(f"{w}: the run printed no result (exit {wcode})",
                  file=sys.stderr)
            return wcode or 1
        for e in result["errors"]:
            print(f"{w}: {e}", file=sys.stderr)
        if args.trace:
            result["not_applicable"] = not_applicable(result, spec)
        print_metrics(w, result, spec)
        results.append(result)
        code = max(code, wcode)

    out = args.out or RESULTS / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": results}, indent=1) + "\n")

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = reported_metrics(results[0], spec, args.trace)
    else:
        summary["metrics"] = {
            f"{r['workload']}.{k}": v for r in results
            for k, v in reported_metrics(r, spec, args.trace).items()}
    print(json.dumps(summary))
    return code if summary["correct"] else max(code, 1)


if __name__ == "__main__":
    sys.exit(main())
