#!/usr/bin/env bash
# Build the benchmark binary into build/benchmark, then run it
# (benchmark/run.py has the options; benchmark/README.md the metrics).
#
#   benchmark/run.sh                        every workload, full scale
#   benchmark/run.sh --workload churn --seed 3 --trace
#   benchmark/run.sh --check | --self-test | --scale smoke
#
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"
mkdir -p "$build"
jobs="$(nproc 2>/dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
{
  # One build at a time per checkout.
  flock 9
  cmake -S "$root/benchmark" -B "$build" >&2
  cmake --build "$build" -j "$jobs" >&2
} 9> "$build/.lock"

exec python3 "$root/benchmark/run.py" "$@"
