#!/usr/bin/env bash
# Golden-table gate: every experiment table must stay byte-identical.
#
# Each bench binary prints its experiment tables before its
# microbenchmarks; with an empty benchmark filter it prints only the
# tables. Those tables are simulated-time results from seeded runs, so a
# change that is meant to preserve behaviour must reproduce them byte for
# byte. bench/expected/<binary>.txt holds the recorded output of
#
#   <build-dir>/bench/<binary> --benchmark_filter='^$'
#
# for every bench binary except bench_core_resolution, whose U1b rows are
# wall-clock. This script re-runs each recorded binary and byte-compares.
# Registered with ctest as bench_golden_tables.
#
# Usage: scripts/check_tables.sh <build-dir>
#
# To re-record after an intentional table change (say why in CHANGES.md):
#
#   for f in bench/expected/*.txt; do b=$(basename "$f" .txt)
#     build/bench/"$b" --benchmark_filter='^$' > "$f"; done
set -uo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build="$1"
expected_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/bench/expected"

shopt -s nullglob
goldens=("$expected_dir"/*.txt)
if [[ ${#goldens[@]} -eq 0 ]]; then
  echo "check_tables: no goldens under $expected_dir" >&2
  exit 1
fi

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
failures=0
for golden in "${goldens[@]}"; do
  name="$(basename "$golden" .txt)"
  binary="$build/bench/$name"
  if [[ ! -x "$binary" ]]; then
    echo "check_tables: missing binary $binary" >&2
    failures=$((failures + 1))
    continue
  fi
  "$binary" --benchmark_filter='^$' > "$actual" 2>/dev/null
  if ! cmp -s "$golden" "$actual"; then
    echo "check_tables: $name differs from its golden:" >&2
    diff -u "$golden" "$actual" >&2
    failures=$((failures + 1))
  fi
done

if [[ "$failures" -gt 0 ]]; then
  echo "check_tables: $failures of ${#goldens[@]} table(s) changed" >&2
  exit 1
fi
echo "check_tables: OK (${#goldens[@]} tables byte-identical)"
