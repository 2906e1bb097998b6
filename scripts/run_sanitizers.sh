#!/usr/bin/env bash
# Build the whole tree with ASan + UBSan and run the test suite under it,
# then rebuild the concurrency-sensitive tests with ThreadSanitizer and run
# those (the execution-policy seam: worker pool, sharded interner, metric
# shards, batch engine — docs/PARALLELISM.md).
#
# Usage: scripts/run_sanitizers.sh [asan-build-dir] [tsan-build-dir]
set -euo pipefail
BUILD="${1:-build-asan}"
TSAN_BUILD="${2:-build-tsan}"

# Cheap static pass first: the documentation link/reference checker.
"$(dirname "${BASH_SOURCE[0]}")/check_docs.sh"

cmake -B "$BUILD" -S . -DNAMECOH_SANITIZE=asan -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc)"

export ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="print_stacktrace=1"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

# Trace-export smoke under the sanitized build: catches UB in the tracer's
# ring and the hand-rolled JSON emitters, and checks the artifact parses.
"$(dirname "${BASH_SOURCE[0]}")/export_trace.sh" "$BUILD"

# Async-engine smoke under the sanitized build: the X5 experiment drives
# 64-wide pipelined and coalesced bursts through the resolver state
# machines — the heaviest exerciser of the engine's lifetime rules
# (heap-pinned requests, handle settlement, coalesced waiter lists).
"$BUILD/bench/bench_x5_pipeline" --json > /dev/null

# Sharded-fabric smoke under the sanitized build, at the reduced default
# scale: delegation installs, referral glue on the wire, shard-routed
# failover, and the anti-entropy epoch gate (the two regression tests ride
# in test_name_service above; this drives the full cross-shard path).
"$BUILD/bench/bench_x7_shard" --benchmark_filter='BM_(ShardedResolve|ReplyDecode)' > /dev/null

# Rebalancing smoke under the sanitized build, at the reduced default
# scale: the full live-migration path — intake pushes, catch-up epoch
# diffs, the cutover's bulk slot rewrite, forwarding-tombstone hits —
# plus the planner reading live metrics (docs/REBALANCING.md). The edge
# cases ride in test_rebalance above; this drives migration and
# foreground traffic through one interleaved run.
"$BUILD/bench/bench_x8_rebalance" --scale small > /dev/null

# Churn smoke under the sanitized build, at the reduced default scale:
# rolling restarts (graceful leave → down → rejoin), rolling renumbering
# with rename tombstones, a partition window, and the client's
# route-healing path, all under closed-loop load (docs/MEMBERSHIP.md).
# The lifecycle edge cases ride in test_membership above; this drives
# the full churn timeline end to end.
"$BUILD/bench/bench_x9_churn" --scale small > /dev/null

# TSan pass over the tests that exercise real threads. ASan and TSan cannot
# share a build, so this is a separate tree; only the concurrency suites
# run (the rest of the suite is single-threaded and already covered above).
# test_rebalance and test_membership ride along: migration and membership
# handoffs interleave snapshot pushes with foreground traffic through the
# shared metrics registry, the path most likely to grow a cross-thread
# reader later.
cmake -B "$TSAN_BUILD" -S . -DNAMECOH_SANITIZE=tsan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j "$(nproc)" \
  --target test_parallel_exec test_interner test_util test_obs \
  test_rebalance test_membership
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$TSAN_BUILD" --output-on-failure \
  -R 'test_parallel_exec|test_interner|test_util|test_obs|test_rebalance|test_membership'
