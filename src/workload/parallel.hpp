// Parallel resolution workload: a closed loop of N concurrent "activities"
// issuing name lookups through one ResolverClient's async engine
// (docs/ASYNC.md).
//
// Each activity behaves like a client thread: resolve a query, think for
// `think_time` ticks, resolve the next. With the pre-async resolver this
// shape was impossible to express — each resolve() monopolised the
// simulator until its own reply chain finished, so "N concurrent lookups"
// degenerated into N sequential ones. Here all N activities' hops
// interleave on the shared clock, which is exactly what bench_x5_pipeline
// measures (and what makes the engine's pipelining visible as wall-clock
// compression). The loop composes with everything else event-driven on the
// same simulator: churn, fault injection, anti-entropy — they just
// interleave.
#pragma once

#include <vector>

#include "exec/batch.hpp"
#include "ns/resolver_client.hpp"

namespace namecoh {

/// One lookup an activity may issue.
struct ParallelQuery {
  EntityId start;
  CompoundName name;
};

struct ParallelSpec {
  /// Concurrent activities (the closed-loop multiprogramming level).
  std::size_t activities = 16;
  /// Total resolutions to issue across all activities.
  std::size_t total_resolutions = 256;
  /// Ticks each activity waits between completing a lookup and issuing
  /// its next one. 0 = immediately (still via the scheduler, never
  /// recursively).
  SimDuration think_time = 0;
  /// Seed for the query-selection stream.
  std::uint64_t seed = 1;
  /// Zipf exponent for query selection: 0 (default) picks uniformly;
  /// s > 0 picks queries[rank] with p ∝ 1/(rank+1)^s, so the *front* of
  /// `queries` is the hot set — order queries hottest-first. Skew is what
  /// makes shard placement interesting (bench_x7_shard).
  double zipf_s = 0.0;
  /// When set, each resolution's settle latency (issue → completion, in
  /// simulated ticks) is recorded here. Optional; nullptr = off.
  Histogram* latency = nullptr;
  /// Flash crowd (docs/REBALANCING.md): while the simulator clock is in
  /// [flash_begin, flash_end), each issue redirects with probability
  /// `flash_fraction` to a uniform pick from
  /// queries[flash_first .. flash_first + flash_count). flash_count == 0
  /// disables the crowd entirely (the default); outside the window the
  /// normal zipf/uniform pick applies. This is what melts one subtree's
  /// shard while the rest of the fabric idles — the hot-spot the
  /// rebalance planner exists to detect.
  SimTime flash_begin = 0;
  SimTime flash_end = 0;
  double flash_fraction = 0.8;
  std::size_t flash_first = 0;
  std::size_t flash_count = 0;
};

struct ParallelOutcome {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  SimTime started = 0;   ///< sim time at the first issue
  SimTime finished = 0;  ///< sim time when the last resolution settled
  [[nodiscard]] SimDuration elapsed() const { return finished - started; }
};

/// Run the closed loop: seed min(activities, total) lookups, then drive
/// `sim` until every resolution has settled. Queries are picked uniformly
/// at random (duplicates in `queries` raise the chance of in-flight
/// coalescing). The client's cache, retry and failover behaviour all apply
/// as configured.
ParallelOutcome run_parallel(Simulator& sim, ResolverClient& client,
                             const std::vector<ParallelQuery>& queries,
                             const ParallelSpec& spec);

// --- Local-resolution batch driver (execution-policy seam) -------------------
//
// Where run_parallel exercises *simulated* concurrency (N activities
// interleaved on one simulator thread), run_local_batches exercises *real*
// concurrency: repeated batches of pure local resolutions pushed through
// exec::resolve_batch under the seq or par policy, timed on the wall clock.
// This is the driver behind bench_core_resolution --threads N
// (docs/PARALLELISM.md).

struct LocalBatchSpec {
  /// Resolutions per batch (one resolve_batch call each).
  std::size_t batch_size = 4096;
  /// Number of batches to run.
  std::size_t batches = 8;
  /// 0 = SeqPolicy on the driving thread; N >= 1 = ParPolicy on an
  /// N-worker pool owned by the driver for the run.
  std::size_t threads = 0;
  /// Seed for query selection. Picks are drawn from per-worker Rng child
  /// streams — child(w) feeds exactly the slice worker w will resolve — so
  /// a run is reproducible run-to-run for a given (seed, threads), and no
  /// worker's draws perturb another's (util/rng.hpp).
  std::uint64_t seed = 1;
};

struct LocalBatchOutcome {
  std::uint64_t resolutions = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::size_t workers = 1;
  double wall_seconds = 0.0;
  [[nodiscard]] double throughput() const {
    return wall_seconds > 0.0
               ? static_cast<double>(resolutions) / wall_seconds
               : 0.0;
  }
};

/// Drive `spec.batches` batches of `spec.batch_size` resolutions against
/// `graph`, drawing queries from `queries`.
LocalBatchOutcome run_local_batches(const NamingGraph& graph,
                                    const std::vector<ParallelQuery>& queries,
                                    const LocalBatchSpec& spec);

}  // namespace namecoh
