// Batch resolution across the execution-policy seam (docs/PARALLELISM.md).
//
// resolve_batch() answers a batch of *local* resolutions — the pure hot
// path of core/resolve.hpp: no wire, no timeouts, no leases, nothing that
// touches simulated time. Under SeqPolicy it is exactly the loop a caller
// would have written; under ParPolicy the batch is split into contiguous
// per-worker slices, each worker resolves its slice with private
// observability (a MetricsShard and a worker-local Tracer), and at the
// barrier the driving thread merges the shards in worker-index order.
//
// Determinism contract (asserted by tests/test_parallel_exec.cpp):
//   * results[i] answers queries[i] under every policy — par mode returns
//     the *same vector*, not just the same multiset;
//   * the merged metric snapshot is byte-identical between seq and par
//     runs of the same batch (counter sums and histogram bucket counts
//     commute);
//   * the trace-event history is deterministic per (batch, worker count):
//     within a worker the order is item order, across workers it is
//     worker-index order.
//
// If a Simulator is supplied in BatchOptions, it is fenced with a
// PureComputeSection for the duration of the batch: event scheduling from a
// worker (a layering violation that would race the queue) throws instead.
#pragma once

#include <span>
#include <vector>

#include "core/resolve.hpp"
#include "exec/policy.hpp"

namespace namecoh {
class MetricsRegistry;
class Simulator;
class Tracer;
}  // namespace namecoh

namespace namecoh::exec {

/// One local resolution: a start context object and a borrowed name. The
/// storage behind `name` must outlive the resolve_batch call (typical
/// callers keep a vector of CompoundNames and slice them).
struct BatchQuery {
  EntityId start;
  NameSlice name;
};

struct BatchOptions {
  /// When set, per-batch instruments are recorded under `exec.batch`:
  /// .batches, .resolutions, .ok, .failed (counters) and .steps
  /// (histogram). Always written via MetricsShard merge, so seq and par
  /// snapshots match byte-for-byte.
  MetricsRegistry* metrics = nullptr;
  /// When set and enabled, every resolution records a span (kResolveStep
  /// per component, as in core/resolve.cpp). Under ParPolicy the engine
  /// routes spans through per-worker tracers and merges them (a single
  /// shared tracer would race).
  Tracer* tracer = nullptr;
  /// When set, the simulator is fenced (PureComputeSection) while the
  /// batch runs.
  Simulator* sim = nullptr;
};

struct BatchOutcome {
  std::vector<Resolution> results;  ///< results[i] answers queries[i]
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t workers = 1;  ///< worker slices used (1 under SeqPolicy)
};

BatchOutcome resolve_batch(SeqPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries,
                           const BatchOptions& options = {});
/// Throws PreconditionError when policy.pool is null.
BatchOutcome resolve_batch(ParPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries,
                           const BatchOptions& options = {});

}  // namespace namecoh::exec
