// Batch resolution across the execution-policy seam (docs/PARALLELISM.md).
//
// resolve_batch() answers a batch of *local* resolutions — the pure hot
// path of core/resolve.hpp: no wire, no timeouts, no leases, nothing that
// touches simulated time. Under SeqPolicy it is exactly the loop a caller
// would have written; under ParPolicy the batch is split into contiguous
// per-worker slices, and each worker writes only its own slice of the
// result vector.
//
// Determinism contract (asserted by tests/test_parallel_exec.cpp):
// results[i] answers queries[i] under every policy — par mode returns the
// *same vector*, not just the same multiset.
//
// A worker reads a const NamingGraph and gets no callback, so it has no
// way to reach a Simulator: the signature is the pure-compute boundary.
#pragma once

#include <span>
#include <vector>

#include "core/resolve.hpp"
#include "exec/policy.hpp"

namespace namecoh::exec {

/// One local resolution: a start context object and a borrowed name. The
/// storage behind `name` must outlive the resolve_batch call (typical
/// callers keep a vector of CompoundNames and slice them).
struct BatchQuery {
  EntityId start;
  NameSlice name;
};

struct BatchOutcome {
  std::vector<Resolution> results;  ///< results[i] answers queries[i]
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t workers = 1;  ///< worker slices used (1 under SeqPolicy)
};

BatchOutcome resolve_batch(SeqPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries);
/// Throws PreconditionError when policy.pool is null.
BatchOutcome resolve_batch(ParPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries);

}  // namespace namecoh::exec
