// Execution policies: the seq/par seam (docs/PARALLELISM.md).
//
// Everything in this repository that takes *time* runs on the deterministic
// single-threaded simulator; everything that is *pure computation* — path
// parsing, NameTable interning, Context binary search, closure-rule
// evaluation — has no ordering obligations at all, and may run on as many
// real threads as the hardware offers. namecoh::exec marks that boundary in
// the type system: entry points that can exploit parallelism take an
// execution policy as their first parameter (cf. the standard <execution>
// policies, and TopoGen's ExecutionPolicies.hpp), so every call site names
// which side of the seam it is on.
//
//   * SeqPolicy — run on the calling (simulator) thread, in item order.
//     Bit-identical to the pre-seam code: same intern order.
//   * ParPolicy — run on a real-thread WorkerPool, partitioned into
//     contiguous per-worker slices, joined at a barrier. Deterministic at
//     the *result* level (see the contract in docs/PARALLELISM.md), not
//     the interleaving level.
//
// Every entry point takes its policy explicitly, and a ParPolicy names the
// pool it runs on.
#pragma once

#include <cstddef>

#include "util/worker_pool.hpp"

namespace namecoh::exec {

/// Run sequentially on the calling thread.
struct SeqPolicy {};

/// Run on a real-thread worker pool.
struct ParPolicy {
  /// Pool to run on; must be set (a null pool is a precondition failure).
  WorkerPool* pool = nullptr;
  /// Cap on workers actually used (0 = the pool's full width). Slices are
  /// partitioned across min(threads, pool size) workers.
  std::size_t threads = 0;
};

}  // namespace namecoh::exec
