#include "exec/batch.hpp"

#include <algorithm>

namespace namecoh::exec {
namespace {

/// Resolve queries[begin, end) into results. This is the whole per-worker
/// body: it writes only its own slice of results, and everything it reads
/// is concurrency-safe by contract (the graph is read-only, the NameTable
/// is sharded).
void resolve_slice(const NamingGraph& graph,
                   std::span<const BatchQuery> queries, std::size_t begin,
                   std::size_t end, std::vector<Resolution>& results) {
  for (std::size_t i = begin; i < end; ++i) {
    results[i] = resolve_from(graph, queries[i].start, queries[i].name);
  }
}

void tally(BatchOutcome& outcome) {
  for (const Resolution& res : outcome.results) {
    if (res.ok()) {
      ++outcome.ok;
    } else {
      ++outcome.failed;
    }
  }
}

}  // namespace

BatchOutcome resolve_batch(SeqPolicy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries) {
  BatchOutcome outcome;
  outcome.results.resize(queries.size());
  resolve_slice(graph, queries, 0, queries.size(), outcome.results);
  tally(outcome);
  return outcome;
}

BatchOutcome resolve_batch(ParPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries) {
  NAMECOH_CHECK(policy.pool != nullptr, "ParPolicy needs a worker pool");
  WorkerPool& pool = *policy.pool;
  const std::size_t workers =
      std::max<std::size_t>(1, policy.threads == 0
                                   ? pool.size()
                                   : std::min(policy.threads, pool.size()));
  BatchOutcome outcome;
  outcome.results.resize(queries.size());
  outcome.workers = workers;

  const std::size_t n = queries.size();
  pool.run([&](std::size_t worker) {
    if (worker >= workers) return;
    // Contiguous slices: worker w owns [w*n/W, (w+1)*n/W).
    const std::size_t begin = worker * n / workers;
    const std::size_t end = (worker + 1) * n / workers;
    resolve_slice(graph, queries, begin, end, outcome.results);
  });
  tally(outcome);
  return outcome;
}

}  // namespace namecoh::exec
