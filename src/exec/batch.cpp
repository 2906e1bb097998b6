#include "exec/batch.hpp"

#include <algorithm>
#include <memory>

#include "obs/metrics_shard.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace namecoh::exec {
namespace {

/// Step-count histogram boundaries: resolution depth is the only
/// interesting magnitude here and real paths are short.
std::vector<double> step_boundaries() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256};
}

/// Resolve queries[begin, end) into results, recording into the given
/// shard/tracer. This is the whole per-worker body: everything it touches
/// is either worker-private (shard, tracer, its slice of results) or
/// concurrency-safe by contract (the graph is read-only, the NameTable is
/// sharded).
void resolve_slice(const NamingGraph& graph,
                   std::span<const BatchQuery> queries, std::size_t begin,
                   std::size_t end, std::vector<Resolution>& results,
                   MetricsShard* shard, Tracer* tracer) {
  ResolveOptions options;
  options.tracer = tracer;
  Counter* resolutions = nullptr;
  Counter* ok = nullptr;
  Counter* failed = nullptr;
  Histogram* steps = nullptr;
  if (shard != nullptr) {
    resolutions = &shard->counter("exec.batch.resolutions");
    ok = &shard->counter("exec.batch.ok");
    failed = &shard->counter("exec.batch.failed");
    steps = &shard->histogram("exec.batch.steps", step_boundaries());
  }
  for (std::size_t i = begin; i < end; ++i) {
    Resolution res = resolve_from(graph, queries[i].start, queries[i].name,
                                  options);
    if (shard != nullptr) {
      resolutions->inc();
      (res.ok() ? ok : failed)->inc();
      steps->add(static_cast<double>(res.steps));
    }
    results[i] = std::move(res);
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
                           std::span<const BatchQuery> queries,
                           const BatchOptions& options) {
  BatchOutcome outcome;
  outcome.results.resize(queries.size());
  outcome.workers = 1;
  // Seq still runs inside the fence: the boundary is about *what* the batch
  // may touch, not how many threads run it.
  PureComputeSection fence(options.sim);
  MetricsShard shard;
  resolve_slice(graph, queries, 0, queries.size(), outcome.results,
                options.metrics ? &shard : nullptr, options.tracer);
  if (options.metrics != nullptr) {
    shard.counter("exec.batch.batches").inc();
    shard.merge_into(*options.metrics);
  }
  tally(outcome);
  return outcome;
}

BatchOutcome resolve_batch(ParPolicy policy, const NamingGraph& graph,
                           std::span<const BatchQuery> queries,
                           const BatchOptions& options) {
  NAMECOH_CHECK(policy.pool != nullptr, "ParPolicy needs a worker pool");
  WorkerPool& pool = *policy.pool;
  const std::size_t workers =
      std::max<std::size_t>(1, policy.threads == 0
                                   ? pool.size()
                                   : std::min(policy.threads, pool.size()));
  BatchOutcome outcome;
  outcome.results.resize(queries.size());
  outcome.workers = workers;

  // Per-worker observability: private shards/tracers, merged after the
  // barrier in worker-index order (the determinism contract).
  const bool trace = options.tracer != nullptr && options.tracer->enabled();
  std::vector<MetricsShard> shards(options.metrics ? workers : 0);
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (trace) {
    tracers.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      auto tracer = std::make_unique<Tracer>();
      tracer->set_capacity(options.tracer->capacity());
      tracer->set_enabled(true);
      tracers.push_back(std::move(tracer));
    }
  }

  {
    // Fence simulated time for the whole parallel region.
    PureComputeSection fence(options.sim);
    const std::size_t n = queries.size();
    pool.run([&](std::size_t worker) {
      if (worker >= workers) return;
      // Contiguous slices: worker w owns [w*n/W, (w+1)*n/W).
      const std::size_t begin = worker * n / workers;
      const std::size_t end = (worker + 1) * n / workers;
      resolve_slice(graph, queries, begin, end, outcome.results,
                    options.metrics ? &shards[worker] : nullptr,
                    trace ? tracers[worker].get() : nullptr);
    });
  }

  if (options.metrics != nullptr) {
    for (MetricsShard& shard : shards) shard.merge_into(*options.metrics);
    MetricsShard batch_shard;
    batch_shard.counter("exec.batch.batches").inc();
    batch_shard.merge_into(*options.metrics);
  }
  if (trace) {
    for (auto& tracer : tracers) options.tracer->absorb(*tracer);
  }
  tally(outcome);
  return outcome;
}

}  // namespace namecoh::exec
