#include "workload/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "util/rng.hpp"

namespace namecoh {

namespace {

// Heap-held loop state: completion callbacks and think-time events hold a
// shared_ptr, so a straggler event fired after run_parallel returned (e.g.
// by a later phase driving the same simulator) finds live state and
// no-ops on the issued-count guard instead of touching freed memory.
struct Loop {
  Loop(Simulator& sim_in, ResolverClient& client_in,
       std::vector<ParallelQuery> queries_in, const ParallelSpec& spec_in)
      : sim(sim_in),
        client(client_in),
        queries(std::move(queries_in)),
        spec(spec_in),
        rng(spec_in.seed) {}

  Simulator& sim;
  ResolverClient& client;
  std::vector<ParallelQuery> queries;
  ParallelSpec spec;
  Rng rng;
  ParallelOutcome out;
};

void issue(const std::shared_ptr<Loop>& loop) {
  if (loop->out.issued >= loop->spec.total_resolutions) return;
  ++loop->out.issued;
  // Index-based selection so the flash-crowd branch shares one draw
  // stream with the base distribution: with flash_count == 0 the draws
  // below are exactly the pre-flash zipf/pick sequence.
  const ParallelSpec& spec = loop->spec;
  std::size_t pick;
  const SimTime at = loop->sim.now();
  const bool flashing = spec.flash_count > 0 && at >= spec.flash_begin &&
                        at < spec.flash_end &&
                        loop->rng.next_below(1000000) <
                            static_cast<std::uint64_t>(
                                spec.flash_fraction * 1000000.0);
  if (flashing) {
    pick = spec.flash_first + loop->rng.next_below(spec.flash_count);
    NAMECOH_CHECK(pick < loop->queries.size(),
                  "flash crowd range exceeds the query list");
  } else if (spec.zipf_s > 0.0) {
    pick = loop->rng.zipf(loop->queries.size(), spec.zipf_s);
  } else {
    pick = loop->rng.next_below(loop->queries.size());
  }
  const ParallelQuery& query = loop->queries[pick];
  const SimTime issued_at = loop->sim.now();
  loop->client.resolve_async(
      query.start, query.name,
      [loop, issued_at](const Result<EntityId>& result) {
        ++loop->out.completed;
        if (loop->spec.latency != nullptr) {
          loop->spec.latency->add(
              static_cast<double>(loop->sim.now() - issued_at));
        }
        if (result.is_ok()) {
          ++loop->out.ok;
        } else {
          ++loop->out.failed;
        }
        // Always re-issue through the scheduler, even with zero think
        // time: a run of cache hits settles synchronously, and issuing
        // from inside the completion would recurse one stack frame per
        // hit.
        loop->sim.schedule_in(loop->spec.think_time,
                              [loop] { issue(loop); });
      });
}

}  // namespace

ParallelOutcome run_parallel(Simulator& sim, ResolverClient& client,
                             const std::vector<ParallelQuery>& queries,
                             const ParallelSpec& spec) {
  NAMECOH_CHECK(!queries.empty(), "parallel workload needs queries");
  NAMECOH_CHECK(spec.activities > 0,
                "parallel workload needs at least one activity");
  auto loop = std::make_shared<Loop>(sim, client, queries, spec);
  loop->out.started = sim.now();
  const std::size_t seeds =
      std::min<std::size_t>(spec.activities, spec.total_resolutions);
  for (std::size_t i = 0; i < seeds; ++i) issue(loop);
  sim.run_while([&loop] {
    return loop->out.completed < loop->spec.total_resolutions;
  });
  loop->out.finished = sim.now();
  NAMECOH_CHECK(loop->out.completed == loop->spec.total_resolutions,
                "parallel workload stalled: event queue drained with "
                "resolutions outstanding");
  return loop->out;
}

LocalBatchOutcome run_local_batches(const NamingGraph& graph,
                                    const std::vector<ParallelQuery>& queries,
                                    const LocalBatchSpec& spec) {
  NAMECOH_CHECK(!queries.empty(), "local batch workload needs queries");
  NAMECOH_CHECK(spec.batch_size > 0 && spec.batches > 0,
                "local batch workload needs batch_size and batches >= 1");

  const bool par = spec.threads > 0;
  const std::size_t workers = par ? spec.threads : 1;
  std::unique_ptr<WorkerPool> pool;
  if (par) pool = std::make_unique<WorkerPool>(workers);

  // Per-worker child streams, derived once from the spec seed. Query picks
  // for slice w are drawn from child(w) on the driving thread (picks are
  // not the parallel part — the resolutions are), so the sequence each
  // worker resolves is fixed by (seed, w) alone.
  Rng root(spec.seed);
  std::vector<Rng> streams;
  streams.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) streams.push_back(root.child(w));

  LocalBatchOutcome out;
  out.workers = workers;
  std::vector<exec::BatchQuery> batch(spec.batch_size);

  const auto started = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < spec.batches; ++b) {
    for (std::size_t w = 0; w < workers; ++w) {
      // Fill exactly the contiguous slice worker w will own (the same
      // partition exec::resolve_batch uses).
      const std::size_t begin = w * spec.batch_size / workers;
      const std::size_t end = (w + 1) * spec.batch_size / workers;
      for (std::size_t i = begin; i < end; ++i) {
        const ParallelQuery& query =
            queries[streams[w].next_below(queries.size())];
        batch[i] = exec::BatchQuery{query.start, query.name};
      }
    }
    exec::BatchOutcome result =
        par ? exec::resolve_batch(exec::ParPolicy{pool.get(), workers},
                                  graph, {batch.data(), batch.size()})
            : exec::resolve_batch(exec::SeqPolicy{}, graph,
                                  {batch.data(), batch.size()});
    out.resolutions += result.results.size();
    out.ok += result.ok;
    out.failed += result.failed;
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  return out;
}

}  // namespace namecoh
