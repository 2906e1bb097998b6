// The determinism gate for the execution-policy seam (docs/PARALLELISM.md):
//   * with the par engine compiled in but unselected, same-seed seq runs
//     produce byte-identical metric snapshots and trace histories;
//   * par runs produce identical result *vectors* (results[i] answers
//     queries[i]) and byte-identical merged metric snapshots;
// plus multi-threaded stress for the pieces the seam leans on — the
// sharded NameTable, per-worker MetricsShards, Tracer::absorb, the
// WorkerPool barrier, and the pure-compute fence.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/interner.hpp"
#include "exec/batch.hpp"
#include "obs/metrics_shard.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"
#include "workload/parallel.hpp"

namespace namecoh {
namespace {

// --- fixtures ---------------------------------------------------------------

// A complete binary naming tree of the given depth with one "leaf" data
// object under each bottom directory; `leaves` holds the full-depth paths.
struct TreeFixture {
  NamingGraph graph;
  EntityId root;
  std::vector<CompoundName> leaves;

  explicit TreeFixture(std::size_t depth, std::size_t fanout = 2) {
    root = graph.add_context_object("root");
    build(root, {}, depth, fanout);
  }

  void build(EntityId dir, std::vector<Name> prefix, std::size_t depth,
             std::size_t fanout) {
    if (depth == 0) {
      EntityId file = graph.add_data_object("leaf");
      Name name("leaf");
      ASSERT_TRUE(graph.bind(dir, name, file).is_ok());
      prefix.push_back(name);
      leaves.emplace_back(prefix);
      return;
    }
    for (std::size_t i = 0; i < fanout; ++i) {
      Name name("d" + std::to_string(i));
      EntityId child = graph.add_context_object(name.text());
      ASSERT_TRUE(graph.bind(dir, name, child).is_ok());
      auto next = prefix;
      next.push_back(name);
      build(child, std::move(next), depth - 1, fanout);
    }
  }

  // Queries: every leaf from the root, plus one miss to exercise the
  // failed-resolution path. BatchQuery borrows `miss`, so the caller must
  // keep it alive past the resolve_batch call (the BatchQuery contract).
  std::vector<exec::BatchQuery> queries(const CompoundName& miss) const {
    std::vector<exec::BatchQuery> out;
    out.reserve(leaves.size() + 1);
    for (const auto& name : leaves) {
      out.push_back(exec::BatchQuery{root, name});
    }
    out.push_back(exec::BatchQuery{root, miss});
    return out;
  }
};

std::string render_events(const Tracer& tracer) {
  std::ostringstream os;
  for (const TraceEvent& event : tracer.events()) {
    os << event.at << ' ' << static_cast<int>(event.kind) << ' '
       << event.span << ' ' << event.corr << ' ' << event.a << ' '
       << event.b << '\n';
  }
  return os.str();
}

std::string render_spans(const Tracer& tracer) {
  std::ostringstream os;
  for (const SpanRecord& span : tracer.spans()) {
    os << span.id << ' ' << span.begin << ' ' << span.end << ' '
       << span.open << ' ' << span.ok << ' ' << span.start_entity << ' '
       << span.path << '\n';
  }
  return os.str();
}

void expect_same_resolutions(const std::vector<Resolution>& a,
                             const std::vector<Resolution>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status.code(), b[i].status.code()) << "query " << i;
    EXPECT_EQ(a[i].entity, b[i].entity) << "query " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << "query " << i;
    EXPECT_EQ(a[i].trail, b[i].trail) << "query " << i;
  }
}

// --- WorkerPool -------------------------------------------------------------

TEST(WorkerPool, RunsBodyOncePerWorker) {
  WorkerPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t w) { hits[w].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(WorkerPool, ReusableAcrossGenerations) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerPool, ClampsToAtLeastOneWorker) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.run([&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(WorkerPool, RethrowsWorkerException) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.run([](std::size_t w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool survives a throwing generation.
  std::atomic<int> total{0};
  pool.run([&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 2);
}

TEST(WorkerPool, HardwareWorkersNeverZero) {
  EXPECT_GE(WorkerPool::hardware_workers(), 1u);
}

// --- sharded NameTable under real threads -----------------------------------

TEST(InternerConcurrency, SameTextSameIdAcrossThreads) {
  NameTable& table = NameTable::global();
  const std::size_t base = table.size();
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kNames = 500;
  std::vector<std::vector<NameId>> ids(kWorkers,
                                       std::vector<NameId>(kNames));
  WorkerPool pool(kWorkers);
  // Every worker interns the same vocabulary in a different order, racing
  // on every shard.
  pool.run([&](std::size_t w) {
    for (std::size_t i = 0; i < kNames; ++i) {
      const std::size_t pick = (i * 31 + w * 7) % kNames;
      ids[w][pick] = table.intern("atom-" + std::to_string(pick));
    }
  });
  // Agreement: same text -> same id everywhere.
  for (std::size_t i = 0; i < kNames; ++i) {
    for (std::size_t w = 1; w < kWorkers; ++w) {
      EXPECT_EQ(ids[w][i], ids[0][i]) << "atom-" << i;
    }
  }
  // Density: exactly kNames fresh ids, contiguous above the base.
  EXPECT_EQ(table.size(), base + kNames);
  std::set<NameId> unique(ids[0].begin(), ids[0].end());
  EXPECT_EQ(unique.size(), kNames);
  for (NameId id : unique) {
    EXPECT_GE(id, base);
    EXPECT_LT(id, base + kNames);
  }
  // Lock-free read path round-trips while another thread keeps interning.
  pool.run([&](std::size_t w) {
    if (w == 0) {
      for (std::size_t i = 0; i < kNames; ++i) {
        table.intern("late-" + std::to_string(i));
      }
      return;
    }
    for (std::size_t i = 0; i < kNames; ++i) {
      EXPECT_EQ(table.text(ids[0][i]), "atom-" + std::to_string(i));
    }
  });
}

TEST(InternerConcurrency, FindNeverMints) {
  NameTable& table = NameTable::global();
  const NameId known = table.intern("known");
  const std::size_t size = table.size();
  WorkerPool pool(4);
  pool.run([&](std::size_t w) {
    for (int i = 0; i < 200; ++i) {
      auto hit = table.find("known");
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(*hit, known);
      EXPECT_FALSE(table.find("ghost-" + std::to_string(w)).has_value());
    }
  });
  EXPECT_EQ(table.size(), size);
}

// --- MetricsShard -----------------------------------------------------------

TEST(MetricsShard, MergeFoldsAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("c").inc(5);
  MetricsShard shard;
  shard.counter("c").inc(3);
  shard.gauge("g").add(2.5);
  shard.histogram("h", {1, 10}).add(4);
  shard.merge_into(registry);
  EXPECT_EQ(registry.counter("c").value(), 8u);
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 2.5);
  EXPECT_EQ(registry.histogram("h", {1, 10}).total(), 1u);
  // merge_into clears: a second merge is a no-op.
  EXPECT_TRUE(shard.empty());
  shard.merge_into(registry);
  EXPECT_EQ(registry.counter("c").value(), 8u);
}

TEST(MetricsShard, PerWorkerShardsMergeExactly) {
  constexpr std::size_t kWorkers = 6;
  constexpr std::uint64_t kIncs = 10000;
  std::vector<MetricsShard> shards(kWorkers);
  WorkerPool pool(kWorkers);
  pool.run([&](std::size_t w) {
    Counter& hits = shards[w].counter("stress.hits");
    Histogram& lat = shards[w].histogram("stress.lat", {1, 2, 4});
    for (std::uint64_t i = 0; i < kIncs; ++i) {
      hits.inc();
      lat.add(static_cast<double>(i % 5));
    }
  });
  MetricsRegistry registry;
  for (MetricsShard& shard : shards) shard.merge_into(registry);
  EXPECT_EQ(registry.counter("stress.hits").value(), kWorkers * kIncs);
  EXPECT_EQ(registry.histogram("stress.lat", {1, 2, 4}).total(),
            kWorkers * kIncs);
}

// --- Tracer::absorb ---------------------------------------------------------

TEST(TracerAbsorb, RemapsSpansAndReattachesEvents) {
  Tracer main;
  main.set_enabled(true);
  const std::uint64_t home = main.open_span(0, 1, "home");
  main.close_span(home, 0, true);

  Tracer worker;
  worker.set_enabled(true);
  const std::uint64_t span = worker.open_span(0, 42, "d0/leaf");
  worker.record_in_span(span, 0, EventKind::kResolveStep, 7, 0);
  worker.record_in_span(span, 0, EventKind::kResolveStep, 8, 1);
  worker.close_span(span, 0, true);

  main.absorb(worker);
  ASSERT_EQ(main.spans().size(), 2u);
  const SpanRecord& absorbed = main.spans().back();
  EXPECT_NE(absorbed.id, home);
  EXPECT_EQ(absorbed.path, "d0/leaf");
  EXPECT_EQ(absorbed.start_entity, 42u);
  EXPECT_TRUE(absorbed.ok);
  // Events re-attached under the fresh id.
  const auto steps = main.events_for_span(absorbed.id);
  std::size_t resolve_steps = 0;
  for (const TraceEvent& event : steps) {
    if (event.kind == EventKind::kResolveStep) ++resolve_steps;
  }
  EXPECT_EQ(resolve_steps, 2u);
  // The worker tracer is drained.
  EXPECT_TRUE(worker.spans().empty());
  EXPECT_EQ(worker.events().size(), 0u);
}

TEST(TracerAbsorb, DisabledTracersAreNoOps) {
  Tracer main;  // disabled
  Tracer worker;
  worker.set_enabled(true);
  const std::uint64_t span = worker.open_span(0, 1, "p");
  worker.close_span(span, 0, true);
  main.absorb(worker);
  EXPECT_TRUE(main.spans().empty());
  // Disabled *source* is also a no-op.
  Tracer enabled;
  enabled.set_enabled(true);
  Tracer off;
  enabled.absorb(off);
  EXPECT_TRUE(enabled.spans().empty());
}

// --- pure-compute fence -----------------------------------------------------

TEST(PureComputeSection, BlocksSchedulingInsideTheFence) {
  Simulator sim;
  sim.schedule_in(5, [] {});
  {
    PureComputeSection fence(&sim);
    EXPECT_TRUE(sim.in_pure_section());
    EXPECT_THROW(sim.schedule_in(1, [] {}), PreconditionError);
    EXPECT_THROW(sim.schedule_at(10, [] {}), PreconditionError);
    EXPECT_THROW(sim.run_until(100), PreconditionError);
    EXPECT_THROW(sim.reset(), PreconditionError);
    {
      PureComputeSection nested(&sim);
      EXPECT_TRUE(sim.in_pure_section());
    }
    // Still fenced: sections nest.
    EXPECT_TRUE(sim.in_pure_section());
  }
  EXPECT_FALSE(sim.in_pure_section());
  // The queue is intact once the fence lifts.
  EXPECT_EQ(sim.run_until(100), 1u);
}

TEST(PureComputeSection, NullSimulatorIsTolerated) {
  PureComputeSection fence(nullptr);  // must not crash
  SUCCEED();
}

// --- the batch engine: seq --------------------------------------------------

TEST(BatchResolve, SeqMatchesDirectResolves) {
  TreeFixture tree(4);
  const CompoundName miss = CompoundName::relative("d0/ghost");
  const auto queries = tree.queries(miss);
  exec::BatchOutcome batch = exec::resolve_batch(
      exec::SeqPolicy{}, tree.graph, {queries.data(), queries.size()});
  ASSERT_EQ(batch.results.size(), queries.size());
  EXPECT_EQ(batch.workers, 1u);
  EXPECT_EQ(batch.ok, queries.size() - 1);
  EXPECT_EQ(batch.failed, 1u);
  std::vector<Resolution> direct;
  direct.reserve(queries.size());
  for (const auto& query : queries) {
    direct.push_back(resolve_from(tree.graph, query.start, query.name));
  }
  expect_same_resolutions(batch.results, direct);
}

TEST(BatchResolve, ParPolicyWithoutPoolIsRefused) {
  // A ParPolicy must name the pool it runs on.
  TreeFixture tree(3);
  const CompoundName miss = CompoundName::relative("nope");
  const auto queries = tree.queries(miss);
  EXPECT_THROW((void)exec::resolve_batch(exec::ParPolicy{nullptr, 0},
                                         tree.graph,
                                         {queries.data(), queries.size()}),
               PreconditionError);
}

// One full seq run: metrics + tracing + fenced simulator. Returns the
// observable history as strings so runs can be compared byte-for-byte.
struct SeqRunSnapshot {
  std::string metrics;
  std::string events;
  std::string spans;
  std::vector<Resolution> results;
};

SeqRunSnapshot seq_run(std::uint64_t seed) {
  TreeFixture tree(4);
  Rng rng(seed);
  std::vector<exec::BatchQuery> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        exec::BatchQuery{tree.root, rng.pick(tree.leaves)});
  }
  Simulator sim;
  MetricsRegistry registry;
  Tracer tracer;
  tracer.set_enabled(true);
  exec::BatchOptions options;
  options.metrics = &registry;
  options.tracer = &tracer;
  options.sim = &sim;
  exec::BatchOutcome batch = exec::resolve_batch(
      exec::SeqPolicy{}, tree.graph, {queries.data(), queries.size()},
      options);
  SeqRunSnapshot snap;
  snap.metrics = registry.to_json();
  snap.events = render_events(tracer);
  snap.spans = render_spans(tracer);
  snap.results = std::move(batch.results);
  return snap;
}

TEST(DeterminismGate, SameSeedSeqRunsAreByteIdentical) {
  SeqRunSnapshot first = seq_run(1234);
  SeqRunSnapshot second = seq_run(1234);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.spans, second.spans);
  expect_same_resolutions(first.results, second.results);
  // Different seeds genuinely change the history (the comparison above is
  // not vacuous).
  SeqRunSnapshot other = seq_run(99);
  EXPECT_NE(first.events, other.events);
}

// --- the batch engine: par --------------------------------------------------

TEST(BatchResolve, ParMatchesSeqResultVector) {
  TreeFixture tree(5);
  const CompoundName miss = CompoundName::relative("d1/ghost");
  const auto queries = tree.queries(miss);
  exec::BatchOutcome seq = exec::resolve_batch(
      exec::SeqPolicy{}, tree.graph, {queries.data(), queries.size()});
  WorkerPool pool(4);
  exec::BatchOutcome par = exec::resolve_batch(
      exec::ParPolicy{&pool, 0}, tree.graph,
      {queries.data(), queries.size()});
  EXPECT_EQ(par.workers, 4u);
  EXPECT_EQ(par.ok, seq.ok);
  EXPECT_EQ(par.failed, seq.failed);
  // Stronger than order-insensitive: the same vector, position by position.
  expect_same_resolutions(par.results, seq.results);
}

TEST(BatchResolve, ParMetricsSnapshotMatchesSeq) {
  TreeFixture tree(5);
  const CompoundName miss = CompoundName::relative("miss");
  const auto queries = tree.queries(miss);
  MetricsRegistry seq_registry;
  exec::BatchOptions seq_options;
  seq_options.metrics = &seq_registry;
  exec::resolve_batch(exec::SeqPolicy{}, tree.graph,
                      {queries.data(), queries.size()}, seq_options);

  WorkerPool pool(3);
  MetricsRegistry par_registry;
  exec::BatchOptions par_options;
  par_options.metrics = &par_registry;
  exec::resolve_batch(exec::ParPolicy{&pool, 0}, tree.graph,
                      {queries.data(), queries.size()}, par_options);

  // Counter sums and histogram bucket counts commute, so the merged
  // registries serialize identically.
  EXPECT_EQ(seq_registry.to_json(), par_registry.to_json());
}

TEST(BatchResolve, ParTraceHistoryDeterministicPerWorkerCount) {
  TreeFixture tree(5);
  const CompoundName miss = CompoundName::relative("miss");
  const auto queries = tree.queries(miss);
  auto traced_par_run = [&](std::size_t workers) {
    WorkerPool pool(workers);
    Tracer tracer;
    tracer.set_enabled(true);
    exec::BatchOptions options;
    options.tracer = &tracer;
    exec::resolve_batch(exec::ParPolicy{&pool, 0}, tree.graph,
                        {queries.data(), queries.size()}, options);
    return render_events(tracer) + render_spans(tracer);
  };
  EXPECT_EQ(traced_par_run(3), traced_par_run(3));
  // Per-span content is worker-count independent; span count too.
  WorkerPool pool(2);
  Tracer tracer;
  tracer.set_enabled(true);
  exec::BatchOptions options;
  options.tracer = &tracer;
  exec::resolve_batch(exec::ParPolicy{&pool, 0}, tree.graph,
                      {queries.data(), queries.size()}, options);
  EXPECT_EQ(tracer.spans().size(), queries.size());
}

TEST(BatchResolve, ParThreadsCapRespected) {
  TreeFixture tree(3);
  const CompoundName miss = CompoundName::relative("miss");
  const auto queries = tree.queries(miss);
  WorkerPool pool(4);
  exec::BatchOutcome capped = exec::resolve_batch(
      exec::ParPolicy{&pool, 2}, tree.graph,
      {queries.data(), queries.size()});
  EXPECT_EQ(capped.workers, 2u);
}

TEST(BatchResolve, FenceHoldsAcrossParBatch) {
  TreeFixture tree(3);
  const CompoundName miss = CompoundName::relative("miss");
  const auto queries = tree.queries(miss);
  Simulator sim;
  sim.schedule_in(1, [] {});
  WorkerPool pool(2);
  exec::BatchOptions options;
  options.sim = &sim;
  exec::resolve_batch(exec::ParPolicy{&pool, 0}, tree.graph,
                      {queries.data(), queries.size()}, options);
  // The fence lifted at the barrier; the queue still runs.
  EXPECT_FALSE(sim.in_pure_section());
  EXPECT_EQ(sim.run_until(10), 1u);
}

// --- the workload driver ----------------------------------------------------

TEST(LocalBatches, SeqAndParAgreeOnOutcome) {
  TreeFixture tree(5);
  std::vector<ParallelQuery> queries;
  for (const auto& name : tree.leaves) {
    queries.push_back(ParallelQuery{tree.root, name});
  }
  LocalBatchSpec spec;
  spec.batch_size = 256;
  spec.batches = 4;
  spec.seed = 7;

  spec.threads = 0;  // seq
  LocalBatchOutcome seq = run_local_batches(tree.graph, queries, spec);
  EXPECT_EQ(seq.workers, 1u);
  EXPECT_EQ(seq.resolutions, spec.batch_size * spec.batches);
  EXPECT_EQ(seq.ok, seq.resolutions);

  spec.threads = 3;  // par, same seed: same per-worker streams
  LocalBatchOutcome par = run_local_batches(tree.graph, queries, spec);
  EXPECT_EQ(par.workers, 3u);
  EXPECT_EQ(par.resolutions, seq.resolutions);
  EXPECT_EQ(par.ok, seq.ok);
  EXPECT_EQ(par.failed, seq.failed);
}

TEST(LocalBatches, MetricsAccumulateAcrossBatches) {
  TreeFixture tree(4);
  std::vector<ParallelQuery> queries;
  for (const auto& name : tree.leaves) {
    queries.push_back(ParallelQuery{tree.root, name});
  }
  LocalBatchSpec spec;
  spec.batch_size = 32;
  spec.batches = 3;
  spec.threads = 2;
  MetricsRegistry registry;
  run_local_batches(tree.graph, queries, spec, &registry);
  EXPECT_EQ(registry.counter("exec.batch.resolutions").value(),
            spec.batch_size * spec.batches);
  EXPECT_EQ(registry.counter("exec.batch.batches").value(), spec.batches);
}

}  // namespace
}  // namespace namecoh
