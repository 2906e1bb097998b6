// The determinism gate for the execution-policy seam (docs/PARALLELISM.md):
// same-seed seq runs and par runs produce identical result *vectors*
// (results[i] answers queries[i]), plus multi-threaded stress for the
// pieces the seam leans on — the sharded NameTable and the WorkerPool
// barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "core/interner.hpp"
#include "exec/batch.hpp"
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

// One seq run over a seeded pick of leaves.
std::vector<Resolution> seq_run(std::uint64_t seed) {
  TreeFixture tree(4);
  Rng rng(seed);
  std::vector<exec::BatchQuery> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(
        exec::BatchQuery{tree.root, rng.pick(tree.leaves)});
  }
  return exec::resolve_batch(exec::SeqPolicy{}, tree.graph,
                             {queries.data(), queries.size()})
      .results;
}

TEST(DeterminismGate, SameSeedSeqRunsGiveSameResultVector) {
  const std::vector<Resolution> first = seq_run(1234);
  expect_same_resolutions(first, seq_run(1234));
  // Different seeds genuinely change the answers (the comparison above is
  // not vacuous).
  const std::vector<Resolution> other = seq_run(99);
  bool differs = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    differs = differs || first[i].entity != other[i].entity;
  }
  EXPECT_TRUE(differs);
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

}  // namespace
}  // namespace namecoh
