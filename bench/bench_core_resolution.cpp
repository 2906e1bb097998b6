// Experiment U1 (§2 mechanics): cost of the core naming-model operations —
// compound-name resolution across depth × fanout, binding, lookup, graph
// queries. Prints a resolution-cost table (steps scale linearly with
// depth), then microbenchmarks.
#include "bench_common.hpp"
#include "core/graph_ops.hpp"
#include "core/resolve.hpp"
#include "exec/batch.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/worker_pool.hpp"
#include "workload/parallel.hpp"

namespace namecoh {
namespace {

struct SyntheticTree {
  NamingGraph graph;
  EntityId root;
  std::vector<CompoundName> leaves;  // one full-depth name per leaf

  SyntheticTree(std::size_t depth, std::size_t fanout) {
    root = graph.add_context_object("root");
    build(root, {}, depth, fanout);
  }

  void build(EntityId dir, std::vector<Name> prefix, std::size_t depth,
             std::size_t fanout) {
    if (depth == 0) {
      EntityId file = graph.add_data_object("leaf");
      Name name("leaf");
      NAMECOH_CHECK(graph.bind(dir, name, file).is_ok(), "");
      prefix.push_back(name);
      leaves.emplace_back(prefix);
      return;
    }
    for (std::size_t i = 0; i < fanout; ++i) {
      Name name("d" + std::to_string(i));
      EntityId child = graph.add_context_object(name.text());
      NAMECOH_CHECK(graph.bind(dir, name, child).is_ok(), "");
      auto next = prefix;
      next.push_back(name);
      build(child, std::move(next), depth - 1, fanout);
    }
  }
};

/// Worker count for the par-policy measurements: the --threads flag, or
/// the hardware width when unset.
std::size_t par_threads() {
  return bench::thread_flag() != 0 ? bench::thread_flag()
                                   : WorkerPool::hardware_workers();
}

/// Queries for the batch experiments: every leaf of a depth-8 binary tree,
/// resolved from the root (255 contexts, 256 distinct 8-hop paths).
std::vector<ParallelQuery> batch_queries(const SyntheticTree& tree) {
  std::vector<ParallelQuery> queries;
  queries.reserve(tree.leaves.size());
  for (const auto& name : tree.leaves) {
    queries.push_back(ParallelQuery{tree.root, name});
  }
  return queries;
}

void run_exec_seam_experiment() {
  bench::print_header(
      "U1b: execution-policy seam (seq vs par batch resolution)",
      "Pure local resolutions batched through exec::resolve_batch: seq runs "
      "on the\nsimulator thread, par fans contiguous slices across a real "
      "worker pool and\njoins at the barrier (docs/PARALLELISM.md).");

  SyntheticTree tree(8, 2);
  const std::vector<ParallelQuery> queries = batch_queries(tree);
  const std::size_t max_threads = par_threads();

  LocalBatchSpec spec;
  spec.batch_size = 4096;
  spec.batches = 16;
  spec.seed = 42;

  spec.threads = 0;  // seq baseline
  const LocalBatchOutcome seq = run_local_batches(tree.graph, queries, spec);

  Table t({"policy", "workers", "resolutions", "ok", "wall s",
           "resolutions/s", "speedup vs seq"});
  auto row = [&](const char* policy, const LocalBatchOutcome& out) {
    t.add_row({policy, std::to_string(out.workers),
               std::to_string(out.resolutions), std::to_string(out.ok),
               bench::frac(out.wall_seconds),
               std::to_string(static_cast<std::uint64_t>(out.throughput())),
               bench::frac(out.throughput() / seq.throughput(), 2)});
  };
  row("seq", seq);
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    spec.threads = threads;
    row("par", run_local_batches(tree.graph, queries, spec));
    if (threads == max_threads) break;
    if (threads * 2 > max_threads) {
      spec.threads = max_threads;
      row("par", run_local_batches(tree.graph, queries, spec));
      break;
    }
  }
  t.print(std::cout);
  std::cout << "\n(hardware workers: " << WorkerPool::hardware_workers()
            << "; par rows use --threads when given)\n"
            << std::endl;
}

void run_experiment() {
  bench::print_header(
      "U1: core resolution mechanics (§2)",
      "Resolution cost is linear in compound-name length and independent "
      "of tree width;\nsteps == components, per the recursive definition "
      "c(n1…nk) = σ(c(n1))(n2…nk).");

  Table t({"depth", "fanout", "contexts", "avg steps per resolution",
           "all leaves resolve"});
  for (auto [depth, fanout] : {std::pair<std::size_t, std::size_t>{2, 8},
                               {4, 4},
                               {8, 2},
                               {16, 1},
                               {64, 1}}) {
    SyntheticTree tree(depth, fanout);
    Accumulator steps;
    bool all_ok = true;
    for (const auto& name : tree.leaves) {
      Resolution res = resolve_from(tree.graph, tree.root, name);
      all_ok = all_ok && res.ok();
      steps.add(static_cast<double>(res.steps));
    }
    t.add_row({std::to_string(depth), std::to_string(fanout),
               std::to_string(
                   tree.graph.entities_of_kind(EntityKind::kContextObject)
                       .size()),
               bench::frac(steps.mean()), all_ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << std::endl;

  run_exec_seam_experiment();
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_ResolveByDepth(benchmark::State& state) {
  SyntheticTree tree(static_cast<std::size_t>(state.range(0)), 1);
  const CompoundName& name = tree.leaves.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve_from(tree.graph, tree.root, name));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ResolveByDepth)->RangeMultiplier(2)->Range(1, 128)->Complexity();

void BM_ResolveTracingDisabled(benchmark::State& state) {
  // Acceptance check for the observability subsystem: a disabled tracer
  // attached to ResolveOptions must cost one branch per call — this curve
  // should sit within noise of BM_ResolveByDepth at the same depth.
  SyntheticTree tree(static_cast<std::size_t>(state.range(0)), 1);
  const CompoundName& name = tree.leaves.front();
  Tracer tracer;  // default: disabled, ring never allocated
  ResolveOptions options;
  options.tracer = &tracer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resolve_from(tree.graph, tree.root, name, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ResolveTracingDisabled)
    ->RangeMultiplier(2)
    ->Range(1, 128)
    ->Complexity();

void BM_ResolveTracingEnabled(benchmark::State& state) {
  // Cost with spans on: open + per-step event + close, ring bounded.
  SyntheticTree tree(static_cast<std::size_t>(state.range(0)), 1);
  const CompoundName& name = tree.leaves.front();
  Tracer tracer;
  tracer.set_enabled(true);
  ResolveOptions options;
  options.tracer = &tracer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resolve_from(tree.graph, tree.root, name, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveTracingEnabled)->Arg(8)->Arg(64);

void BM_ResolveByFanout(benchmark::State& state) {
  // Width should not matter (map lookup per step).
  SyntheticTree tree(2, static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve_from(
        tree.graph, tree.root, tree.leaves[i++ % tree.leaves.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveByFanout)->Arg(2)->Arg(8)->Arg(32);

void BM_BindUnbind(benchmark::State& state) {
  NamingGraph graph;
  EntityId dir = graph.add_context_object("d");
  EntityId target = graph.add_data_object("t");
  Name name("x");
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.bind(dir, name, target));
    benchmark::DoNotOptimize(graph.unbind(dir, name));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_BindUnbind);

void BM_SingleLookup(benchmark::State& state) {
  NamingGraph graph;
  EntityId dir = graph.add_context_object("d");
  for (int i = 0; i < 256; ++i) {
    NAMECOH_CHECK(graph.bind(dir, Name("n" + std::to_string(i)),
                             graph.add_data_object("t")).is_ok(), "");
  }
  Name probe("n128");
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.lookup(dir, probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleLookup);

void BM_EnumerateNames(benchmark::State& state) {
  SyntheticTree tree(4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerate_names(tree.graph, tree.root));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EnumerateNames);

void BM_ShortestName(benchmark::State& state) {
  SyntheticTree tree(6, 2);
  Resolution target =
      resolve_from(tree.graph, tree.root, tree.leaves.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shortest_name(tree.graph, tree.root, target.entity));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShortestName);

void BM_GraphClone(benchmark::State& state) {
  SyntheticTree tree(4, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.graph.clone());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphClone);

// --- Execution-policy seam: batch resolution throughput ----------------------
//
// BM_BatchResolveSeq and BM_BatchResolvePar run the same 4096-resolution
// batch through exec::resolve_batch; par uses a pool of --threads workers
// (hardware width when the flag is absent), reported in the "threads"
// counter. items_per_second is resolve throughput — the seq:par ratio is
// the seam's speedup on this machine (EXPERIMENTS.md X7).

struct BatchFixture {
  SyntheticTree tree;
  std::vector<CompoundName> names;  // owns the query name storage
  std::vector<exec::BatchQuery> batch;

  explicit BatchFixture(std::size_t batch_size) : tree(8, 2) {
    Rng rng(42);
    names.reserve(batch_size);
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      names.push_back(
          tree.leaves[rng.next_below(tree.leaves.size())]);
      batch.push_back(exec::BatchQuery{tree.root, names.back()});
    }
  }
};

void BM_BatchResolveSeq(benchmark::State& state) {
  BatchFixture fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::resolve_batch(
        exec::SeqPolicy{}, fixture.tree.graph,
        {fixture.batch.data(), fixture.batch.size()}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_BatchResolveSeq)->Arg(4096)->UseRealTime();

void BM_BatchResolvePar(benchmark::State& state) {
  BatchFixture fixture(static_cast<std::size_t>(state.range(0)));
  WorkerPool pool(par_threads());
  exec::ParPolicy policy{&pool, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::resolve_batch(
        policy, fixture.tree.graph,
        {fixture.batch.data(), fixture.batch.size()}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["threads"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_BatchResolvePar)->Arg(4096)->UseRealTime();

void BM_ParsePath(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompoundName::parse_path("/usr/share/doc/project/README.md"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParsePath);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
