// Experiment X9 (extension): online rebalancing — migrating a hot subtree
// between authority shards while a closed-loop flash crowd hammers it.
// (The binary keeps the bench_x8_* sequence number; EXPERIMENTS.md's X8 is
// the sharded fabric measured by bench_x7_shard.)
//
// PR 8's fabric made placement static: whatever shard a subtree's first
// delegation chose, it kept, and a load shift just melted one machine. This
// experiment closes the loop (docs/REBALANCING.md): eight delegated
// subtrees on four shards, a flash crowd concentrating 80% of the lookups
// on one subtree, the RebalancePlanner reading the per-machine FIFO wait
// signals to pick the dominating shard and its hottest subtree, and the
// MigrationDriver bulk-migrating that subtree — snapshot copy, catch-up,
// atomic cutover, bounded forwarding window — with the workload never
// pausing.
//
// The claim recorded in EXPERIMENTS.md: at --scale full the driver moves a
// >= 100k-context subtree under ~2000-activity Zipf + flash-crowd load with
// zero failed lookups, and post-cutover throughput lands within 10% of a
// statically well-placed run (same placement installed before any traffic)
// — migration costs a transient, not a steady state.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/graph_ops.hpp"
#include "ns/ns_wire.hpp"
#include "ns/rebalance.hpp"
#include "ns/resolver_client.hpp"
#include "ns/shard_ring.hpp"
#include "workload/parallel.hpp"
#include "workload/scenario.hpp"

namespace namecoh {
namespace {

/// Per-request service time charged by every server (ticks); same as
/// bench_x7_shard, so a shard that takes the flash crowd alone queues hard.
constexpr SimDuration kServiceTime = 50;
constexpr std::size_t kSubtrees = 8;
constexpr std::size_t kShards = 4;

struct X8Scale {
  std::size_t fanout;
  std::size_t depth;             ///< context levels under each subtree root
  std::size_t queries_per_tree;  ///< base queries generated per subtree
  std::size_t flash_block;       ///< dedicated flash-crowd queries into t0
  std::size_t activities;
  std::size_t seg1_resolutions;  ///< flash + migration segment
  std::size_t seg2_resolutions;  ///< post-cutover measurement segment
  SimDuration planner_poll;      ///< planner consult cadence
  MigrationOptions migration;
};

X8Scale scale_params() {
  X8Scale s;
  if (bench::scale_flag() == "full") {
    // Per subtree: 1 + 18 + 324 + 5,832 + 104,976 = 111,151 contexts —
    // the >= 100k-context subtree the acceptance bar asks to move.
    s.fanout = 18;
    s.depth = 4;
    s.queries_per_tree = 256;
    s.flash_block = 256;
    s.activities = 2000;
    s.seg1_resolutions = 20000;
    s.seg2_resolutions = 10000;
    s.planner_poll = 2000;
    s.migration.copy_batch = 4096;
    s.migration.copy_interval = 5;
    s.migration.settle_delay = 200;
    s.migration.forward_window = 50000;
    return s;
  }
  NAMECOH_CHECK(bench::scale_flag() == "small",
                "unknown --scale (want small or full)");
  // CI shape: 1 + 6 + 36 + 216 = 259 contexts per subtree.
  s.fanout = 6;
  s.depth = 3;
  s.queries_per_tree = 32;
  s.flash_block = 32;
  s.activities = 64;
  s.seg1_resolutions = 2000;
  s.seg2_resolutions = 1000;
  s.planner_poll = 1000;
  s.migration.copy_batch = 64;
  s.migration.copy_interval = 5;
  s.migration.settle_delay = 100;
  s.migration.forward_window = 20000;
  return s;
}

/// The graph half, built once and shared read-only: a root with kSubtrees
/// delegable subtrees t0..t7.
struct X8Fabric {
  NamingGraph graph;
  EntityId root;
  std::vector<EntityId> subtree_roots;
  std::size_t contexts = 0;

  explicit X8Fabric(const X8Scale& s) {
    root = graph.add_context_object("x8-root");
    contexts = 1;
    for (std::size_t i = 0; i < kSubtrees; ++i) {
      EntityId t = graph.add_context_object("t" + std::to_string(i));
      auto name = Name::make("t" + std::to_string(i));
      NAMECOH_CHECK(name.is_ok(), "bad subtree name");
      NAMECOH_CHECK(graph.bind(root, std::move(name).value(), t).is_ok(),
                    "subtree bind failed");
      TreeBuildResult tree = build_context_tree(graph, t, s.fanout, s.depth);
      contexts += 1 + tree.contexts_created;
      subtree_roots.push_back(t);
    }
  }
};

/// Queries, hottest-first for the Zipf pick, interleaved across subtrees so
/// the base load spreads over the whole fabric; a dedicated flash block of
/// t0-only queries sits at the end (cold under Zipf, targeted by the flash
/// crowd). Every query starts at its subtree root — an activity working
/// inside its own region, the shape that keeps lookups intra-shard until a
/// migration moves the region out from under it.
std::vector<ParallelQuery> make_queries(const X8Fabric& fabric,
                                        const X8Scale& s,
                                        std::size_t* flash_first) {
  std::vector<ParallelQuery> queries;
  queries.reserve(kSubtrees * s.queries_per_tree + s.flash_block);
  auto path_for = [&](std::size_t salt) {
    std::string path;
    for (std::size_t d = 0; d < s.depth; ++d) {
      if (d > 0) path += '/';
      path += 'c';
      path += std::to_string((salt + d * 7) % s.fanout);
      salt /= s.fanout;
    }
    return path;
  };
  for (std::size_t r = 0; r < s.queries_per_tree; ++r) {
    for (std::size_t i = 0; i < kSubtrees; ++i) {
      queries.push_back(ParallelQuery{
          fabric.subtree_roots[i], CompoundName::relative(path_for(r))});
    }
  }
  *flash_first = queries.size();
  for (std::size_t r = 0; r < s.flash_block; ++r) {
    queries.push_back(ParallelQuery{fabric.subtree_roots[0],
                                    CompoundName::relative(path_for(r * 3 + 1))});
  }
  return queries;
}

struct Segment {
  double throughput = 0.0;  ///< resolutions per 1k ticks
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t failed = 0;
};

struct X8Run {
  Segment seg1;  ///< flash + migration (live run only)
  Segment seg2;  ///< steady state after cutover (or from the start)
  MigrationReport report;
  RebalancePlan plan;
  std::uint64_t forwarded = 0;
  ShardId static_target = AuthorityMap::kNoShard;  ///< input for baseline
};

Segment run_segment(Simulator& sim, ResolverClient& client,
                    const std::vector<ParallelQuery>& queries,
                    const X8Scale& s, std::size_t flash_first,
                    std::size_t resolutions, std::uint64_t seed) {
  Histogram latency({50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
                     51200, 102400, 204800, 409600, 819200, 1638400});
  ParallelSpec spec;
  spec.activities = s.activities;
  spec.total_resolutions = resolutions;
  spec.zipf_s = 0.9;
  spec.seed = seed;
  spec.latency = &latency;
  // The flash crowd never lets up: 80% of issues target the t0 block for
  // the whole segment. What changes between segments is *where* t0 lives.
  spec.flash_begin = 0;
  spec.flash_end = ~SimTime{0};
  spec.flash_fraction = 0.8;
  spec.flash_first = flash_first;
  spec.flash_count = queries.size() - flash_first;
  ParallelOutcome out = run_parallel(sim, client, queries, spec);
  Segment seg;
  seg.throughput = out.elapsed() > 0
                       ? 1000.0 * static_cast<double>(out.completed) /
                             static_cast<double>(out.elapsed())
                       : 0.0;
  seg.p50 = latency.quantile(0.5);
  seg.p99 = latency.quantile(0.99);
  seg.failed = out.failed;
  return seg;
}

/// One full stack over the shared fabric. With `static_target` unset this
/// is the live run: flash segment, periodic planner consults, driver
/// migration, then the post-cutover segment. With it set, t0 is placed on
/// that shard before any traffic and only the measurement segment runs —
/// the statically well-placed run the live one is judged against.
X8Run run_fabric(const X8Fabric& fabric, const X8Scale& s,
                 ShardId static_target) {
  const bool live = static_target == AuthorityMap::kNoShard;
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;
  cfg.shard_routing = true;
  cfg.retry.retries = 0;
  cfg.retry.request_timeout =
      static_cast<SimDuration>(s.activities) * kServiceTime * 4 + 100000;
  cfg.retry.max_timeout = cfg.retry.request_timeout;

  // Two subtrees per shard — except the baseline, which pre-places t0
  // where the live run's migration put it.
  ScenarioBuilder builder(fabric.graph);
  builder.shards(kShards)
      .service_time(kServiceTime)
      .track_loads(fabric.subtree_roots)
      .client_config(cfg)
      .client_label("x8");
  for (std::size_t i = 0; i < kSubtrees; ++i) {
    ShardId shard = static_cast<ShardId>(i / 2);
    if (!live && i == 0) shard = static_target;
    builder.delegate(fabric.subtree_roots[i], shard);
  }
  builder.delegate(fabric.root, 0);
  auto cluster = builder.build();
  Simulator& sim = cluster->sim();
  Transport& transport = cluster->transport();
  AuthorityMap& homes = cluster->homes();
  NameService& service = cluster->service();
  ResolverClient& client = cluster->client();

  std::size_t flash_first = 0;
  const std::vector<ParallelQuery> queries =
      make_queries(fabric, s, &flash_first);

  X8Run run;
  MigrationDriver driver(fabric.graph, homes, service, sim);
  std::function<void()> consult = [&] {
    if (driver.phase() != MigrationPhase::kIdle) return;
    RebalancePlanner planner(homes, transport.metrics());
    RebalancePlan plan = planner.propose(fabric.subtree_roots);
    if (!plan.rebalance) {
      sim.schedule_in(s.planner_poll, [&] { consult(); });
      return;
    }
    run.plan = plan;
    NAMECOH_CHECK(driver.start(plan.subtree, plan.to, s.migration).is_ok(),
                  "migration start refused");
  };
  if (live) {
    // Poll the planner on the live load signals and act the moment a
    // proposal appears — nothing in this bench hard-codes "move t0 to
    // s_k" or when to do it; the FIFO wait signals decide both.
    sim.schedule_in(s.planner_poll, [&] { consult(); });
    run.seg1 = run_segment(sim, client, queries, s, flash_first,
                           s.seg1_resolutions, /*seed=*/11);
    run.report = driver.run_to_completion();
    NAMECOH_CHECK(run.report.phase == MigrationPhase::kDone,
                  "migration did not complete: phase=" +
                      std::string(migration_phase_name(run.report.phase)) +
                      " error=" + run.report.error);
    run.static_target = run.report.to;
  }
  run.seg2 = run_segment(sim, client, queries, s, flash_first,
                         s.seg2_resolutions, /*seed=*/13);
  run.forwarded = transport.metrics().counter_value("ns.server.forwarded");
  return run;
}

void run_experiment() {
  const X8Scale s = scale_params();
  const bool full = bench::scale_flag() == "full";
  bench::print_header(
      "X9 (extension): online rebalancing under a flash crowd — " +
          bench::scale_flag() + " scale",
      "Eight delegated subtrees on four shards; a flash crowd sends 80% of\n"
      "lookups into one subtree. The planner reads the FIFO wait signals,\n"
      "picks the dominating shard's hottest subtree, and the driver\n"
      "migrates it live: copy, catch-up, cutover, forwarding window\n"
      "(docs/REBALANCING.md). Traffic never pauses.");

  X8Fabric fabric(s);
  std::cout << "fabric: " << fabric.contexts << " contexts in " << kSubtrees
            << " subtrees on " << kShards << " shards, " << s.activities
            << " activities, flash 80% -> t0, planner polled every "
            << s.planner_poll << " ticks\n\n";

  X8Run live = run_fabric(fabric, s, AuthorityMap::kNoShard);
  std::cout << "plan: " << live.plan.reason << "\n";
  std::cout << "migration: " << live.report.contexts << " contexts copied ("
            << live.report.snapshots_pushed << " snapshots, "
            << live.report.catchup_rounds << " catch-up rounds), cutover at "
            << "tick " << live.report.cutover_at << ", "
            << live.forwarded << " stale lookups forwarded\n\n";

  X8Run baseline = run_fabric(fabric, s, live.static_target);

  Table t({"segment", "throughput (res/ktick)", "p50 settle", "p99 settle",
           "failed"});
  t.add_row({"flash + live migration", bench::frac(live.seg1.throughput, 2),
             bench::frac(live.seg1.p50, 0), bench::frac(live.seg1.p99, 0),
             std::to_string(live.seg1.failed)});
  t.add_row({"post-cutover", bench::frac(live.seg2.throughput, 2),
             bench::frac(live.seg2.p50, 0), bench::frac(live.seg2.p99, 0),
             std::to_string(live.seg2.failed)});
  t.add_row({"statically well-placed", bench::frac(baseline.seg2.throughput, 2),
             bench::frac(baseline.seg2.p50, 0),
             bench::frac(baseline.seg2.p99, 0),
             std::to_string(baseline.seg2.failed)});
  t.print(std::cout);

  // The acceptance bar. Zero failed lookups across every segment — the
  // migration was invisible to correctness; at full scale the moved
  // subtree clears 100k contexts; and steady state after the cutover is
  // within 10% of never having been misplaced at all.
  NAMECOH_CHECK(live.seg1.failed == 0 && live.seg2.failed == 0 &&
                    baseline.seg2.failed == 0,
                "lookups failed during rebalancing");
  NAMECOH_CHECK(live.plan.from == 0 && live.plan.subtree.value() ==
                                           fabric.subtree_roots[0].value(),
                "planner did not pick the flash-crowded subtree");
  if (full) {
    NAMECOH_CHECK(live.report.moved >= 100000,
                  "full scale must migrate a >= 100k-context subtree");
  }
  NAMECOH_CHECK(live.seg2.throughput >= 0.9 * baseline.seg2.throughput,
                "post-cutover throughput more than 10% below the "
                "statically well-placed run");
  NAMECOH_CHECK(live.seg2.p99 <= 2.0 * std::max(baseline.seg2.p99, 1.0),
                "post-cutover p99 did not settle near the well-placed run");
  std::cout << "(post-cutover throughput at " +
                   bench::frac(100.0 * live.seg2.throughput /
                                   baseline.seg2.throughput,
                               1) +
                   "% of the statically well-placed run; " +
                   std::to_string(live.report.moved) +
                   " contexts changed shards mid-traffic)\n"
            << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_MigrateSubtree(benchmark::State& state) {
  // The cutover write alone: reassigning a 585-context subtree's dense
  // shard slots, ping-ponged so every iteration does the same work.
  NamingGraph graph;
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 8, 3);
  Internetwork net;
  NetworkId lan = net.add_network("lan");
  MachineId m1 = net.add_machine(lan, "m1");
  MachineId m2 = net.add_machine(lan, "m2");
  AuthorityMap homes;
  (void)homes.add_shard({m1});
  (void)homes.add_shard({m2});
  EntityId sub = tree.levels[1][0];
  NAMECOH_CHECK(homes.install_delegation(graph, sub, 1).is_ok(),
                "bench delegation failed");
  NAMECOH_CHECK(homes.install_delegation(graph, root, 0).is_ok(),
                "bench root delegation failed");
  ShardId to = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(homes.migrate_subtree(graph, sub, to));
    to = 1 - to;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MigrateSubtree);

/// One migration copy end to end: a 9-binding kUpdatePush encoded on the
/// primary, sent, delivered and applied through an intake of `kind` on a
/// target that is not (yet) a replica. One binding is rebound per
/// iteration so every push is newer than the stored snapshot and takes
/// the apply path, not the stale one.
void snapshot_push_apply(benchmark::State& state, NameService::Intake kind) {
  NamingGraph graph;
  const EntityId ctx = graph.add_context_object("ctx");
  const EntityId a = graph.add_data_object("a");
  const EntityId b = graph.add_data_object("b");
  for (int i = 0; i < 8; ++i) {
    const Name name("entry" + std::to_string(i));
    NAMECOH_CHECK(graph.bind(ctx, name, a).is_ok(), "bench bind failed");
  }
  Internetwork net;
  Simulator sim;
  Transport transport(sim, net);
  NetworkId lan = net.add_network("lan");
  MachineId from = net.add_machine(lan, "from");
  MachineId to = net.add_machine(lan, "to");
  AuthorityMap homes;
  NAMECOH_CHECK(
      homes.install_delegation(graph, ctx, homes.add_shard({from})).is_ok(),
      "bench delegation failed");
  NameService service(graph, net, transport, homes);
  service.add_server(from);
  service.add_server(to);
  service.open_migration_intake(to, {ctx}, kind);
  const Name moving("moving");
  bool flip = false;
  for (auto _ : state) {
    NAMECOH_CHECK(graph.bind(ctx, moving, flip ? a : b).is_ok(),
                  "bench rebind failed");
    flip = !flip;
    benchmark::DoNotOptimize(service.push_snapshot(ctx, to));
    sim.run();
  }
  NAMECOH_CHECK(
      transport.metrics().counter_value("ns.server.updates_applied") ==
          static_cast<std::uint64_t>(state.iterations()),
      "a snapshot push was not applied");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SnapshotPushApply(benchmark::State& state) {
  // A secondary's copy: decoded, interned and stored whole.
  snapshot_push_apply(state, NameService::Intake::kFullCopy);
}
BENCHMARK(BM_SnapshotPushApply);

void BM_SnapshotPushEpochOnly(benchmark::State& state) {
  // A future primary's copy: validated, and only its epoch kept.
  snapshot_push_apply(state, NameService::Intake::kEpochOnly);
}
BENCHMARK(BM_SnapshotPushEpochOnly);

void BM_UpdatePushCodec(benchmark::State& state) {
  // The codec share of one migration copy, with no simulator or service:
  // the same 9-binding kUpdatePush encoded, framed, decoded and read back
  // into interned bindings.
  std::vector<Binding> bindings;
  for (int i = 0; i < 8; ++i) {
    bindings.push_back(Binding{Name("entry" + std::to_string(i)), EntityId(1)});
  }
  bindings.push_back(Binding{Name("moving"), EntityId(2)});
  const EntityId ctx(7);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    const Message sent = encode_update_push(ctx, ++epoch, bindings);
    const std::vector<std::uint8_t> frame = sent.payload.encode();
    auto payload = Payload::decode(std::span<const std::uint8_t>(frame));
    NAMECOH_CHECK(payload.is_ok(), "bench push frame refused");
    Message received;
    received.type = sent.type;
    received.payload = std::move(payload).value();
    auto push = decode_update_push(received);
    NAMECOH_CHECK(push.has_value() && push->bindings.size() == 9,
                  "bench push did not decode");
    benchmark::DoNotOptimize(push);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UpdatePushCodec);

void BM_ReplicaEpochProbe(benchmark::State& state) {
  // A catch-up check's probes: replica_epoch for every context of a
  // subtree, in shard_subtree order, on each of three secondaries. The
  // subtree's N contexts are spread across a 2^20-entity graph (data
  // objects between them), so the stores are as sparse and as far out of
  // cache as a full-scale run's. Setup pushes every context to every
  // secondary once.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEntities = std::size_t{1} << 20;
  NamingGraph graph;
  graph.reserve(kEntities);
  const EntityId root = graph.add_context_object("root");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t pad = 1; pad < kEntities / n; ++pad) {
      (void)graph.add_data_object("");
    }
    const EntityId ctx = graph.add_context_object("c");
    NAMECOH_CHECK(graph.bind(root, Name("c" + std::to_string(i)), ctx).is_ok(),
                  "bench bind failed");
  }
  Internetwork net;
  Simulator sim;
  Transport transport(sim, net);
  NetworkId lan = net.add_network("lan");
  std::vector<MachineId> machines;
  for (int i = 0; i < 4; ++i) {
    machines.push_back(net.add_machine(lan, "m" + std::to_string(i)));
  }
  AuthorityMap homes;
  NAMECOH_CHECK(
      homes.install_delegation(graph, root, homes.add_shard(machines)).is_ok(),
      "bench delegation failed");
  NameService service(graph, net, transport, homes);
  for (MachineId m : machines) service.add_server(m);
  const std::vector<EntityId> subtree = homes.shard_subtree(graph, root);
  for (EntityId ctx : subtree) service.publish_update(ctx);
  sim.run();
  const std::vector<MachineId> secondaries(machines.begin() + 1,
                                           machines.end());
  for (EntityId ctx : subtree) {
    for (MachineId m : secondaries) {
      NAMECOH_CHECK(service.replica_epoch(m, ctx).has_value(),
                    "a secondary missed its snapshot");
    }
  }
  for (auto _ : state) {
    for (EntityId ctx : subtree) {
      for (MachineId m : secondaries) {
        benchmark::DoNotOptimize(service.replica_epoch(m, ctx));
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * subtree.size() * secondaries.size()));
}
BENCHMARK(BM_ReplicaEpochProbe)->Arg(4096)->Arg(65536);

void BM_PlannerPropose(benchmark::State& state) {
  // One planner consult: read 4 shards' load counters, rank 8 candidates.
  NamingGraph graph;
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 8, 1);
  Internetwork net;
  NetworkId lan = net.add_network("lan");
  AuthorityMap homes;
  MetricsRegistry metrics;
  for (std::size_t i = 0; i < 4; ++i) {
    MachineId m = net.add_machine(lan, "m" + std::to_string(i));
    (void)homes.add_shard({m});
    const std::string prefix = "ns.server.m" + std::to_string(m.value());
    metrics.counter(prefix + ".served").inc(100);
    metrics.counter(prefix + ".wait_ticks").inc(i == 0 ? 50000 : 100);
  }
  NAMECOH_CHECK(homes.install_delegation(graph, root, 0).is_ok(),
                "bench delegation failed");
  for (std::size_t i = 0; i < tree.levels[1].size(); ++i) {
    metrics
        .counter("ns.server.subtree." +
                 std::to_string(tree.levels[1][i].value()) + ".hits")
        .inc(10 + i);
  }
  RebalancePlanner planner(homes, metrics);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.propose(tree.levels[1]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PlannerPropose);

void BM_PlanRingChange(benchmark::State& state) {
  // Diffing 64 children's ownership against a grown ring.
  NamingGraph graph;
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 64, 1);
  Internetwork net;
  NetworkId lan = net.add_network("lan");
  AuthorityMap homes;
  ShardRing ring;
  for (std::size_t i = 0; i < 4; ++i) {
    MachineId m = net.add_machine(lan, "m" + std::to_string(i));
    (void)homes.add_shard({m});
    ring.add_shard(static_cast<ShardId>(i));
  }
  NAMECOH_CHECK(homes.delegate_children_by_hash(graph, root, ring).is_ok(),
                "bench hash delegation failed");
  MachineId extra = net.add_machine(lan, "m4");
  (void)homes.add_shard({extra});
  ring.add_shard(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_ring_change(graph, homes, root, ring));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * tree.levels[1].size()));
}
BENCHMARK(BM_PlanRingChange);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
