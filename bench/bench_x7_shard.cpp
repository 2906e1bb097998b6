// Experiment X8 (extension): the sharded delegation fabric at
// million-entity scale. (The binary keeps the bench_x7_* sequence number;
// EXPERIMENTS.md's X7 is the execution-policy seam measured by
// bench_core_resolution.)
//
// The paper's §5.1 lets a context's authority delegate subtrees to other
// machines; PR 8 turns that single mechanism into a fabric: many authority
// shards, subtree delegation records in the AuthorityMap, and referral
// glue so a client learns the delegate shard's replica set
// in the referral itself instead of paying another round trip
// (docs/SHARDING.md).
//
// This experiment builds one naming graph — at --scale full, a fanout-16
// depth-5 context tree (1,118,481 contexts) whose 1,048,576 leaves each
// carry nine extra bindings into a shared data-object pool, 10,555,664
// bindings total — and resolves a Zipf-skewed closed-loop workload from
// thousands of simulated activities (workload/run_parallel, the PR 5 async
// engine) against the same tree delegated across 1, 4, 16 and 64 shards.
// Every server charges a fixed per-request service time, so the single
// shard is a queueing bottleneck and the fabric's win is visible as
// throughput scaling and a collapsing p99: the work divides across shard
// machines while the per-lookup hop count stays flat (glue keeps referral
// chases at one extra hop, never a re-walk through the delegating
// authority).
//
// The claim recorded in EXPERIMENTS.md: throughput grows monotonically
// with the shard count (64 shards beat 1 by an order of magnitude at full
// scale), p99 settle latency shrinks alongside, and the ns.shard.*
// counters show glue doing the routing — delegations chased once, then
// shard routes reused.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/graph_ops.hpp"
#include "ns/name_service.hpp"
#include "ns/shard_ring.hpp"
#include "workload/parallel.hpp"
#include "workload/scenario.hpp"

namespace namecoh {
namespace {

// Per-request service time charged by every server (ticks). This is what
// makes shard count matter: with one shard, every lookup funnels through
// one machine's FIFO.
constexpr SimDuration kServiceTime = 50;

struct X7Scale {
  std::size_t fanout;
  std::size_t depth;
  std::size_t data_pool;          ///< shared data objects bound under leaves
  std::size_t extra_per_leaf;     ///< data bindings per leaf context
  std::size_t queries;            ///< distinct queries (hottest-first)
  std::size_t activities;         ///< closed-loop multiprogramming level
  std::size_t resolutions;        ///< total lookups per shard count
};

X7Scale scale_params() {
  if (bench::scale_flag() == "full") {
    // 1 + 16 + 256 + 4096 + 65536 + 1048576 = 1,118,481 contexts;
    // 1,118,480 tree bindings + 9 × 1,048,576 leaf data bindings
    // = 10,555,664 bindings.
    return X7Scale{16, 5, 4096, 9, 8192, 2000, 20000};
  }
  NAMECOH_CHECK(bench::scale_flag() == "small",
                "unknown --scale (want small or full)");
  // CI shape: same topology, two orders smaller. 4,681 contexts,
  // 4,680 + 9 × 4,096 = 41,544 bindings.
  return X7Scale{8, 4, 512, 9, 512, 64, 2000};
}

/// The graph half of the experiment, built once and shared (read-only)
/// across every shard count.
struct X7Fabric {
  NamingGraph graph;
  EntityId root;
  TreeBuildResult tree;
  std::size_t bindings = 0;
  std::vector<EntityId> delegation_roots;  ///< the level-2 subtree roots

  explicit X7Fabric(const X7Scale& s) {
    root = graph.add_context_object("x7-root");
    tree = build_context_tree(graph, root, s.fanout, s.depth);
    bindings = tree.bindings_created;

    // Nine extra bindings per leaf into a shared data-object pool: the
    // "millions of names, few distinct objects" shape of a real
    // distributed file system, and what pushes the binding count past
    // 10M at full scale without 10M entities.
    std::vector<EntityId> pool;
    pool.reserve(s.data_pool);
    for (std::size_t i = 0; i < s.data_pool; ++i) {
      pool.push_back(graph.add_data_object(""));
    }
    std::vector<Name> data_names;
    data_names.reserve(s.extra_per_leaf);
    for (std::size_t k = 0; k < s.extra_per_leaf; ++k) {
      auto name = Name::make("d" + std::to_string(k));
      NAMECOH_CHECK(name.is_ok(), "bad data-binding name");
      data_names.push_back(std::move(name).value());
    }
    const std::vector<EntityId>& leaves = tree.levels.back();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      for (std::size_t k = 0; k < s.extra_per_leaf; ++k) {
        NAMECOH_CHECK(
            graph
                .bind(leaves[i], data_names[k],
                      pool[(i * s.extra_per_leaf + k) % pool.size()])
                .is_ok(),
            "leaf data binding failed");
        ++bindings;
      }
    }
    delegation_roots = tree.levels[2];
  }
};

struct ShardRun {
  std::size_t shards = 0;
  double throughput = 0.0;  ///< resolutions per 1k ticks
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t chased = 0;
  std::uint64_t glue_hits = 0;
  std::uint64_t cross_hops = 0;
  std::uint64_t failed = 0;
};

/// Resolve the workload against the fabric delegated across `shards`
/// authority shards. Fresh cluster per run (ScenarioBuilder wires the
/// simulator/network/authority stack); the naming graph is shared
/// read-only.
ShardRun run_shards(const X7Fabric& fabric, const X7Scale& s,
                    std::size_t shards) {
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;  // every lookup pays the wire: servers are the story
  cfg.shard_routing = true;
  cfg.retry.retries = 0;
  // Closed-loop queueing at one shard can back a request up behind the
  // whole activity population; the timeout must sit above that, not above
  // a network round trip.
  cfg.retry.request_timeout =
      static_cast<SimDuration>(s.activities) * kServiceTime * 4 + 100000;
  cfg.retry.max_timeout = cfg.retry.request_timeout;

  // Delegate the level-2 subtree roots round-robin while unowned — each
  // claims its whole subtree — then hand the remainder (root, levels 0-1)
  // to shard 0. Order matters: install_delegation never descends into an
  // already-owned region.
  ScenarioBuilder builder(fabric.graph);
  builder.shards(shards)
      .service_time(kServiceTime)
      .client_config(cfg)
      .client_label("x7");
  for (std::size_t i = 0; i < fabric.delegation_roots.size(); ++i) {
    builder.delegate(fabric.delegation_roots[i],
                     static_cast<ShardId>(i % shards));
  }
  builder.delegate(fabric.root, 0);
  auto cluster = builder.build();
  Simulator& sim = cluster->sim();
  ResolverClient& client = cluster->client();

  // Queries, hottest-first for the Zipf pick. Cycling over the delegation
  // roots spreads consecutive ranks across shards, so the hot set is a
  // fabric-wide load, not one shard's: rank r descends a rank-dependent
  // leaf path under subtree (r mod roots), ending at the leaf context
  // (even ranks) or one of its data bindings (odd ranks). Most lookups
  // start at the delegated subtree root — an activity working inside its
  // own region — but every eighth starts at the fabric root with the full
  // path, paying the referral chase across the delegation boundary that
  // the referral glue exists to keep at one hop.
  std::vector<ParallelQuery> queries;
  queries.reserve(s.queries);
  const std::size_t leaf_levels = s.depth - 2;  // atoms below a level-2 root
  for (std::size_t r = 0; r < s.queries; ++r) {
    const std::size_t subtree = r % fabric.delegation_roots.size();
    const bool from_root = r % 8 == 3;
    std::string path;
    if (from_root) {
      path = "c" + std::to_string(subtree / s.fanout) + "/c" +
             std::to_string(subtree % s.fanout) + "/";
    }
    std::size_t salt = r / fabric.delegation_roots.size();
    for (std::size_t d = 0; d < leaf_levels; ++d) {
      if (d > 0) path += '/';
      path += 'c';
      path += std::to_string((salt + d * 7) % s.fanout);
      salt /= s.fanout;
    }
    if (r % 2 == 1) path += "/d" + std::to_string(r % s.extra_per_leaf);
    queries.push_back(
        ParallelQuery{from_root ? fabric.root : fabric.delegation_roots[subtree],
                      CompoundName::relative(path)});
  }

  Histogram latency({50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
                     51200, 102400, 204800, 409600, 819200, 1638400});
  ParallelSpec spec;
  spec.activities = s.activities;
  spec.total_resolutions = s.resolutions;
  spec.think_time = 0;
  spec.zipf_s = 0.9;
  spec.seed = 7 + shards;
  spec.latency = &latency;
  ParallelOutcome out = run_parallel(sim, client, queries, spec);

  const MetricsRegistry& metrics = cluster->metrics();
  ShardRun run;
  run.shards = shards;
  run.throughput = out.elapsed() > 0
                       ? 1000.0 * static_cast<double>(out.completed) /
                             static_cast<double>(out.elapsed())
                       : 0.0;
  run.p50 = latency.quantile(0.5);
  run.p99 = latency.quantile(0.99);
  run.chased = metrics.counter_value("ns.shard.delegations_chased");
  run.glue_hits = metrics.counter_value("ns.shard.glue_hits");
  run.cross_hops = metrics.counter_value("ns.shard.cross_shard_hops");
  run.failed = out.failed;
  return run;
}

void run_experiment() {
  const X7Scale s = scale_params();
  const bool full = bench::scale_flag() == "full";
  bench::print_header(
      "X8 (extension): sharded delegation fabric — " + bench::scale_flag() +
          " scale",
      "One naming graph, delegated across 1 -> 64 authority shards. Each\n"
      "server charges " +
          std::to_string(kServiceTime) +
          " ticks per request, so the single shard is a queueing\n"
          "bottleneck; the fabric divides the work while v5 referral glue "
          "keeps the\nhop count flat (docs/SHARDING.md).");

  X7Fabric fabric(s);
  const std::size_t contexts = fabric.tree.contexts_created + 1;  // + root
  std::cout << "fabric: " << contexts << " contexts, " << fabric.bindings
            << " bindings, " << fabric.delegation_roots.size()
            << " delegable subtrees, " << s.activities << " activities x "
            << s.resolutions << " resolutions (zipf s=0.9)\n\n";
  if (full) {
    NAMECOH_CHECK(contexts >= 1000000, "full scale must build >= 1M contexts");
    NAMECOH_CHECK(fabric.bindings >= 10000000,
                  "full scale must build >= 10M bindings");
  }

  Table t({"shards", "throughput (res/ktick)", "p50 settle", "p99 settle",
           "delegations chased", "glue hits", "cross-shard hops", "failed"});
  std::vector<ShardRun> runs;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                             std::size_t{64}}) {
    ShardRun run = run_shards(fabric, s, shards);
    NAMECOH_CHECK(run.failed == 0, "lookups failed against the fabric");
    t.add_row({std::to_string(run.shards), bench::frac(run.throughput, 2),
               bench::frac(run.p50, 0), bench::frac(run.p99, 0),
               std::to_string(run.chased), std::to_string(run.glue_hits),
               std::to_string(run.cross_hops), std::to_string(run.failed)});
    runs.push_back(run);
  }
  t.print(std::cout);

  // The scaling claims behind the table: more shards, more throughput,
  // smaller tail; and glue actually carried the routing (shard routes get
  // reused far more often than delegations are chased).
  NAMECOH_CHECK(runs.back().throughput > runs.front().throughput,
                "64 shards did not out-resolve 1 shard");
  for (std::size_t i = 1; i < runs.size(); ++i) {
    NAMECOH_CHECK(runs[i].throughput >= runs[i - 1].throughput,
                  "throughput regressed while adding shards");
  }
  NAMECOH_CHECK(runs.back().p99 < runs.front().p99,
                "p99 did not shrink with the shard count");
  NAMECOH_CHECK(runs.back().chased > 0,
                "from-root lookups never chased a delegation");
  NAMECOH_CHECK(runs.back().glue_hits >= runs.back().chased,
                "chased delegations were not glue-routed");
  NAMECOH_CHECK(runs.back().cross_hops > 0,
                "no cross-shard hop was ever taken at 64 shards");
  std::cout << "(throughput x" +
                   bench::frac(runs.back().throughput /
                                   runs.front().throughput,
                               1) +
                   " and p99 /" +
                   bench::frac(runs.front().p99 /
                                   std::max(runs.back().p99, 1.0),
                               1) +
                   " from 1 -> 64 shards; the graph itself never changed)\n"
            << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_DelegationInstall(benchmark::State& state) {
  // Installing a subtree delegation: one BFS claim over the subtree.
  NamingGraph graph;
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 8, 3);
  Internetwork net;
  NetworkId lan = net.add_network("lan");
  MachineId m1 = net.add_machine(lan, "m1");
  MachineId m2 = net.add_machine(lan, "m2");
  for (auto _ : state) {
    AuthorityMap homes;
    (void)homes.add_shard({m1});
    (void)homes.add_shard({m2});
    for (std::size_t i = 0; i < tree.levels[1].size(); ++i) {
      benchmark::DoNotOptimize(homes.install_delegation(
          graph, tree.levels[1][i], static_cast<ShardId>(i % 2)));
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * tree.levels[1].size()));
}
BENCHMARK(BM_DelegationInstall);

void BM_ShardRingLookup(benchmark::State& state) {
  // Consistent-hash placement: one mix + binary search over 64 x 64 points.
  ShardRing ring;
  for (ShardId s = 0; s < 64; ++s) ring.add_shard(s);
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.shard_for(EntityId(id++ & 0xfffff)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardRingLookup);

void BM_ReplyDecode(benchmark::State& state) {
  // Decoding a whole referral into a 3-replica shard: the replica list,
  // the empty lease pair and the shard id.
  ResolveReply referral;
  referral.corr = 42;
  referral.disposition = NsWire::kReferral;
  referral.entity = EntityId(100);
  referral.remaining = "c3/c7/d2";
  referral.authority = EntityId(100);
  referral.epoch = 5;
  for (int i = 0; i < 3; ++i) {
    referral.replicas.push_back(WireServer{
        Pid{1, static_cast<Addr>(i + 1), 7}, MachineId(i)});
  }
  referral.shard = 7;
  const Message message = encode_resolve_reply(referral);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_resolve_reply(message));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReplyDecode);

void BM_ShardedResolve(benchmark::State& state) {
  // One full shard-routed lookup: referral with glue on the first
  // iteration, direct shard hop (learned route) on every later one. Cache
  // off, service time zero — this measures the routing machinery.
  NamingGraph graph;
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 4, 3);
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  NetworkId lan = net.add_network("lan");
  MachineId m1 = net.add_machine(lan, "m1");
  MachineId m2 = net.add_machine(lan, "m2");
  AuthorityMap homes;
  (void)homes.add_shard({m1});
  (void)homes.add_shard({m2});
  NAMECOH_CHECK(homes.install_delegation(graph, tree.levels[1][0], 1).is_ok(),
                "bench delegation failed");
  NAMECOH_CHECK(homes.install_delegation(graph, root, 0).is_ok(),
                "bench root delegation failed");
  NameService service{graph, net, transport, homes};
  service.add_server(m1);
  service.add_server(m2);
  ResolverClientConfig cfg;
  cfg.cache_ttl = 0;
  cfg.shard_routing = true;
  ResolverClient client(graph, net, transport, sim, service, m1, "bench", cfg);
  const CompoundName target = CompoundName::relative("c0/c1/c2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(root, target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedResolve);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
