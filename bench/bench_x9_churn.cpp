// Experiment X10 (extension): dynamic membership — the §6 renumbering
// stress at fabric scale. (The binary follows the bench_x7/x8 sequence
// numbering; EXPERIMENTS.md's X9 is the online rebalancing measured by
// bench_x8_rebalance.)
//
// The paper's §6 argues that *where* a name is closed over decides what a
// reconfiguration breaks: identifiers fully qualified down to a machine
// address die with the address; identifiers qualified only relative to an
// enclosing scope survive anything that happens outside that scope. PR 10
// makes the machines themselves dynamic (docs/MEMBERSHIP.md) — they leave,
// rejoin, crash and renumber while a closed-loop load resolves — and this
// experiment measures the same name set through three closure rules:
//
//   * fully qualified — a stored (naddr, maddr, laddr) pid for a subtree's
//     home server, resolved straight through the transport;
//   * partially qualified — a relative compound name closed over its
//     subtree root, resolved through the naming fabric;
//   * Algol-scoped — an embedded name resolved from its closest-ancestor
//     scope (R(file), §6 Example 2), then through the fabric;
//
// crossed with the three cache-coherence policies (TTL-only, epoch-pull,
// lease-push; docs/COHERENCE.md). The fabric churns through three phases:
// a rolling datacenter restart (graceful leave -> live handoff -> rejoin
// -> handback), a rolling renumber of every shard machine with a flash
// crowd landing on a renamed subtree, and a long-lived partition that
// heals mid-run. Client routes heal against the MembershipDirectory
// (incarnation checks + rename tombstones), so name-closed lookups keep
// completing; nothing heals a raw address, under any cache policy.
//
// The claim recorded in EXPERIMENTS.md: zero permanent resolution
// failures across every phase and policy; after the renumber pass the
// fully-qualified pids demonstrably break (survival < 1) while the
// partially-qualified and Algol-scoped closures stay at 1.0 — and the FQ
// row is identical across cache policies, because no coherence protocol
// rescues a location-dependent identifier.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coherence/coherence.hpp"
#include "core/graph_ops.hpp"
#include "embed/embedded.hpp"
#include "ns/membership.hpp"
#include "ns/resolver_client.hpp"
#include "workload/parallel.hpp"
#include "workload/scenario.hpp"

namespace namecoh {
namespace {

/// Per-request service time charged by every server (ticks); matches
/// bench_x7/x8 so the phases queue realistically.
constexpr SimDuration kServiceTime = 50;
constexpr std::size_t kSubtrees = 8;
constexpr std::size_t kShards = 4;
constexpr SimDuration kTtl = 4000;

struct X9Scale {
  std::size_t fanout;
  std::size_t depth;
  std::size_t queries_per_tree;
  std::size_t flash_block;  ///< flash-crowd queries into the renamed subtree
  std::size_t activities;
  std::size_t phase_resolutions;  ///< load driven through each churn phase
  SimDuration restart_downtime;
  SimDuration restart_gap;
  SimDuration rename_interval;
  SimDuration partition_length;
  SimDuration request_timeout;
  MembershipOptions membership;
};

X9Scale scale_params() {
  X9Scale s;
  if (bench::scale_flag() == "full") {
    // Per subtree: 1 + 18 + 324 + 5,832 + 104,976 = 111,151 contexts —
    // the whole fabric carries ~890k contexts through the churn.
    s.fanout = 18;
    s.depth = 4;
    s.queries_per_tree = 256;
    s.flash_block = 256;
    s.activities = 2000;
    s.phase_resolutions = 20000;
    s.restart_downtime = 5000;
    s.restart_gap = 2000;
    s.rename_interval = 4000;
    s.partition_length = 30000;
    s.request_timeout = 25000;
    s.membership.handoff.copy_batch = 4096;
    s.membership.handoff.copy_interval = 5;
    s.membership.handoff.settle_delay = 200;
    s.membership.handoff.forward_window = 5000;
    s.membership.rename_window = 60000;
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
  s.phase_resolutions = 2000;
  s.restart_downtime = 3000;
  s.restart_gap = 1000;
  s.rename_interval = 2000;
  s.partition_length = 30000;
  s.request_timeout = 20000;
  s.membership.handoff.copy_batch = 64;
  s.membership.handoff.copy_interval = 5;
  s.membership.handoff.settle_delay = 50;
  s.membership.handoff.forward_window = 2000;
  s.membership.rename_window = 40000;
  return s;
}

/// The graph half, built once and shared read-only across every policy:
/// a root with kSubtrees delegable subtrees, each carrying a `lib/api`
/// marker at its root — the Algol scope anchor an embedded name closes
/// over (only the subtree root binds "lib", so the closest-ancestor walk
/// from any interior directory lands there).
struct X9Fabric {
  NamingGraph graph;
  EntityId root;
  std::vector<EntityId> subtree_roots;
  std::vector<EntityId> lib_objects;  ///< t_i's lib/api data object
  std::vector<EntityId> deep_dirs;    ///< a leaf-level dir per subtree
  std::size_t contexts = 0;

  explicit X9Fabric(const X9Scale& s) {
    root = graph.add_context_object("x9-root");
    contexts = 1;
    for (std::size_t i = 0; i < kSubtrees; ++i) {
      EntityId t = graph.add_context_object("t" + std::to_string(i));
      auto bound = Name::make("t" + std::to_string(i));
      NAMECOH_CHECK(bound.is_ok(), "bad subtree name");
      NAMECOH_CHECK(graph.bind(root, std::move(bound).value(), t).is_ok(),
                    "subtree bind failed");
      TreeBuildResult tree = build_context_tree(graph, t, s.fanout, s.depth);
      contexts += 1 + tree.contexts_created;
      subtree_roots.push_back(t);
      deep_dirs.push_back(tree.levels.back().front());
      // build_context_tree makes bare directories; the Algol scope walk
      // needs a ".." chain (R(file) walks up from the containing dir), so
      // thread one along the probe path down to deep_dirs[i].
      for (std::size_t level = 1; level < tree.levels.size(); ++level) {
        NAMECOH_CHECK(graph
                          .bind(tree.levels[level].front(), Name::parent(),
                                tree.levels[level - 1].front())
                          .is_ok(),
                      "parent link bind failed");
      }

      EntityId lib = graph.add_context_object("lib" + std::to_string(i));
      EntityId api = graph.add_data_object("");
      NAMECOH_CHECK(graph.bind(t, Name("lib"), lib).is_ok(), "lib bind");
      NAMECOH_CHECK(graph.bind(lib, Name("api"), api).is_ok(), "api bind");
      contexts += 1;
      lib_objects.push_back(api);
    }
  }
};

ResolverClientConfig config_for(CachePolicy policy, const X9Scale& s) {
  ResolverClientConfig cfg;
  cfg.cache_ttl = kTtl;
  cfg.shard_routing = true;
  cfg.epoch_invalidation = policy != CachePolicy::kTtlOnly;
  cfg.lease_coherence = policy == CachePolicy::kLeasePush;
  // Churn drops in-flight messages (a renamed machine's address re-resolves
  // at delivery); retries, not the first attempt, carry those lookups. The
  // timeout sits above the worst closed-loop queue wait and below the
  // partition length, so a cut request retries its way past the heal.
  cfg.retry.retries = 3;
  cfg.retry.request_timeout = s.request_timeout;
  cfg.retry.max_timeout = s.request_timeout * 4;
  return cfg;
}

/// Queries interleaved across subtrees (Zipf hits them fabric-wide) plus a
/// flash block into t0 — the subtree whose machine renames mid-phase.
std::vector<ParallelQuery> make_queries(const X9Fabric& fabric,
                                        const X9Scale& s,
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
    queries.push_back(ParallelQuery{
        fabric.subtree_roots[0], CompoundName::relative(path_for(r * 3 + 1))});
  }
  return queries;
}

struct Phase {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

/// One closed-loop load segment; churn scripts scheduled by the caller
/// interleave with it on the same simulator.
Phase run_phase(Cluster& cluster, const std::vector<ParallelQuery>& queries,
                const X9Scale& s, std::size_t flash_first, bool flash,
                std::uint64_t seed) {
  ParallelSpec spec;
  spec.activities = s.activities;
  spec.total_resolutions = s.phase_resolutions;
  spec.zipf_s = 0.9;
  spec.seed = seed;
  if (flash) {
    spec.flash_begin = 0;
    spec.flash_end = ~SimTime{0};
    spec.flash_fraction = 0.8;
    spec.flash_first = flash_first;
    spec.flash_count = queries.size() - flash_first;
  }
  ParallelOutcome out = run_parallel(cluster.sim(), cluster.client(), queries,
                                     spec);
  return Phase{out.completed, out.failed};
}

/// §6 closure-rule survival after the renumber pass.
struct Survival {
  FractionCounter fq;     ///< stored fully-qualified pids, via transport
  FractionCounter pq;     ///< names closed over their subtree root
  FractionCounter algol;  ///< embedded names closed over their R(file) scope
};

struct PolicyRun {
  Phase restart, renumber, partition, sweep;
  Survival survival;
  std::uint64_t routes_healed = 0;
  std::uint64_t dead_route_skips = 0;
  std::uint64_t handoffs_live = 0;
  std::uint64_t handoffs_forced = 0;
  std::uint64_t renames = 0;
  std::uint64_t forwarded = 0;
};

PolicyRun run_policy(const X9Fabric& fabric, const X9Scale& s,
                     CachePolicy policy) {
  auto cluster = ScenarioBuilder(fabric.graph)
                     .shards(kShards)
                     .service_time(kServiceTime)
                     .delegate_children_by_hash(fabric.root)
                     .delegate(fabric.root, 0)
                     .with_membership(s.membership)
                     .client_config(config_for(policy, s))
                     .client_label("x9")
                     .build();
  Simulator& sim = cluster->sim();
  MembershipDirectory& members = *cluster->membership();

  std::size_t flash_first = 0;
  const std::vector<ParallelQuery> queries =
      make_queries(fabric, s, &flash_first);

  // The stored references the survival table scores, captured pre-churn:
  // one fully-qualified pid per shard server (held by a probe process on
  // the client machine), and per subtree one fabric name plus one
  // Algol-scoped embedded name with their expected denotations.
  EndpointId probe =
      cluster->net().add_endpoint(cluster->client_machine(), "probe");
  struct FqRef {
    Pid pid;
    EndpointId target;
  };
  std::vector<FqRef> fq_refs;
  for (MachineId m : cluster->machines()) {
    auto server = cluster->service().server_on(m);
    NAMECOH_CHECK(server.is_ok(), "shard server missing");
    auto loc = cluster->net().location_of(server.value());
    NAMECOH_CHECK(loc.is_ok(), "shard server unlocated");
    fq_refs.push_back(FqRef{Pid::fully_qualified(loc.value()),
                            server.value()});
  }
  const CompoundName pq_name = CompoundName::relative("lib/api");
  EmbeddedNameResolver scopes(fabric.graph);

  PolicyRun run;

  // Phase 1 — rolling datacenter restart: every shard machine gracefully
  // leaves (live handoff), dwells down, rejoins (live handback), one at a
  // time, while the base load resolves. Zero lost lookups is the bar.
  RollingRestart restart(sim, members, cluster->machines(),
                         RollingRestartSpec{/*start=*/1000,
                                            s.restart_downtime,
                                            s.restart_gap});
  restart.start();
  run.restart = run_phase(*cluster, queries, s, flash_first, /*flash=*/false,
                          /*seed=*/11);
  sim.run_while([&] { return !restart.done(); });

  // Phase 2 — rolling renumber (§6): every shard machine renames, one per
  // interval, with the flash crowd concentrated on t0 — whose machine is
  // renamed out from under it mid-phase.
  RollingRenumber renumber(sim, members, cluster->machines(),
                           RollingRenumberSpec{sim.now() + 500,
                                               s.rename_interval,
                                               /*rounds=*/1});
  renumber.start();
  run.renumber = run_phase(*cluster, queries, s, flash_first, /*flash=*/true,
                           /*seed=*/13);
  sim.run_while([&] { return !renumber.done(); });

  // The survival table: the same references, scored after the fleet-wide
  // renumbering. Nothing re-captures — this is what *stored* closures are
  // still worth.
  for (const FqRef& ref : fq_refs) {
    auto got = cluster->transport().resolve_pid(probe, ref.pid);
    run.survival.fq.add(got.is_ok() && got.value() == ref.target);
  }
  for (std::size_t i = 0; i < kSubtrees; ++i) {
    auto pq = cluster->client().resolve(fabric.subtree_roots[i], pq_name);
    run.survival.pq.add(pq.is_ok() && pq.value() == fabric.lib_objects[i]);
    auto scope = scopes.find_scope(fabric.deep_dirs[i], pq_name);
    bool algol_ok = scope.is_ok();
    if (algol_ok) {
      auto resolved = cluster->client().resolve(scope.value(), pq_name);
      algol_ok = resolved.is_ok() && resolved.value() == fabric.lib_objects[i];
    }
    run.survival.algol.add(algol_ok);
  }

  // Phase 3 — long-lived partition: the client is cut off from one shard
  // machine for partition_length ticks mid-load; resolution through the
  // cut resumes on heal (retries outlast the window), nothing is torn
  // down, and no lookup is permanently lost.
  schedule_partition_window(*cluster->faults(), cluster->client_machine(),
                            cluster->machine(1), sim.now() + 1000,
                            sim.now() + 1000 + s.partition_length);
  run.partition = run_phase(*cluster, queries, s, flash_first,
                            /*flash=*/false, /*seed=*/17);

  // Final sweep: quiet fabric, every subtree probed once more.
  run.sweep = run_phase(*cluster, queries, s, flash_first, /*flash=*/false,
                        /*seed=*/19);

  const MetricsRegistry& metrics = cluster->metrics();
  run.routes_healed = metrics.counter_value("ns.member.routes_healed");
  run.dead_route_skips = metrics.counter_value("ns.member.dead_route_skips");
  run.handoffs_live = metrics.counter_value("ns.membership.handoffs_live");
  run.handoffs_forced = metrics.counter_value("ns.membership.handoffs_forced");
  run.renames = metrics.counter_value("ns.membership.renames");
  run.forwarded = metrics.counter_value("ns.server.forwarded");
  return run;
}

void run_experiment() {
  const X9Scale s = scale_params();
  bench::print_header(
      "X10 (extension): dynamic membership — renumbering survival by "
      "closure rule — " + bench::scale_flag() + " scale",
      "Shard machines restart, renumber and partition under a closed-loop\n"
      "load (docs/MEMBERSHIP.md). The same name set is then scored through\n"
      "three closure rules x three cache-coherence policies: raw addresses\n"
      "die with the renumbering; names closed over an enclosing scope\n"
      "survive it (the paper's §6 split, at fabric scale).");

  X9Fabric fabric(s);
  std::cout << "fabric: " << fabric.contexts << " contexts in " << kSubtrees
            << " subtrees on " << kShards << " shards, " << s.activities
            << " activities x " << s.phase_resolutions
            << " resolutions per phase\n\n";

  const CachePolicy policies[] = {CachePolicy::kTtlOnly,
                                  CachePolicy::kEpochPull,
                                  CachePolicy::kLeasePush};
  Table t({"policy", "FQ survival", "PQ survival", "Algol survival",
           "routes healed", "dead skips", "forwarded", "failed (all phases)"});
  std::vector<PolicyRun> runs;
  for (CachePolicy policy : policies) {
    PolicyRun run = run_policy(fabric, s, policy);
    const std::uint64_t failed = run.restart.failed + run.renumber.failed +
                                 run.partition.failed + run.sweep.failed;
    t.add_row({std::string(cache_policy_name(policy)),
               bench::frac(run.survival.fq.fraction()),
               bench::frac(run.survival.pq.fraction()),
               bench::frac(run.survival.algol.fraction()),
               std::to_string(run.routes_healed),
               std::to_string(run.dead_route_skips),
               std::to_string(run.forwarded), std::to_string(failed)});
    runs.push_back(run);
  }
  t.print(std::cout);

  // The acceptance bars. Every phase of every policy completes with zero
  // permanent resolution failures; the renumber pass demonstrably breaks
  // the fully-qualified closures while the scope-closed rules hold at 1.0;
  // and the FQ row is policy-independent — coherence protocols manage
  // *binding* staleness, not address staleness.
  for (const PolicyRun& run : runs) {
    NAMECOH_CHECK(run.restart.failed == 0,
                  "lookups lost during the rolling restart");
    NAMECOH_CHECK(run.renumber.failed == 0,
                  "lookups lost during the rolling renumber");
    NAMECOH_CHECK(run.partition.failed == 0,
                  "lookups lost across the partition window");
    NAMECOH_CHECK(run.sweep.failed == 0, "final sweep lost lookups");
    NAMECOH_CHECK(run.survival.fq.fraction() < 1.0,
                  "fully-qualified pids survived a fleet-wide renumbering");
    NAMECOH_CHECK(run.survival.pq.fraction() == 1.0,
                  "partially-qualified names broke under renumbering");
    NAMECOH_CHECK(run.survival.algol.fraction() == 1.0,
                  "Algol-scoped names broke under renumbering");
    NAMECOH_CHECK(run.renames >= kShards, "renumber pass did not run");
    NAMECOH_CHECK(run.handoffs_live > 0,
                  "rolling restart never handed a subtree off live");
    NAMECOH_CHECK(run.routes_healed > 0,
                  "no client route ever healed against the directory");
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    NAMECOH_CHECK(runs[i].survival.fq.fraction() ==
                      runs[0].survival.fq.fraction(),
                  "cache policy changed FQ survival — it must not");
  }
  std::cout << "(FQ survival " +
                   bench::frac(runs[0].survival.fq.fraction()) +
                   " under every cache policy; scope-closed names at 1.0 "
                   "with " +
                   std::to_string(runs[0].routes_healed +
                                  runs[1].routes_healed +
                                  runs[2].routes_healed) +
                   " routes healed in flight)\n"
            << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

/// Minimal membership world for the hot-path microbenches.
struct BenchWorld {
  NamingGraph graph;
  EntityId root;
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  AuthorityMap homes;
  NameService service{graph, net, transport, homes};
  MembershipDirectory members{graph, net, homes, service, sim};
  std::vector<MachineId> machines;

  BenchWorld() {
    root = graph.add_context_object("root");
    NetworkId lan = net.add_network("lan");
    for (std::size_t i = 0; i < 16; ++i) {
      MachineId m = net.add_machine(lan, "m" + std::to_string(i));
      machines.push_back(m);
      (void)homes.add_shard({m});
      NAMECOH_CHECK(
          members.announce(m, static_cast<ShardId>(i)).is_ok(), "announce");
    }
  }
};

void BM_IncarnationQuery(benchmark::State& state) {
  // The route-healing fast path: one directory lookup per send attempt.
  BenchWorld w;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.members.incarnation(w.machines[i++ % w.machines.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncarnationQuery);

void BM_RenameTombstoneLookup(benchmark::State& state) {
  // Healing a machine-less route: scan the open rename tombstones for the
  // old address. 16 machines renamed once each = 16 live tombstones.
  BenchWorld w;
  std::vector<Location> old_addresses;
  for (MachineId m : w.machines) {
    auto server = w.service.server_on(m);
    auto loc = w.net.location_of(server.value());
    old_addresses.push_back(loc.value());
    NAMECOH_CHECK(w.members.rename(m).is_ok(), "rename");
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.members.renamed_machine_at(
        old_addresses[i++ % old_addresses.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RenameTombstoneLookup);

void BM_RenameEvent(benchmark::State& state) {
  // One full renumbering event: renumber_machine + incarnation bump +
  // tombstone arm.
  BenchWorld w;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.members.rename(w.machines[i++ % w.machines.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RenameEvent);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
