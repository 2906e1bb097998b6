// Online rebalancing tests (docs/REBALANCING.md): MigrationDriver phase
// machine (copy, catch-up of racing rebinds, cutover, forwarding window,
// abort on an unreachable target), forwarding-tombstone semantics on the
// old owner, same-seed determinism of a full migration under closed-loop
// load, the RebalancePlanner's load/dominance logic, and ring-change
// planning (delegate_children_by_hash idempotence + plan_ring_change).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph_ops.hpp"
#include "ns/name_service.hpp"
#include "ns/rebalance.hpp"
#include "ns/shard_ring.hpp"
#include "sim/faults.hpp"
#include "workload/parallel.hpp"

namespace namecoh {
namespace {

// --- MigrationDriver over a live service --------------------------------------

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : transport_(sim_, net_), faults_(sim_),
        service_(graph_, net_, transport_, homes_),
        driver_(graph_, homes_, service_, sim_) {
    transport_.attach_faults(&faults_);
    NetworkId lan = net_.add_network("lan");
    ma_ = net_.add_machine(lan, "ma");
    mb_ = net_.add_machine(lan, "mb");
    mc_ = net_.add_machine(lan, "mc");
    mclient_ = net_.add_machine(lan, "mclient");
    root_ = graph_.add_context_object("root");
    tree_ = build_context_tree(graph_, root_, /*fanout=*/2, /*depth=*/3);
    s0_ = homes_.add_shard({ma_});
    s1_ = homes_.add_shard({mb_});
    s2_ = homes_.add_shard({mc_});
    // x_ = root's first child; its subtree (1 + 2 + 4 = 7 contexts) lives
    // on s1. s2 starts empty — the migration target.
    x_ = tree_.levels[1][0];
    EXPECT_TRUE(homes_.install_delegation(graph_, x_, s1_).is_ok());
    EXPECT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
    leaf_ = graph_.add_data_object("leaf");
    EXPECT_TRUE(graph_.bind(x_, Name("f"), leaf_).is_ok());
    service_.add_server(ma_);
    service_.add_server(mb_);
    service_.add_server(mc_);
    service_.add_server(mclient_);
  }

  [[nodiscard]] std::uint64_t server_counter(const std::string& what) const {
    return transport_.metrics().counter_value("ns.server." + what);
  }

  /// Options small enough that every phase is observable in a short run.
  static MigrationOptions fast_options() {
    MigrationOptions opts;
    opts.copy_batch = 2;
    opts.copy_interval = 10;
    opts.settle_delay = 50;
    opts.forward_window = 2000;
    return opts;
  }

  NamingGraph graph_;
  Internetwork net_;
  Simulator sim_;
  Transport transport_;
  FaultInjector faults_;
  AuthorityMap homes_;
  NameService service_;
  MigrationDriver driver_;
  MachineId ma_, mb_, mc_, mclient_;
  EntityId root_, x_, leaf_;
  TreeBuildResult tree_;
  ShardId s0_, s1_, s2_;
};

TEST_F(MigrationTest, CopiesCatchesUpAndCutsOver) {
  // A rebind lands on x_ *after* the first copy round has snapshotted it,
  // so the catch-up phase must detect the divergence and re-push.
  const EntityId extra = graph_.add_data_object("extra");
  sim_.schedule_at(15, [&] {
    ASSERT_TRUE(graph_.bind(x_, Name("zz"), extra).is_ok());
  });

  ASSERT_TRUE(driver_.start(x_, s2_, fast_options()).is_ok());
  EXPECT_EQ(driver_.phase(), MigrationPhase::kCopy);
  const MigrationReport& report = driver_.run_to_completion();

  EXPECT_EQ(report.phase, MigrationPhase::kDone);
  EXPECT_EQ(report.from, s1_);
  EXPECT_EQ(report.to, s2_);
  EXPECT_EQ(report.contexts, 7u);
  EXPECT_EQ(report.moved, 7u);
  EXPECT_GE(report.catchup_rounds, 1u);
  // 7 initial copies plus at least the re-push of the raced context.
  EXPECT_GE(report.snapshots_pushed, 8u);
  EXPECT_TRUE(report.error.empty());

  // The whole subtree now answers from s2, at the rebound epoch.
  for (const EntityId ctx : homes_.shard_subtree(graph_, x_)) {
    EXPECT_EQ(homes_.shard_of(ctx), s2_);
  }
  ASSERT_TRUE(service_.replica_epoch(mc_, x_).has_value());
  EXPECT_GE(*service_.replica_epoch(mc_, x_), graph_.rebind_epoch(x_));

  // Resolution through the migrated subtree works end to end: the root's
  // referral now points straight at the new owner.
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c");
  Result<EntityId> hit = client.resolve(root_, CompoundName::relative("c0/f"));
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), leaf_);
  Result<EntityId> zz = client.resolve(root_, CompoundName::relative("c0/zz"));
  ASSERT_TRUE(zz.is_ok());
  EXPECT_EQ(zz.value(), extra);
}

TEST_F(MigrationTest, StartValidatesItsArguments) {
  // Unknown target shard, unowned root, and a no-op move are all refused
  // without touching the map.
  EXPECT_FALSE(driver_.start(x_, ShardId{99}).is_ok());
  EXPECT_FALSE(driver_.start(leaf_, s2_).is_ok());
  EXPECT_FALSE(driver_.start(x_, s1_).is_ok());
  EXPECT_EQ(driver_.phase(), MigrationPhase::kIdle);
  EXPECT_EQ(homes_.shard_of(x_), s1_);

  // And a second start while one is active is refused too.
  ASSERT_TRUE(driver_.start(x_, s2_, fast_options()).is_ok());
  EXPECT_FALSE(driver_.start(x_, s2_, fast_options()).is_ok());
  driver_.run_to_completion();
}

TEST_F(MigrationTest, ForwardingWindowRefersStaleClients) {
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c", cfg);

  // First resolve teaches the client glue: x_ lives on s1, reachable at
  // mb. That route goes stale the moment the cutover lands.
  Result<EntityId> warm =
      client.resolve(root_, CompoundName::relative("c0/f"));
  ASSERT_TRUE(warm.is_ok());

  MigrationOptions opts = fast_options();
  opts.forward_window = 5000;
  ASSERT_TRUE(driver_.start(x_, s2_, opts).is_ok());
  // Drive only to the cutover: active() drops when kForwarding begins.
  sim_.run_while([&] { return driver_.active(); });
  ASSERT_EQ(driver_.phase(), MigrationPhase::kForwarding);
  EXPECT_GT(service_.forwarding_count(mb_), 0u);

  // A lookup starting *at* x_ reuses the stale learned route, lands on the
  // old owner, and gets a forwarding referral (tombstone hit) pointing at
  // the new one — the lookup still succeeds.
  EXPECT_EQ(server_counter("forwarded"), 0u);
  Result<EntityId> stale = client.resolve(x_, CompoundName::relative("f"));
  ASSERT_TRUE(stale.is_ok());
  EXPECT_EQ(stale.value(), leaf_);
  EXPECT_EQ(server_counter("forwarded"), 1u);
  EXPECT_GE(transport_.metrics().counter_value("ns.shard.route_reuses"), 1u);

  // The referral's glue healed the client: the next lookup goes straight
  // to s2 and the old owner is never bothered again.
  Result<EntityId> healed = client.resolve(x_, CompoundName::relative("f"));
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(healed.value(), leaf_);
  EXPECT_EQ(server_counter("forwarded"), 1u);

  driver_.run_to_completion();
  EXPECT_EQ(driver_.phase(), MigrationPhase::kDone);
}

TEST_F(MigrationTest, ForwardingWindowExpires) {
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c", cfg);
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("c0/f")).is_ok());

  MigrationOptions opts = fast_options();
  opts.forward_window = 1000;
  ASSERT_TRUE(driver_.start(x_, s2_, opts).is_ok());
  const MigrationReport& report = driver_.run_to_completion();
  ASSERT_EQ(report.phase, MigrationPhase::kDone);

  // run_to_completion drove past the window: the tombstones are gone.
  EXPECT_EQ(service_.forwarding_count(mb_), 0u);

  // The stale-routed lookup still lands on the old owner, but now gets a
  // plain referral (no forwarded bump) — correctness never depended on
  // the tombstone, only the "this was just migrated" signal did.
  const std::uint64_t forwarded_before = server_counter("forwarded");
  Result<EntityId> late = client.resolve(x_, CompoundName::relative("f"));
  ASSERT_TRUE(late.is_ok());
  EXPECT_EQ(late.value(), leaf_);
  EXPECT_EQ(server_counter("forwarded"), forwarded_before);
}

TEST_F(MigrationTest, OverlappingCutoversForwardUntilTheLaterExpiry) {
  // Two clients learn the route to x_ on s1 (mb) before the cutover; each
  // later hits mb once through that stale route.
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  ResolverClient early(graph_, net_, transport_, sim_, service_, mclient_,
                       "early", cfg);
  ResolverClient late(graph_, net_, transport_, sim_, service_, mclient_,
                      "late", cfg);
  ASSERT_TRUE(early.resolve(root_, CompoundName::relative("c0/f")).is_ok());
  ASSERT_TRUE(late.resolve(root_, CompoundName::relative("c0/f")).is_ok());

  // Two cutovers off mb whose context lists overlap in x_ and its first
  // child: the first window closes at t+1000, the second at t+3000.
  const std::vector<EntityId> subtree = homes_.shard_subtree(graph_, x_);
  ASSERT_EQ(subtree.size(), 7u);
  ASSERT_TRUE(homes_.migrate_subtree(graph_, x_, s2_).is_ok());
  const std::vector<EntityId> second{subtree[1], subtree[0]};
  const SimTime t = sim_.now();
  service_.install_forwarding(s1_, subtree, t + 1000);
  service_.install_forwarding(s1_, second, t + 3000);
  // Each context counts once, however many windows hold it.
  EXPECT_EQ(service_.forwarding_count(mb_), 7u);

  // Past the first expiry only the second window's contexts remain, and a
  // stale request for x_ is still forwarded.
  sim_.run_until(t + 1500);
  EXPECT_EQ(service_.forwarding_count(mb_), 2u);
  const std::uint64_t forwarded_before = server_counter("forwarded");
  Result<EntityId> hit = early.resolve(x_, CompoundName::relative("f"));
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), leaf_);
  EXPECT_EQ(server_counter("forwarded"), forwarded_before + 1);

  // Past the later expiry nothing is forwarded any more.
  sim_.run_until(t + 3500);
  EXPECT_EQ(service_.forwarding_count(mb_), 0u);
  Result<EntityId> miss = late.resolve(x_, CompoundName::relative("f"));
  ASSERT_TRUE(miss.is_ok());
  EXPECT_EQ(miss.value(), leaf_);
  EXPECT_EQ(server_counter("forwarded"), forwarded_before + 1);
}

TEST_F(MigrationTest, IntakeListsMergeAndCloseClearsThem) {
  // mc is no replica of s1's subtree, so it applies a pushed snapshot
  // only while an intake lists that context.
  const std::vector<EntityId> subtree = homes_.shard_subtree(graph_, x_);
  ASSERT_EQ(subtree.size(), 7u);
  service_.open_migration_intake(mc_, {subtree[2], subtree[0]});
  service_.open_migration_intake(mc_, {subtree[1], subtree[0]});
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service_.push_snapshot(subtree[i], mc_));
  }
  sim_.run();
  // Both opens count; subtree[3] was never listed.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(service_.replica_epoch(mc_, subtree[i]).has_value()) << i;
  }
  EXPECT_FALSE(service_.replica_epoch(mc_, subtree[3]).has_value());

  // After the close, even a context both opens listed is a stray.
  service_.close_migration_intake(mc_);
  ASSERT_TRUE(graph_.bind(x_, Name("late"), leaf_).is_ok());
  const std::uint64_t stored = *service_.replica_epoch(mc_, x_);
  ASSERT_TRUE(service_.push_snapshot(x_, mc_));
  sim_.run();
  EXPECT_EQ(service_.replica_epoch(mc_, x_), stored);
}

TEST_F(MigrationTest, AbortsCleanlyOnPartitionedTarget) {
  // Snapshots originate at the subtree's primary (mb). With mb -> mc cut,
  // no copy ever lands and the driver must give up after its catch-up
  // budget — leaving the map exactly as it was.
  faults_.partition_one_way(mb_.value(), mc_.value());

  MigrationOptions opts = fast_options();
  opts.copy_batch = 4;
  opts.settle_delay = 20;
  opts.max_catchup_rounds = 2;
  ASSERT_TRUE(driver_.start(x_, s2_, opts).is_ok());
  const MigrationReport& report = driver_.run_to_completion();

  EXPECT_EQ(report.phase, MigrationPhase::kAborted);
  EXPECT_FALSE(report.error.empty());
  EXPECT_NE(report.error.find("catch-up"), std::string::npos);
  EXPECT_EQ(report.cutover_at, 0u);
  EXPECT_EQ(report.moved, 0u);

  // Ownership untouched, no forwarding installed anywhere.
  for (const EntityId ctx : homes_.shard_subtree(graph_, x_)) {
    EXPECT_EQ(homes_.shard_of(ctx), s1_);
  }
  EXPECT_EQ(service_.forwarding_count(mb_), 0u);
  EXPECT_EQ(service_.forwarding_count(mc_), 0u);

  // The namespace keeps resolving through the old owner as if the
  // migration had never been attempted.
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c");
  Result<EntityId> hit = client.resolve(root_, CompoundName::relative("c0/f"));
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), leaf_);
}

// --- Same-seed determinism under closed-loop load -----------------------------

struct MigrationRunDigest {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t snapshots_pushed = 0;
  std::uint64_t catchup_rounds = 0;
  std::uint64_t cutover_at = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t route_reuses = 0;
  SimTime finished = 0;

  bool operator==(const MigrationRunDigest&) const = default;
};

MigrationRunDigest run_migration_under_load(std::uint64_t seed) {
  NamingGraph graph;
  Internetwork net;
  Simulator sim;
  Transport transport(sim, net);
  AuthorityMap homes;
  NameService service(graph, net, transport, homes);

  NetworkId lan = net.add_network("lan");
  MachineId ma = net.add_machine(lan, "ma");
  MachineId mb = net.add_machine(lan, "mb");
  MachineId mc = net.add_machine(lan, "mc");
  MachineId mclient = net.add_machine(lan, "mclient");
  EntityId root = graph.add_context_object("root");
  TreeBuildResult tree = build_context_tree(graph, root, 2, 3);
  ShardId s0 = homes.add_shard({ma});
  ShardId s1 = homes.add_shard({mb});
  ShardId s2 = homes.add_shard({mc});
  (void)s0;
  EntityId x = tree.levels[1][0];
  EXPECT_TRUE(homes.install_delegation(graph, x, s1).is_ok());
  EXPECT_TRUE(homes.install_delegation(graph, root, ShardId{0}).is_ok());
  EntityId leaf = graph.add_data_object("leaf");
  EXPECT_TRUE(graph.bind(x, Name("f"), leaf).is_ok());
  service.add_server(ma);
  service.add_server(mb);
  service.add_server(mc);
  service.add_server(mclient);
  service.set_service_time(5);

  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  cfg.retry.request_timeout = 100000;
  ResolverClient client(graph, net, transport, sim, service, mclient, "c",
                        cfg);

  MigrationDriver driver(graph, homes, service, sim);
  MigrationOptions opts;
  opts.copy_batch = 2;
  opts.copy_interval = 10;
  opts.settle_delay = 50;
  opts.forward_window = 1500;
  sim.schedule_at(50, [&] {
    EXPECT_TRUE(driver.start(x, s2, opts).is_ok());
  });

  std::vector<ParallelQuery> queries = {
      {root, CompoundName::relative("c0/f")},
      {x, CompoundName::relative("f")},
      {root, CompoundName::relative("c1/c0")},
  };
  ParallelSpec spec;
  spec.activities = 8;
  spec.total_resolutions = 300;
  spec.seed = seed;
  spec.zipf_s = 0.9;
  ParallelOutcome outcome = run_parallel(sim, client, queries, spec);
  const MigrationReport& report = driver.run_to_completion();
  EXPECT_EQ(report.phase, MigrationPhase::kDone);

  MigrationRunDigest digest;
  digest.ok = outcome.ok;
  digest.failed = outcome.failed;
  digest.snapshots_pushed = report.snapshots_pushed;
  digest.catchup_rounds = report.catchup_rounds;
  digest.cutover_at = report.cutover_at;
  digest.forwarded =
      transport.metrics().counter_value("ns.server.forwarded");
  digest.route_reuses =
      transport.metrics().counter_value("ns.shard.route_reuses");
  digest.finished = outcome.finished;
  return digest;
}

TEST(MigrationDeterminismTest, SameSeedSameMigration) {
  const MigrationRunDigest first = run_migration_under_load(42);
  const MigrationRunDigest second = run_migration_under_load(42);
  EXPECT_EQ(first, second);
  // And the migration never failed a lookup: closed-loop traffic rode
  // straight through copy, cutover and the forwarding window.
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.ok, 300u);
  EXPECT_GT(first.cutover_at, 50u);
}

// --- RebalancePlanner ---------------------------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    NetworkId lan = net_.add_network("lan");
    ma_ = net_.add_machine(lan, "ma");
    mb_ = net_.add_machine(lan, "mb");
    root_ = graph_.add_context_object("root");
    tree_ = build_context_tree(graph_, root_, /*fanout=*/2, /*depth=*/2);
    s0_ = homes_.add_shard({ma_});
    s1_ = homes_.add_shard({mb_});
    EXPECT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
    a_ = tree_.levels[1][0];
    b_ = tree_.levels[1][1];
  }

  void load(MachineId m, std::uint64_t served, std::uint64_t wait_ticks) {
    const std::string prefix = "ns.server.m" + std::to_string(m.value());
    metrics_.counter(prefix + ".served").inc(served);
    metrics_.counter(prefix + ".wait_ticks").inc(wait_ticks);
  }

  void hits(EntityId root, std::uint64_t n) {
    metrics_
        .counter("ns.server.subtree." + std::to_string(root.value()) +
                 ".hits")
        .inc(n);
  }

  NamingGraph graph_;
  Internetwork net_;
  AuthorityMap homes_;
  MetricsRegistry metrics_;
  MachineId ma_, mb_;
  EntityId root_, a_, b_;
  TreeBuildResult tree_;
  ShardId s0_, s1_;
};

TEST_F(PlannerTest, ProposesSplittingHottestSubtreeOffDominatingShard) {
  load(ma_, 200, 10000);  // mean wait 50: queueing hard
  load(mb_, 200, 400);    // mean wait 2: comfortably idle
  hits(a_, 30);
  hits(b_, 170);  // b_ is the hotter candidate

  RebalancePlanner planner(homes_, metrics_);
  const std::vector<ShardLoad> loads = planner.shard_loads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0].mean_wait, 50.0);
  EXPECT_DOUBLE_EQ(loads[1].mean_wait, 2.0);

  const std::vector<EntityId> candidates = {a_, b_};
  RebalancePlan plan = planner.propose(candidates);
  EXPECT_TRUE(plan.rebalance);
  EXPECT_EQ(plan.subtree, b_);
  EXPECT_EQ(plan.from, s0_);
  EXPECT_EQ(plan.to, s1_);
  EXPECT_FALSE(plan.reason.empty());
}

TEST_F(PlannerTest, NoPlanWithoutDominance) {
  // Both shards queue about equally: nothing dominates, nothing moves.
  load(ma_, 200, 4000);
  load(mb_, 200, 3600);
  hits(a_, 100);
  RebalancePlanner planner(homes_, metrics_);
  const std::vector<EntityId> candidates = {a_, b_};
  RebalancePlan plan = planner.propose(candidates);
  EXPECT_FALSE(plan.rebalance);
  EXPECT_FALSE(plan.reason.empty());
}

TEST_F(PlannerTest, NoPlanBelowTrafficFloor) {
  // Huge mean wait but almost no requests: noise, not load.
  load(ma_, 4, 4000);
  load(mb_, 4, 8);
  hits(a_, 2);
  RebalancePlanner planner(homes_, metrics_);
  const std::vector<EntityId> candidates = {a_, b_};
  EXPECT_FALSE(planner.propose(candidates).rebalance);
}

TEST_F(PlannerTest, NoPlanWhenNoCandidateLivesOnTheHotShard) {
  load(ma_, 200, 10000);
  load(mb_, 200, 400);
  // Candidates exist but none recorded any hits — nothing to pick.
  RebalancePlanner planner(homes_, metrics_);
  const std::vector<EntityId> candidates = {a_, b_};
  RebalancePlan plan = planner.propose(candidates);
  EXPECT_FALSE(plan.rebalance);
  EXPECT_FALSE(plan.reason.empty());
}

// --- Ring changes: idempotent re-placement + migration plans ------------------

class RingChangeTest : public ::testing::Test {
 protected:
  RingChangeTest() {
    NetworkId lan = net_.add_network("lan");
    ma_ = net_.add_machine(lan, "ma");
    mb_ = net_.add_machine(lan, "mb");
    mc_ = net_.add_machine(lan, "mc");
    root_ = graph_.add_context_object("root");
    tree_ = build_context_tree(graph_, root_, /*fanout=*/32, /*depth=*/1);
    s0_ = homes_.add_shard({ma_});
    s1_ = homes_.add_shard({mb_});
    s2_ = homes_.add_shard({mc_});
  }

  NamingGraph graph_;
  Internetwork net_;
  AuthorityMap homes_;
  MachineId ma_, mb_, mc_;
  EntityId root_;
  TreeBuildResult tree_;
  ShardId s0_, s1_, s2_;
};

TEST_F(RingChangeTest, RerunAfterRingGrowthReportsMovesWithoutReclaiming) {
  ShardRing ring;
  ring.add_shard(s0_);
  ring.add_shard(s1_);
  ASSERT_TRUE(homes_.delegate_children_by_hash(graph_, root_, ring).is_ok());

  std::unordered_map<std::uint64_t, ShardId> before;
  for (const EntityId child : tree_.levels[1]) {
    before[child.value()] = homes_.shard_of(child);
  }

  // Re-running against the *same* ring is a pure no-op.
  std::vector<EntityId> moved;
  ASSERT_TRUE(
      homes_.delegate_children_by_hash(graph_, root_, ring, &moved).is_ok());
  EXPECT_TRUE(moved.empty());

  // Grow the ring: some children's ring placement changes. The re-run must
  // report them as moved and leave their current ownership alone — no
  // silent re-claiming.
  ring.add_shard(s2_);
  moved.clear();
  ASSERT_TRUE(
      homes_.delegate_children_by_hash(graph_, root_, ring, &moved).is_ok());
  std::size_t expected_moves = 0;
  for (const EntityId child : tree_.levels[1]) {
    EXPECT_EQ(homes_.shard_of(child), before[child.value()]);
    if (ring.shard_for(child) != before[child.value()]) ++expected_moves;
  }
  EXPECT_EQ(moved.size(), expected_moves);
  ASSERT_GT(expected_moves, 0u)
      << "ring growth moved nothing; pick a different fanout";

  // plan_ring_change turns exactly that delta into migration steps.
  std::vector<MigrationStep> steps =
      plan_ring_change(graph_, homes_, root_, ring);
  ASSERT_EQ(steps.size(), expected_moves);
  for (const MigrationStep& step : steps) {
    EXPECT_EQ(step.from, before[step.root.value()]);
    EXPECT_EQ(step.to, ring.shard_for(step.root));
    EXPECT_NE(step.from, step.to);
    // Applying the step settles it; the map now matches the ring here.
    ASSERT_TRUE(homes_.migrate_subtree(graph_, step.root, step.to).is_ok());
    EXPECT_EQ(homes_.shard_of(step.root), step.to);
  }

  // With every step applied, both the re-run and the planner agree the map
  // is converged.
  moved.clear();
  ASSERT_TRUE(
      homes_.delegate_children_by_hash(graph_, root_, ring, &moved).is_ok());
  EXPECT_TRUE(moved.empty());
  EXPECT_TRUE(plan_ring_change(graph_, homes_, root_, ring).empty());
}

TEST_F(RingChangeTest, RemoveShardRemapsOnlyItsSlice) {
  ShardRing ring;
  ring.add_shard(s0_);
  ring.add_shard(s1_);
  ring.add_shard(s2_);
  ASSERT_EQ(ring.shard_count(), 3u);

  std::unordered_map<std::uint64_t, ShardId> before;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    before[v] = ring.shard_for(EntityId{v});
  }

  ring.remove_shard(s1_);
  EXPECT_EQ(ring.shard_count(), 2u);
  std::size_t remapped = 0;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const ShardId now = ring.shard_for(EntityId{v});
    EXPECT_NE(now, s1_);
    if (before[v] == s1_) {
      ++remapped;
    } else {
      // Keys that weren't on the removed shard must not move at all.
      EXPECT_EQ(now, before[v]);
    }
  }
  EXPECT_GT(remapped, 0u);

  // Removing a shard that was never added is a no-op.
  ring.remove_shard(ShardId{7});
  EXPECT_EQ(ring.shard_count(), 2u);
}

}  // namespace
}  // namespace namecoh
