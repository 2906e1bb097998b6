// Replication and fault-injection tests: AuthorityMap replica sets,
// epoch-stamped update propagation to secondaries, client failover with
// per-replica health, deterministic fault schedules, and the interaction
// between stale secondary answers and the client's epoch-invalidated
// cache (docs/REPLICATION.md).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fs/file_system.hpp"
#include "ns/name_service.hpp"
#include "sim/faults.hpp"

namespace namecoh {
namespace {

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest()
      : fs_(graph_), transport_(sim_, net_), faults_(sim_),
        service_(graph_, net_, transport_, homes_) {
    transport_.attach_faults(&faults_);
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    m3_ = net_.add_machine(lan, "m3");
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(shared_, "proj/readme", "v1").is_ok());
    ASSERT_TRUE(fs_.create_file_at(shared_, "proj/other", "other").is_ok());
    ASSERT_TRUE(fs_.attach(root_, Name("shared"), shared_).is_ok());
    // The shared tree is replicated: primary m2, secondary m3. The local
    // tree is a one-machine shard.
    ASSERT_TRUE(
        homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_, m3_}))
            .is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, root_, homes_.add_shard({m1_}))
            .is_ok());
    server1_ = service_.add_server(m1_);
    server2_ = service_.add_server(m2_);
    server3_ = service_.add_server(m3_);
    Context ctx = FileSystem::make_process_context(root_, root_);
    proj_ = fs_.resolve_path(ctx, "/shared/proj").entity;
    readme_ = fs_.resolve_path(ctx, "/shared/proj/readme").entity;
    ASSERT_TRUE(proj_.valid());
    ASSERT_TRUE(readme_.valid());
  }

  /// Push every replicated context's snapshot and let it deliver.
  void sync_replicas() {
    for (EntityId ctx : service_.authorities().replicated_contexts()) {
      service_.publish_update(ctx);
    }
    sim_.run();
  }

  /// Short timeouts so crashed-replica budgets exhaust quickly.
  static ResolverClientConfig fast_config() {
    ResolverClientConfig config;
    config.retry.request_timeout = 200;
    config.retry.retries = 1;
    config.retry.backoff_multiplier = 2.0;
    return config;
  }

  /// Rebind proj/readme on the primary's graph; bumps proj's rebind epoch.
  EntityId rebind_readme(const char* contents) {
    EXPECT_TRUE(fs_.unlink(proj_, Name("readme")).is_ok());
    auto created = fs_.create_file(proj_, Name("readme"), contents);
    EXPECT_TRUE(created.is_ok());
    return created.value();
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  FaultInjector faults_;
  AuthorityMap homes_;
  NameService service_;
  MachineId m1_, m2_, m3_;
  EntityId root_, shared_, proj_, readme_;
  EndpointId server1_, server2_, server3_;
};

// --- AuthorityMap: replica sets --------------------------------------------

TEST_F(FailoverTest, AuthorityMapTracksOrderedReplicaSets) {
  // A one-machine shard is a one-machine replica set.
  ASSERT_EQ(homes_.replicas_of(root_).size(), 1u);
  EXPECT_EQ(homes_.replicas_of(root_).front(), m1_);
  EXPECT_TRUE(homes_.is_primary(root_, m1_));
  EXPECT_FALSE(homes_.is_replica(root_, m2_));

  // The replicated subtree walk claimed both shared/ and shared/proj.
  ASSERT_EQ(homes_.replicas_of(shared_).size(), 2u);
  EXPECT_EQ(homes_.replicas_of(shared_).front(), m2_);  // primary = first
  EXPECT_TRUE(homes_.is_primary(shared_, m2_));
  EXPECT_TRUE(homes_.is_replica(shared_, m3_));
  EXPECT_FALSE(homes_.is_primary(shared_, m3_));
  EXPECT_FALSE(homes_.is_replica(shared_, m1_));
  ASSERT_EQ(homes_.replicas_of(proj_).size(), 2u);

  // replicated_contexts lists exactly the multi-machine sets.
  auto replicated = homes_.replicated_contexts();
  EXPECT_EQ(replicated.size(), 2u);  // shared_ and proj_
  for (EntityId ctx : replicated) {
    EXPECT_TRUE(ctx == shared_ || ctx == proj_);
  }
}

// --- Update propagation ----------------------------------------------------

TEST_F(FailoverTest, PublishUpdateSyncsSecondariesAtCurrentEpoch) {
  EXPECT_FALSE(service_.replica_epoch(m3_, proj_).has_value());
  sync_replicas();
  auto applied = service_.replica_epoch(m3_, proj_);
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(*applied, graph_.rebind_epoch(proj_));
  // The primary never stores snapshots of itself.
  EXPECT_FALSE(service_.replica_epoch(m2_, proj_).has_value());
  StatsSnapshot stats = service_.snapshot();
  EXPECT_EQ(stats["update_pushes"], 2u);    // shared_ and proj_, one secondary
  EXPECT_EQ(stats["updates_applied"], 2u);
  EXPECT_EQ(stats["updates_stale"], 0u);
}

TEST_F(FailoverTest, RepushedSnapshotAtSameEpochIsSuppressedAtThePrimary) {
  sync_replicas();
  const auto epoch_before = service_.replica_epoch(m3_, proj_);
  sync_replicas();  // same epochs again: the epoch gate pushes nothing
  StatsSnapshot stats = service_.snapshot();
  EXPECT_EQ(stats["update_pushes"], 2u);       // only the first round's
  EXPECT_EQ(stats["pushes_suppressed"], 2u);   // second round: both gated
  EXPECT_EQ(stats["updates_applied"], 2u);
  EXPECT_EQ(stats["updates_stale"], 0u);       // nothing even arrived
  EXPECT_EQ(service_.replica_epoch(m3_, proj_), epoch_before);
}

TEST_F(FailoverTest, AntiEntropyCatchesLaggingSecondaryUp) {
  sync_replicas();
  // Partition primary → secondary: the direct publish after the rebind is
  // lost, so the secondary lags at the old epoch.
  faults_.partition_one_way(m2_.value(), m3_.value());
  rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();
  const std::uint64_t new_epoch = graph_.rebind_epoch(proj_);
  ASSERT_LT(*service_.replica_epoch(m3_, proj_), new_epoch);

  // Heal and let anti-entropy republish on its own clock: the lag is
  // bounded by the repair interval, not by the lost message.
  faults_.heal_one_way(m2_.value(), m3_.value());
  service_.start_anti_entropy(1000);
  sim_.run_until(sim_.now() + 3000);
  service_.stop_anti_entropy();
  EXPECT_EQ(*service_.replica_epoch(m3_, proj_), new_epoch);
}

// --- Client failover -------------------------------------------------------

TEST_F(FailoverTest, CrashedPrimaryDuringReferralChaseFailsOverToSecondary) {
  sync_replicas();
  faults_.crash(m2_.value());
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        fast_config());
  // m1 refers the chase to shared's primary m2 (crashed); the client must
  // exhaust m2's backoff budget, fail over to m3, and complete from its
  // replica store.
  auto result = client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result.value(), readme_);
  StatsSnapshot stats = client.snapshot();
  EXPECT_GE(stats["failovers"], 1u);
  EXPECT_GE(stats["timeouts"], 2u);  // both attempts at m2 timed out
  EXPECT_EQ(stats["failures"], 0u);
  EXPECT_GE(service_.snapshot()["store_answers"], 1u);
  EXPECT_GT(transport_.metrics().counter_value("transport.fault.crash_drops"),
            0u);
}

TEST_F(FailoverTest, QuarantinedReplicaIsNotRetriedOnTheNextResolution) {
  sync_replicas();
  faults_.crash(m2_.value());
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        fast_config());
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/readme"))
          .is_ok());
  const std::uint64_t timeouts_after_first = client.snapshot()["timeouts"];
  ASSERT_GE(timeouts_after_first, 2u);
  // m2 is now quarantined: the next resolution must go straight to the
  // live secondary without burning another timeout budget on the corpse.
  auto second =
      client.resolve(root_, CompoundName::relative("shared/proj/other"));
  ASSERT_TRUE(second.is_ok()) << second.status();
  EXPECT_EQ(client.snapshot()["timeouts"], timeouts_after_first);
  EXPECT_EQ(client.snapshot()["failovers"], 1u);  // no new failover either
}

TEST_F(FailoverTest, FailoverLatencyHistogramRecordsFailedOverHops) {
  sync_replicas();
  faults_.crash(m2_.value());
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        fast_config());
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/readme"))
          .is_ok());
  const std::string name = "ns.client." +
                           std::to_string(client.endpoint().value()) +
                           ".failover_latency";
  auto it = transport_.metrics().histograms().find(name);
  ASSERT_NE(it, transport_.metrics().histograms().end());
  EXPECT_EQ(it->second.total(), 1u);
  // The failed-over hop paid at least m2's full budget: 200 + 400 ticks.
  EXPECT_GE(it->second.observed_max(), 600.0);
}

// --- Staleness: the §5 weak-coherence window -------------------------------

TEST_F(FailoverTest, SecondaryServesStaleAnswerThenCatchesUp) {
  sync_replicas();
  const std::uint64_t old_epoch = *service_.replica_epoch(m3_, proj_);

  // Rebind on the primary; the secondary has NOT been told yet.
  EntityId new_readme = rebind_readme("v2");
  const std::uint64_t new_epoch = graph_.rebind_epoch(proj_);
  ASSERT_GT(new_epoch, old_epoch);

  faults_.crash(m2_.value());
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        fast_config());
  auto stale =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(stale.is_ok()) << stale.status();
  // The stale answer is the old entity, and its staleness is exactly the
  // epoch gap the injected fault created — never older than the last
  // applied snapshot.
  EXPECT_EQ(stale.value(), readme_);
  EXPECT_NE(stale.value(), new_readme);
  EXPECT_EQ(*service_.replica_epoch(m3_, proj_), old_epoch);

  // Restart the primary, propagate, and the same question now gets the
  // rebound answer — from either replica.
  faults_.restart(m2_.value());
  sync_replicas();
  EXPECT_EQ(*service_.replica_epoch(m3_, proj_), new_epoch);
  auto fresh =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value(), new_readme);
}

TEST_F(FailoverTest, PartitionHealsThenStaleCacheEntryIsInvalidated) {
  sync_replicas();
  ResolverClientConfig config = fast_config();
  config.cache_ttl = 1'000'000;  // far beyond the test's horizon
  config.epoch_invalidation = true;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);

  // Cut update propagation, rebind, and publish into the partition: the
  // secondary keeps serving the old epoch.
  faults_.partition_one_way(m2_.value(), m3_.value());
  EntityId new_readme = rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();

  // With the primary down, the client caches the secondary's stale answer
  // (stamped with the old epoch).
  faults_.crash(m2_.value());
  auto stale =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(stale.is_ok()) << stale.status();
  ASSERT_EQ(stale.value(), readme_);

  // Heal everything and let the secondary catch up.
  faults_.restart(m2_.value());
  faults_.heal_one_way(m2_.value(), m3_.value());
  sync_replicas();

  // A different lookup through the same authority returns the new epoch;
  // the cached stale entry is superseded and must die on its next probe.
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/other"))
          .is_ok());
  auto fresh =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value(), new_readme);
  EXPECT_GE(client.snapshot()["stale_epoch_drops"], 1u);
}

// --- Fault-injection determinism -------------------------------------------

/// One full faulted run, compressed to a comparable signature: every trace
/// event plus the fault counters.
std::vector<std::tuple<SimTime, int, std::uint64_t, std::uint64_t>>
faulted_run_signature() {
  NamingGraph graph;
  FileSystem fs(graph);
  Simulator sim;
  Internetwork net;
  TransportConfig tcfg;
  tcfg.drop_probability = 0.05;  // seeded transport rng: deterministic too
  Transport transport(sim, net, tcfg, /*seed=*/7);
  FaultInjector faults(sim);
  transport.attach_faults(&faults);
  transport.tracer().set_enabled(true);
  transport.tracer().set_capacity(65536);

  NetworkId lan = net.add_network("lan");
  MachineId m1 = net.add_machine(lan, "m1");
  MachineId m2 = net.add_machine(lan, "m2");
  MachineId m3 = net.add_machine(lan, "m3");
  EntityId root = fs.make_root("root");
  EntityId shared = fs.make_root("shared");
  EXPECT_TRUE(fs.create_file_at(shared, "proj/readme", "x").is_ok());
  EXPECT_TRUE(fs.attach(root, Name("shared"), shared).is_ok());
  AuthorityMap homes;
  EXPECT_TRUE(
      homes.install_delegation(graph, shared, homes.add_shard({m2, m3}))
          .is_ok());
  EXPECT_TRUE(
      homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok());
  NameService service(graph, net, transport, homes);
  service.add_server(m1);
  service.add_server(m2);
  service.add_server(m3);
  for (EntityId ctx : homes.replicated_contexts()) {
    service.publish_update(ctx);
  }
  sim.run();

  // The scripted fault schedule: a reorder window over the whole run, a
  // mid-run crash of the primary, and a later restart.
  faults.add_reorder_window(0, 50000, /*max_extra=*/37, /*seed=*/42);
  faults.schedule_crash(1500, m2.value());
  faults.schedule_restart(9000, m2.value());
  faults.schedule_partition(2000, m1.value(), m3.value());
  faults.schedule_heal(4000, m1.value(), m3.value());

  ResolverClientConfig config;
  config.retry.request_timeout = 300;
  config.retry.retries = 2;
  ResolverClient client(graph, net, transport, sim, service, m1, "det",
                        config);
  for (int i = 0; i < 12; ++i) {
    (void)client.resolve(root, CompoundName::relative("shared/proj/readme"));
  }
  sim.run();

  std::vector<std::tuple<SimTime, int, std::uint64_t, std::uint64_t>> sig;
  for (const TraceEvent& e : transport.tracer().events()) {
    sig.emplace_back(e.at, static_cast<int>(e.kind), e.a, e.b);
  }
  for (const char* counter :
       {"transport.fault.crash_drops", "transport.fault.partition_drops",
        "transport.fault.delays", "transport.sent", "transport.delivered",
        "transport.dropped", "ns.server.updates_applied"}) {
    sig.emplace_back(0, -1, 0, transport.metrics().counter_value(counter));
  }
  return sig;
}

TEST(FaultDeterminismTest, SameSeedsSameSchedulesSameEventSequence) {
  // Two independent worlds with identical seeds and fault scripts must
  // produce bit-identical event histories — the property every replayed
  // failover experiment in EXPERIMENTS.md rests on.
  auto first = faulted_run_signature();
  auto second = faulted_run_signature();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- FaultInjector state transitions ---------------------------------------

TEST_F(FailoverTest, FaultTransitionsAreCountedAndTraced) {
  transport_.tracer().set_enabled(true);
  faults_.crash(m2_.value());
  faults_.crash(m2_.value());  // idempotent: no second transition
  faults_.restart(m2_.value());
  faults_.partition_one_way(m1_.value(), m3_.value());
  faults_.heal_one_way(m1_.value(), m3_.value());
  const MetricsRegistry& metrics = transport_.metrics();
  EXPECT_EQ(metrics.counter_value("transport.fault.crashes"), 1u);
  EXPECT_EQ(metrics.counter_value("transport.fault.restarts"), 1u);
  EXPECT_EQ(metrics.counter_value("transport.fault.partitions"), 1u);
  EXPECT_EQ(metrics.counter_value("transport.fault.heals"), 1u);
  EXPECT_EQ(transport_.tracer().count(EventKind::kFaultCrash), 1u);
  EXPECT_EQ(transport_.tracer().count(EventKind::kFaultRestart), 1u);
  EXPECT_EQ(transport_.tracer().count(EventKind::kFaultPartition), 1u);
  EXPECT_EQ(transport_.tracer().count(EventKind::kFaultHeal), 1u);
  EXPECT_EQ(faults_.crashed_count(), 0u);
  EXPECT_EQ(faults_.partition_count(), 0u);
}

}  // namespace
}  // namespace namecoh
