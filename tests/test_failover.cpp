// Replication and fault-injection tests: AuthorityMap replica sets,
// epoch-stamped update propagation to secondaries, client failover with
// per-replica health, deterministic fault schedules, and the interaction
// between stale secondary answers and the client's epoch-invalidated
// cache, and a seeded differential check of the replica table against a
// reference model (docs/REPLICATION.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"
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
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
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
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
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
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
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
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
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
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
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
  ResolverClient client(net, transport, sim, service, m1, "det",
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

// --- Replica table: differential check against a reference model -----------

// Rounds of random rebinds, publish_update and push_snapshot calls and raw
// kUpdatePush deliveries (stale snapshots, duplicates, all reordered by a
// reorder window) over five machines and 72 contexts, with remove_server /
// add_server cycles and context moves between shards between rounds, and
// contexts added after the first applies. Some contexts are in a full-copy
// migration intake on m4, others in an epoch-only intake on a machine of
// m0..m3 that a move may later make their secondary. After every drain,
// replica_epoch must match a std::map model of strict apply-if-newer (where
// a full snapshot also fills an epoch-only entry at its own epoch), and
// every secondary must answer from exactly the snapshot the model says it
// holds, or refer when it holds none or only an epoch.
class ReplicaStoreDifferential : public ::testing::TestWithParam<int> {
 protected:
  static constexpr std::size_t kMachines = 5;  // m4: migration intake only

  struct Push {
    std::size_t to;  ///< machine index
    EntityId ctx;
    std::uint64_t epoch;
  };
  /// What the model says one machine holds of one context.
  struct Held {
    std::uint64_t epoch;
    bool epoch_only;
  };
  struct Expected {
    EntityId ctx;
    std::uint64_t disposition;
    EntityId entity;
    std::string error;
    std::uint64_t epoch;
  };

  ReplicaStoreDifferential()
      : transport_(sim_, net_), faults_(sim_),
        service_(graph_, net_, transport_, homes_) {
    transport_.attach_faults(&faults_);
    NetworkId lan = net_.add_network("lan");
    for (std::size_t i = 0; i < kMachines; ++i) {
      machines_.push_back(net_.add_machine(lan, "m" + std::to_string(i)));
      service_.add_server(machines_.back());
    }
    up_.assign(kMachines, true);
    probe_ = net_.add_endpoint(net_.add_machine(lan, "probe"), "probe");
    transport_.set_handler(probe_, [this](EndpointId, const Message& m) {
      if (m.type == NsWire::kResolveReply) replies_.push_back(m);
    });
    // Four 3-replica shards rotating over m0..m3.
    for (std::size_t s = 0; s < 4; ++s) {
      shards_.push_back(homes_.add_shard(
          {machines_[s], machines_[(s + 1) % 4], machines_[(s + 2) % 4]}));
    }
  }

  std::uint64_t draw(std::uint64_t bound) { return rng_() % bound; }

  /// `n` more contexts, interleaved with data objects so context ids are
  /// not contiguous; every third one is also in m4's full-copy migration
  /// intake, and the others in an epoch-only intake on the one machine of
  /// m0..m3 its shard leaves out.
  void add_contexts(std::size_t n) {
    std::vector<EntityId> full;
    std::vector<std::vector<EntityId>> epoch_only(4);
    for (std::size_t k = 0; k < n; ++k) {
      for (std::uint64_t pad = draw(3); pad > 0; --pad) {
        (void)graph_.add_data_object("pad");
      }
      const EntityId ctx =
          graph_.add_context_object("c" + std::to_string(ctxs_.size()));
      // Some start empty, at epoch 0: an applied epoch-0 snapshot must
      // still read as applied.
      for (std::uint64_t j = draw(3); j > 0; --j) rebind(ctx);
      ASSERT_TRUE(homes_
                      .install_delegation(graph_, ctx,
                                          shards_[ctxs_.size() % 4])
                      .is_ok());
      if (ctxs_.size() % 3 == 0) {
        full.push_back(ctx);
        intake_[{4, ctx}] = NameService::Intake::kFullCopy;
      } else {
        const std::size_t left_out = (ctxs_.size() + 3) % 4;
        epoch_only[left_out].push_back(ctx);
        intake_[{left_out, ctx}] = NameService::Intake::kEpochOnly;
      }
      ctxs_.push_back(ctx);
    }
    service_.open_migration_intake(machines_[4], full,
                                   NameService::Intake::kFullCopy);
    for (std::size_t i = 0; i < 4; ++i) {
      service_.open_migration_intake(machines_[i], epoch_only[i],
                                     NameService::Intake::kEpochOnly);
    }
  }

  /// Bind a fresh name, or unbind or retarget an existing one; each bumps
  /// the context's rebind epoch.
  void rebind(EntityId ctx) {
    const auto bindings = graph_.context(ctx).bindings();
    const std::uint64_t kind = bindings.empty() ? 0 : draw(3);
    const EntityId target = graph_.add_data_object("d");
    if (kind == 0) {
      const Name fresh("n" + std::to_string(next_name_++));
      ASSERT_TRUE(graph_.bind(ctx, fresh, target).is_ok());
      return;
    }
    const Name name = bindings[draw(bindings.size())].name;
    ASSERT_TRUE(graph_.unbind(ctx, name).is_ok());
    if (kind == 2) {
      ASSERT_TRUE(graph_.bind(ctx, name, target).is_ok());
    }
  }

  /// The snapshot a push of `ctx` carries now.
  std::uint64_t record(EntityId ctx) {
    const std::uint64_t epoch = graph_.rebind_epoch(ctx);
    const auto bindings = graph_.context(ctx).bindings();
    snapshots_[{ctx, epoch}].assign(bindings.begin(), bindings.end());
    return epoch;
  }

  /// The epoch machine `i` holds for `ctx`, full or epoch-only.
  std::optional<std::uint64_t> model(std::size_t i, EntityId ctx) const {
    auto it = model_.find({i, ctx});
    if (it == model_.end()) return std::nullopt;
    return it->second.epoch;
  }

  /// How machine `i` takes a push of `ctx` now; nullopt for a stray.
  std::optional<NameService::Intake> accepts(std::size_t i,
                                             EntityId ctx) const {
    const MachineId m = machines_[i];
    if (homes_.is_replica(ctx, m) && !homes_.is_primary(ctx, m)) {
      return NameService::Intake::kFullCopy;
    }
    auto it = intake_.find({i, ctx});
    if (it == intake_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t index_of(MachineId m) const {
    return static_cast<std::size_t>(
        std::find(machines_.begin(), machines_.end(), m) - machines_.begin());
  }

  Pid pid_of(std::size_t i) const {
    const EndpointId server = service_.server_on(machines_[i]).value();
    return relativize(net_.location_of(server).value(),
                      net_.location_of(probe_).value());
  }

  void publish(EntityId ctx) {
    const std::uint64_t epoch = record(ctx);
    const auto replicas = homes_.replicas_of(ctx);
    if (up_[index_of(replicas.front())]) {
      for (std::size_t r = 1; r < replicas.size(); ++r) {
        const std::size_t i = index_of(replicas[r]);
        const auto applied = model(i, ctx);
        if (up_[i] && (!applied || *applied < epoch)) {
          pending_.push_back(Push{i, ctx, epoch});
        }
      }
    }
    service_.publish_update(ctx);
  }

  void push_snapshot(EntityId ctx, std::size_t i) {
    const std::uint64_t epoch = record(ctx);
    const bool sends = up_[index_of(homes_.replicas_of(ctx).front())] && up_[i];
    EXPECT_EQ(service_.push_snapshot(ctx, machines_[i]), sends);
    if (sends) pending_.push_back(Push{i, ctx, epoch});
  }

  /// A recorded snapshot (often stale) straight onto the wire.
  void push_raw(const Push& push) {
    if (!up_[push.to]) return;
    const auto& bindings = snapshots_.at({push.ctx, push.epoch});
    ASSERT_TRUE(transport_
                    .send(probe_, pid_of(push.to),
                          encode_update_push(push.ctx, push.epoch, bindings))
                    .is_ok());
    pending_.push_back(push);
  }

  void run_round() {
    const std::uint64_t ops = 40 + draw(60);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const EntityId ctx = ctxs_[draw(ctxs_.size())];
      const std::uint64_t pick = draw(100);
      if (pick < 25) {
        rebind(ctx);
      } else if (pick < 45) {
        publish(ctx);
      } else if (pick < 65) {
        push_snapshot(ctx, draw(kMachines));
      } else if (pick < 85 && !snapshots_.empty()) {
        auto it = snapshots_.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(draw(snapshots_.size())));
        push_raw(Push{draw(kMachines), it->first.first, it->first.second});
      } else if (!pending_.empty()) {
        push_raw(pending_[draw(pending_.size())]);  // a duplicate delivery
      }
    }
    sim_.run();
    // Roles change only between rounds, so each (machine, context) takes
    // every push of a round the same way and delivery order cannot matter.
    for (const Push& push : pending_) {
      const auto kind = accepts(push.to, push.ctx);
      if (!kind) continue;
      const Held pushed{push.epoch, *kind == NameService::Intake::kEpochOnly};
      auto [it, fresh] = model_.try_emplace({push.to, push.ctx}, pushed);
      Held& held = it->second;
      if (!fresh && (pushed.epoch > held.epoch ||
                     (pushed.epoch == held.epoch && held.epoch_only &&
                      !pushed.epoch_only))) {
        held = pushed;
      }
    }
    pending_.clear();
    redeliver_held();
  }

  /// Apply-if-newer is strict: a snapshot at the epoch a store already
  /// holds is stale even when its bindings differ (here: none at all), so
  /// it neither applies nor changes what the secondary answers. The one
  /// exception, a full snapshot filling an epoch-only entry, is left out,
  /// as are machines that now take no push of the context at all.
  void redeliver_held() {
    const MetricsRegistry& metrics = transport_.metrics();
    const std::uint64_t stale =
        metrics.counter_value("ns.server.updates_stale");
    const std::uint64_t applied =
        metrics.counter_value("ns.server.updates_applied");
    std::uint64_t sent = 0;
    for (const auto& [key, held] : model_) {
      if (!up_[key.first] || draw(8) != 0) continue;
      const auto kind = accepts(key.first, key.second);
      if (!kind ||
          (held.epoch_only && *kind == NameService::Intake::kFullCopy)) {
        continue;
      }
      ASSERT_TRUE(transport_
                      .send(probe_, pid_of(key.first),
                            encode_update_push(key.second, held.epoch, {}))
                      .is_ok());
      ++sent;
    }
    sim_.run();
    EXPECT_EQ(metrics.counter_value("ns.server.updates_stale"), stale + sent);
    EXPECT_EQ(metrics.counter_value("ns.server.updates_applied"), applied);
  }

  void check_epochs() {
    const EntityId data = graph_.add_data_object("probe");
    const EntityId beyond(graph_.entity_count() + 7);
    for (std::size_t i = 0; i < kMachines; ++i) {
      for (EntityId ctx : ctxs_) {
        EXPECT_EQ(service_.replica_epoch(machines_[i], ctx), model(i, ctx))
            << "machine " << i << " ctx " << ctx;
      }
      EXPECT_FALSE(service_.replica_epoch(machines_[i], data).has_value());
      EXPECT_FALSE(service_.replica_epoch(machines_[i], beyond).has_value());
    }
  }

  /// Ask every live secondary about one name in each of its contexts: a
  /// bound name answers from the applied snapshot, an unbound one is a
  /// NOT_FOUND stamped with the snapshot's epoch, and a context never
  /// applied, or applied epoch-only, refers to the primary (an error while
  /// the primary is down).
  void check_answers() {
    std::map<std::uint64_t, Expected> expected;
    for (EntityId ctx : ctxs_) {
      const auto replicas = homes_.replicas_of(ctx);
      for (std::size_t r = 1; r < replicas.size(); ++r) {
        const std::size_t i = index_of(replicas[r]);
        if (!up_[i]) continue;
        const std::uint64_t corr = next_corr_++;
        auto held = model_.find({i, ctx});
        std::optional<std::uint64_t> applied;
        if (held != model_.end() && !held->second.epoch_only) {
          applied = held->second.epoch;
        } else if (held != model_.end()) {
          ++epoch_only_secondaries_;
        }
        Expected want{ctx, NsWire::kReferral, EntityId(), "", 0};
        std::string path = "absent";
        if (!applied && !up_[index_of(replicas.front())]) {
          want = Expected{EntityId(), NsWire::kError, EntityId(),
                          "authoritative machine has no name server", 0};
        } else if (applied) {
          const auto& bindings = snapshots_.at({ctx, *applied});
          want.epoch = *applied;
          if (!bindings.empty() && draw(2) == 0) {
            const Binding& b = bindings[draw(bindings.size())];
            path = b.name.text();
            want.disposition = NsWire::kAnswer;
            want.entity = b.entity;
          } else {
            want.disposition = NsWire::kError;
            want.error = "NOT_FOUND: NOT_FOUND: no binding for 'absent'";
          }
        }
        expected.emplace(corr, want);
        ASSERT_TRUE(transport_
                        .send(probe_, pid_of(i),
                              encode_resolve_request(
                                  ResolveRequest{corr, ctx, path, 0}))
                        .is_ok());
      }
    }
    sim_.run();
    ASSERT_EQ(replies_.size(), expected.size());
    for (const Message& message : replies_) {
      const auto reply = decode_resolve_reply(message);
      ASSERT_TRUE(reply.has_value());
      auto it = expected.find(reply->corr);
      ASSERT_NE(it, expected.end());
      const Expected& want = it->second;
      EXPECT_EQ(reply->disposition, want.disposition) << "ctx " << want.ctx;
      if (want.disposition == NsWire::kReferral) continue;
      EXPECT_EQ(reply->authority, want.ctx);
      EXPECT_EQ(reply->epoch, want.epoch);
      EXPECT_EQ(reply->entity, want.entity);
      EXPECT_EQ(reply->error, want.error);
    }
    replies_.clear();
  }

  /// Move a few contexts to another shard, as a cutover does, so a
  /// machine's role for them changes while its store keeps what it holds.
  void move_contexts() {
    for (int k = 0; k < 8; ++k) {
      const EntityId ctx = ctxs_[draw(ctxs_.size())];
      const ShardId to = shards_[draw(4)];
      if (homes_.shard_of(ctx) == to) continue;
      ASSERT_TRUE(homes_.migrate_subtree(graph_, ctx, to).is_ok());
    }
  }

  /// Take a random subset of servers down or back up; a store outlives
  /// its server either way.
  void cycle_servers() {
    for (std::size_t i = 0; i < kMachines; ++i) {
      if (draw(6) != 0) continue;
      if (up_[i]) {
        service_.remove_server(machines_[i]);
      } else {
        service_.add_server(machines_[i]);
      }
      up_[i] = !up_[i];
    }
  }

  NamingGraph graph_;
  Internetwork net_;
  Simulator sim_;
  Transport transport_;
  FaultInjector faults_;
  AuthorityMap homes_;
  NameService service_;
  std::mt19937_64 rng_;
  std::vector<MachineId> machines_;
  std::vector<bool> up_;
  std::vector<ShardId> shards_;
  EndpointId probe_;
  std::vector<EntityId> ctxs_;
  std::map<std::pair<std::size_t, EntityId>, NameService::Intake> intake_;
  std::uint64_t next_name_ = 0;
  std::uint64_t next_corr_ = 1;
  std::map<std::pair<EntityId, std::uint64_t>, std::vector<Binding>>
      snapshots_;
  std::map<std::pair<std::size_t, EntityId>, Held> model_;
  /// Questions put to a secondary that held only an epoch.
  std::size_t epoch_only_secondaries_ = 0;
  std::vector<Push> pending_;
  std::vector<Message> replies_;
};

TEST_P(ReplicaStoreDifferential, MatchesReferenceModel) {
  rng_.seed(static_cast<std::uint64_t>(GetParam()));
  faults_.add_reorder_window(0, 1'000'000'000, 200,
                             static_cast<std::uint64_t>(GetParam()));
  add_contexts(64);
  for (int round = 0; round < 16; ++round) {
    // Contexts created after the first applies lie past the table's
    // initial size.
    if (round == 4) add_contexts(8);
    run_round();
    check_epochs();
    check_answers();
    cycle_servers();
    move_contexts();
    check_epochs();
    if (HasFailure()) return;
  }
  EXPECT_FALSE(model_.empty());
  EXPECT_GT(epoch_only_secondaries_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaStoreDifferential,
                         ::testing::Range(1, 31));

}  // namespace
}  // namespace namecoh
