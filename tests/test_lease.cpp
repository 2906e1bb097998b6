// Lease-based cache coherence tests (docs/COHERENCE.md): lease grant
// plumbing, kInvalidate callback pushes on rebind, renewal on re-use,
// degradation to the plain-TTL bound under partition, and the cache
// boundary semantics the lease work leans on — expiry at exactly
// `expires == now`, negative entries invalidated by an epoch bump, and an
// invalidate racing a same-tick cache probe.
#include <gtest/gtest.h>

#include <string>

#include "fs/file_system.hpp"
#include "ns/name_service.hpp"
#include "sim/faults.hpp"

namespace namecoh {
namespace {

// Topology timing (transport defaults): intra-machine one-way latency is 5
// ticks, same-network cross-machine one-way is 50. A local lookup settles
// at t+10; a referral chase local → remote settles at t+110.
constexpr SimDuration kLocalOneWay = 5;
constexpr SimDuration kLanOneWay = 50;

class LeaseTest : public ::testing::Test {
 protected:
  LeaseTest()
      : fs_(graph_), transport_(sim_, net_), faults_(sim_),
        service_(graph_, net_, transport_, homes_) {
    transport_.attach_faults(&faults_);
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(shared_, "proj/readme", "v1").is_ok());
    ASSERT_TRUE(fs_.create_file_at(root_, "local/data.txt", "d").is_ok());
    ASSERT_TRUE(fs_.attach(root_, Name("shared"), shared_).is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_}))
            .is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, root_, homes_.add_shard({m1_}))
            .is_ok());
    server1_ = service_.add_server(m1_);
    server2_ = service_.add_server(m2_);
    Context ctx = FileSystem::make_process_context(root_, root_);
    proj_ = fs_.resolve_path(ctx, "/shared/proj").entity;
    readme_ = fs_.resolve_path(ctx, "/shared/proj/readme").entity;
    data_ = fs_.resolve_path(ctx, "/local/data.txt").entity;
    ASSERT_TRUE(proj_.valid());
    ASSERT_TRUE(readme_.valid());
    ASSERT_TRUE(data_.valid());
  }

  /// Lease-coherent client config with a TTL long enough that every stale
  /// serve in these tests is the lease machinery's to prevent.
  static ResolverClientConfig lease_config() {
    ResolverClientConfig config;
    config.cache_ttl = 10000;
    config.lease_coherence = true;
    return config;
  }

  /// Rebind proj/readme on the authority's graph; bumps proj's rebind
  /// epoch, which is what publish_update turns into kInvalidate pushes.
  EntityId rebind_readme(const char* contents) {
    EXPECT_TRUE(fs_.unlink(proj_, Name("readme")).is_ok());
    auto created = fs_.create_file(proj_, Name("readme"), contents);
    EXPECT_TRUE(created.is_ok());
    return created.value();
  }

  static CompoundName readme_name() {
    return CompoundName::relative("shared/proj/readme");
  }

  std::string client_prefix(const ResolverClient& client) const {
    return "ns.client." + std::to_string(client.endpoint().value()) + ".";
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  FaultInjector faults_;
  AuthorityMap homes_;
  NameService service_;
  MachineId m1_, m2_;
  EntityId root_, shared_, proj_, readme_, data_;
  EndpointId server1_, server2_;
};

// --- Grant plumbing --------------------------------------------------------

TEST_F(LeaseTest, AnswerFromPrimaryGrantsLeaseReferralDoesNot) {
  transport_.tracer().set_enabled(true);
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        lease_config());
  auto result = client.resolve(root_, readme_name());
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result.value(), readme_);
  // The chase touched two servers — m1 (referral) and m2 (answer) — but
  // only the answering authority promised anything: referrals carry no
  // binding to promise about.
  StatsSnapshot server = service_.snapshot();
  EXPECT_EQ(server["leases_granted"], 1u);
  EXPECT_EQ(server["lease_renewals"], 0u);
  EXPECT_EQ(service_.lease_count(m2_), 1u);
  EXPECT_EQ(service_.lease_count(m1_), 0u);
  EXPECT_EQ(transport_.tracer().count(EventKind::kLeaseGrant), 1u);
}

TEST_F(LeaseTest, LeaseOffClientRequestsNoLeaseAndGetsNone) {
  // The default config leaves lease_coherence off: requests leave the
  // lease flag clear, replies carry the empty [0, 0] lease pair, and the
  // server's lease table stays empty.
  ResolverClientConfig config;
  config.cache_ttl = 10000;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  auto result = client.resolve(root_, readme_name());
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(service_.snapshot()["leases_granted"], 0u);
  EXPECT_EQ(service_.lease_count(m2_), 0u);
  // Caching still works — it just rides the plain TTL.
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);
}

// --- The tentpole property: push invalidation closes the window ------------

TEST_F(LeaseTest, RebindPushesInvalidateAndDropsTheStaleEntry) {
  transport_.tracer().set_enabled(true);
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        lease_config());
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());

  EntityId new_readme = rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();

  EXPECT_EQ(service_.snapshot()["invalidates_pushed"], 1u);
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["invalidates_received"], 1u);
  EXPECT_GE(stats["stale_epoch_drops"], 1u);
  // Both ends trace the callback: the push at the authority, the
  // processing at the holder.
  EXPECT_EQ(transport_.tracer().count(EventKind::kInvalidate), 2u);

  // The cache entry died with the push, not at its TTL: the next lookup
  // misses and fetches the rebound entity.
  auto fresh = client.resolve(root_, readme_name());
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value(), new_readme);
  EXPECT_EQ(client.snapshot()["cache_misses"], 2u);

  // The recorded staleness window is the push's one-way transit — the
  // rebind happened at the authority, the drop one LAN hop later.
  auto it = transport_.metrics().histograms().find(client_prefix(client) +
                                                  "stale_window");
  ASSERT_NE(it, transport_.metrics().histograms().end());
  EXPECT_EQ(it->second.total(), 1u);
  EXPECT_EQ(it->second.observed_max(), static_cast<double>(kLanOneWay));
}

TEST_F(LeaseTest, LeaseClientSeesRebindWhileTtlClientServesStale) {
  // The comparative claim behind bench_x6: with identical TTLs, the leased
  // client's window is one push transit while the TTL-only client rides
  // out its full TTL.
  ResolverClient leased(graph_, net_, transport_, sim_, service_, m1_,
                        "leased", lease_config());
  ResolverClientConfig ttl_only_config;
  ttl_only_config.cache_ttl = 10000;
  ResolverClient ttl_only(graph_, net_, transport_, sim_, service_, m1_,
                          "ttl", ttl_only_config);
  ASSERT_TRUE(leased.resolve(root_, readme_name()).is_ok());
  ASSERT_TRUE(ttl_only.resolve(root_, readme_name()).is_ok());

  EntityId new_readme = rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();

  auto leased_view = leased.resolve(root_, readme_name());
  auto ttl_view = ttl_only.resolve(root_, readme_name());
  ASSERT_TRUE(leased_view.is_ok());
  ASSERT_TRUE(ttl_view.is_ok());
  EXPECT_EQ(leased_view.value(), new_readme);
  EXPECT_EQ(ttl_view.value(), readme_);  // stale, within its TTL rights
  EXPECT_EQ(ttl_only.snapshot()["invalidates_received"], 0u);
}

// --- Renewal ---------------------------------------------------------------

TEST_F(LeaseTest, HitNearExpiryRenewsTheLeaseInTheBackground) {
  service_.set_lease_policy(400);  // default renew margin: 100
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        lease_config());
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());
  // Settled at t=110 with the lease term running to ~510.

  sim_.run_until(450);
  auto hit = client.resolve(root_, readme_name());
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit.value(), readme_);
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["cache_hits"], 1u);
  EXPECT_EQ(stats["lease_renewals"], 1u);

  // Let the background refresh land: the server refreshes the existing
  // promise rather than stacking a second record.
  sim_.run();
  StatsSnapshot server = service_.snapshot();
  EXPECT_EQ(server["leases_granted"], 1u);
  EXPECT_EQ(server["lease_renewals"], 1u);
  EXPECT_EQ(service_.lease_count(m2_), 1u);

  // The renewed term outlives the original 510: a rebind now still owes —
  // and delivers — a push.
  EntityId new_readme = rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();
  EXPECT_EQ(service_.snapshot()["invalidates_pushed"], 1u);
  EXPECT_EQ(client.snapshot()["invalidates_received"], 1u);
  auto fresh = client.resolve(root_, readme_name());
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(fresh.value(), new_readme);
}

TEST_F(LeaseTest, HitWithPlentyOfTermLeftDoesNotRenew) {
  service_.set_lease_policy(5000);
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        lease_config());
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["cache_hits"], 1u);
  EXPECT_EQ(stats["lease_renewals"], 0u);
  EXPECT_EQ(service_.snapshot()["lease_renewals"], 0u);
}

// --- Partition: degrade to the TTL bound -----------------------------------

TEST_F(LeaseTest, PartitionDegradesLeaseToPlainTtl) {
  service_.set_lease_policy(1000);
  ResolverClientConfig config = lease_config();
  config.cache_ttl = 5000;
  config.retry.request_timeout = 300;
  config.retry.retries = 0;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());
  // Settled at t=110: lease to ~1110, TTL to ~5110.

  // Cut the authority → client direction: pushes and replies are lost.
  faults_.partition_one_way(m2_.value(), m1_.value());
  rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();
  EXPECT_EQ(service_.snapshot()["invalidates_pushed"], 1u);
  EXPECT_EQ(client.snapshot()["invalidates_received"], 0u);

  // Within the lease term the entry still serves (stale — the push was
  // lost; the term is the client's bound on how long that can last).
  auto within_term = client.resolve(root_, readme_name());
  ASSERT_TRUE(within_term.is_ok());
  EXPECT_EQ(within_term.value(), readme_);

  // Past the term the promise is void: the client degrades the entry to
  // plain TTL — still serving, no longer pretending the lease holds, and
  // not spinning renewals against an unreachable authority.
  sim_.run_until(1200);
  auto degraded = client.resolve(root_, readme_name());
  ASSERT_TRUE(degraded.is_ok());
  EXPECT_EQ(degraded.value(), readme_);
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["lease_degrades"], 1u);
  EXPECT_EQ(stats["lease_renewals"], 0u);

  // Past the TTL the staleness bound is up: the entry dies, and the wire
  // exchange fails cleanly into the partition (no hang, no stale serve).
  sim_.run_until(5200);
  auto past_ttl = client.resolve(root_, readme_name());
  EXPECT_FALSE(past_ttl.is_ok());
  EXPECT_GE(client.snapshot()["timeouts"], 1u);

  // Heal: the next resolution completes and sees the rebound binding.
  faults_.heal_one_way(m2_.value(), m1_.value());
  auto healed = client.resolve(root_, readme_name());
  ASSERT_TRUE(healed.is_ok()) << healed.status();
  EXPECT_NE(healed.value(), readme_);
}

// --- Satellite: the epoch high-water table is bounded -----------------------

TEST_F(LeaseTest, EpochTableIsBoundedLru) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "d" + std::to_string(i);
    ASSERT_TRUE(fs_.create_file_at(shared_, dir + "/f", "x").is_ok());
  }
  // The new directories were created after SetUp claimed the subtree;
  // re-walk so they get an authoritative home too.
  ASSERT_TRUE(
      homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_}))
          .is_ok());

  ResolverClientConfig config;  // cache off: every resolve notes epochs
  config.epoch_table_capacity = 4;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  for (int i = 0; i < 8; ++i) {
    const std::string path = "shared/d" + std::to_string(i) + "/f";
    ASSERT_TRUE(client.resolve(root_, CompoundName::relative(path)).is_ok());
  }
  // Nine distinct authorities answered (shared_ on every referral plus the
  // eight directories); the table kept only the most recent four.
  const double tracked = transport_.metrics().gauge_value(
      client_prefix(client) + "epochs_tracked");
  EXPECT_EQ(tracked, 4.0);
}

// --- Satellite: cache boundary semantics ------------------------------------

TEST_F(LeaseTest, EntryExpiresAtExactlyItsTtlBoundary) {
  ResolverClientConfig config;
  config.cache_ttl = 500;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local/data.txt")).is_ok());
  ASSERT_EQ(sim_.now(), 2 * kLocalOneWay);  // answered at t=10, expires 510

  // One tick before the boundary the entry still serves...
  sim_.run_until(509);
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local/data.txt")).is_ok());
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);

  // ...at exactly `expires == now` it has lived its full TTL and is gone.
  sim_.run_until(510);
  auto refetched =
      client.resolve(root_, CompoundName::relative("local/data.txt"));
  ASSERT_TRUE(refetched.is_ok());
  EXPECT_EQ(refetched.value(), data_);
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["cache_hits"], 1u);
  EXPECT_EQ(stats["cache_misses"], 2u);
}

TEST_F(LeaseTest, NegativeEntryIsInvalidatedByEpochBumpPush) {
  ResolverClientConfig config = lease_config();
  config.negative_cache_ttl = 10000;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  auto miss = client.resolve(root_, CompoundName::relative("shared/proj/ghost"));
  ASSERT_FALSE(miss.is_ok());
  // Error answers are leased too: the authority where the lookup failed
  // stamped the reply, so the NOT_FOUND is a promise about proj's current
  // bindings.
  EXPECT_EQ(service_.snapshot()["leases_granted"], 1u);
  ASSERT_FALSE(
      client.resolve(root_, CompoundName::relative("shared/proj/ghost"))
          .is_ok());
  EXPECT_EQ(client.snapshot()["negative_hits"], 1u);

  // Creating the file bumps proj's rebind epoch; the publish pushes the
  // callback and the cached NOT_FOUND dies with it.
  auto created = fs_.create_file(proj_, Name("ghost"), "g");
  ASSERT_TRUE(created.is_ok());
  service_.publish_update(proj_);
  sim_.run();
  EXPECT_EQ(client.snapshot()["invalidates_received"], 1u);

  auto found =
      client.resolve(root_, CompoundName::relative("shared/proj/ghost"));
  ASSERT_TRUE(found.is_ok()) << found.status();
  EXPECT_EQ(found.value(), created.value());
  EXPECT_EQ(client.snapshot()["negative_hits"], 1u);  // no third stale serve
}

TEST_F(LeaseTest, InvalidateArrivingWithSameTickProbeWinsTheRace) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        lease_config());
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());

  // At t=1000 the authority rebinds and pushes; the push lands at t=1050.
  // A probe issued at exactly t=1050 — scheduled *after* the delivery was
  // enqueued — must see the invalidate's effect, not the dying entry:
  // same-tick events run in schedule order, and the transport enqueued
  // the delivery first.
  EntityId new_readme;
  Result<EntityId> probed = internal_error("probe never ran");
  sim_.schedule_at(1000, [&] {
    new_readme = rebind_readme("v2");
    service_.publish_update(proj_);
    sim_.schedule_at(1000 + kLanOneWay, [&] {
      client.resolve_async(root_, readme_name(),
                           [&](const Result<EntityId>& r) { probed = r; });
    });
  });
  sim_.run();

  ASSERT_TRUE(probed.is_ok()) << probed.status();
  EXPECT_EQ(probed.value(), new_readme);
  StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["invalidates_received"], 1u);
  EXPECT_EQ(stats["cache_hits"], 0u);
  EXPECT_EQ(stats["cache_misses"], 2u);
}

TEST_F(LeaseTest, SeededReorderWindowDelaysButConverges) {
  // A deterministic reorder window jitters every delivery (including the
  // kInvalidate push); coherence must survive reordering — the push is an
  // epoch announcement, not a sequenced stream.
  faults_.add_reorder_window(0, 100000, /*max_extra=*/40, /*seed=*/7);
  ResolverClientConfig config = lease_config();
  config.retry.request_timeout = 500;
  config.retry.retries = 2;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(client.resolve(root_, readme_name()).is_ok());

  EntityId new_readme = rebind_readme("v2");
  service_.publish_update(proj_);
  sim_.run();
  EXPECT_EQ(client.snapshot()["invalidates_received"], 1u);

  auto fresh = client.resolve(root_, readme_name());
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value(), new_readme);
  EXPECT_GT(transport_.metrics().counter_value("transport.fault.delays"), 0u);
}

// --- Replication interplay ---------------------------------------------------

TEST(LeaseReplicationTest, PrimaryOwnsInvalidationSecondariesHoldNoLeases) {
  NamingGraph graph;
  FileSystem fs(graph);
  Simulator sim;
  Internetwork net;
  Transport transport(sim, net);
  AuthorityMap homes;
  NameService service(graph, net, transport, homes);

  NetworkId lan = net.add_network("lan");
  MachineId m1 = net.add_machine(lan, "m1");
  MachineId m2 = net.add_machine(lan, "m2");
  MachineId m3 = net.add_machine(lan, "m3");
  EntityId root = fs.make_root("root");
  EntityId shared = fs.make_root("shared");
  ASSERT_TRUE(fs.create_file_at(shared, "proj/readme", "v1").is_ok());
  ASSERT_TRUE(fs.attach(root, Name("shared"), shared).is_ok());
  ASSERT_TRUE(
      homes.install_delegation(graph, shared, homes.add_shard({m2, m3}))
          .is_ok());
  ASSERT_TRUE(
      homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok());
  service.add_server(m1);
  service.add_server(m2);
  service.add_server(m3);
  Context pctx = FileSystem::make_process_context(root, root);
  EntityId proj = fs.resolve_path(pctx, "/shared/proj").entity;
  ASSERT_TRUE(proj.valid());
  for (EntityId ctx : homes.replicated_contexts()) service.publish_update(ctx);
  sim.run();

  ResolverClientConfig config;
  config.cache_ttl = 10000;
  config.lease_coherence = true;
  ResolverClient client(graph, net, transport, sim, service, m1, "c", config);
  ASSERT_TRUE(
      client.resolve(root, CompoundName::relative("shared/proj/readme"))
          .is_ok());
  // The referral chase answered at the primary; only it holds the promise.
  EXPECT_EQ(service.snapshot()["leases_granted"], 1u);
  EXPECT_EQ(service.lease_count(m2), 1u);
  EXPECT_EQ(service.lease_count(m3), 0u);

  // A rebind publishes both ways from the primary: the snapshot to the
  // secondary and the callback to the lease holder.
  ASSERT_TRUE(fs.unlink(proj, Name("readme")).is_ok());
  auto created = fs.create_file(proj, Name("readme"), "v2");
  ASSERT_TRUE(created.is_ok());
  service.publish_update(proj);
  sim.run();
  StatsSnapshot server = service.snapshot();
  EXPECT_EQ(server["invalidates_pushed"], 1u);
  EXPECT_GE(server["updates_applied"], 1u);
  EXPECT_EQ(*service.replica_epoch(m3, proj), graph.rebind_epoch(proj));
  EXPECT_EQ(client.snapshot()["invalidates_received"], 1u);

  auto fresh =
      client.resolve(root, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value(), created.value());
}

}  // namespace
}  // namespace namecoh
