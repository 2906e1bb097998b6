// Tests for the distributed name service: authority (AuthorityMap), server-side
// walking, referrals (with transport-rebased server pids), the client
// resolver, and the TTL cache including its staleness incoherence.
#include <gtest/gtest.h>

#include "ns/name_service.hpp"
#include "fs/file_system.hpp"

namespace namecoh {
namespace {

class NameServiceTest : public ::testing::Test {
 protected:
  NameServiceTest()
      : fs_(graph_), transport_(sim_, net_),
        service_(graph_, net_, transport_, homes_) {
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    m3_ = net_.add_machine(lan, "m3");
    // m1 hosts /local …; m2 hosts a shared tree attached as /shared; the
    // attach point lives on m1, the shared contents are homed on m2.
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(root_, "local/data.txt", "local").is_ok());
    ASSERT_TRUE(
        fs_.create_file_at(shared_, "proj/readme", "shared readme").is_ok());
    ASSERT_TRUE(fs_.attach(root_, Name("shared"), shared_).is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_}))
            .is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, root_, homes_.add_shard({m1_}))
            .is_ok());
    server1_ = service_.add_server(m1_);
    server2_ = service_.add_server(m2_);
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  AuthorityMap homes_;
  NameService service_;
  MachineId m1_, m2_, m3_;
  EntityId root_, shared_;
  EndpointId server1_, server2_;
};

TEST_F(NameServiceTest, AuthorityMapSubtreeAssignment) {
  // Every directory under root_ is homed on m1 except the shared subtree.
  Context ctx = FileSystem::make_process_context(root_, root_);
  EntityId local_dir = fs_.resolve_path(ctx, "/local").entity;
  EntityId proj_dir = fs_.resolve_path(ctx, "/shared/proj").entity;
  EXPECT_EQ(homes_.replicas_of(root_).front(), m1_);
  EXPECT_EQ(homes_.replicas_of(local_dir).front(), m1_);
  EXPECT_EQ(homes_.replicas_of(shared_).front(), m2_);
  EXPECT_EQ(homes_.replicas_of(proj_dir).front(), m2_);
  EXPECT_TRUE(homes_.replicas_of(EntityId(9999)).empty());
}

TEST_F(NameServiceTest, AuthorityMapDoesNotOverrideForeignAuthority) {
  // root_ was assigned after shared_; the shared subtree kept m2.
  EXPECT_EQ(homes_.replicas_of(shared_).front(), m2_);
  EXPECT_NE(homes_.shard_of(root_), AuthorityMap::kNoShard);
  EXPECT_NE(homes_.shard_of(root_), homes_.shard_of(shared_));
}

TEST_F(NameServiceTest, LocalResolutionNoReferral) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  auto result = client.resolve(root_, CompoundName::relative("local/data.txt"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "local");
  EXPECT_EQ(client.snapshot()["referrals_followed"], 0u);
  EXPECT_EQ(client.snapshot()["messages_sent"], 1u);
  EXPECT_EQ(service_.snapshot()["answers"], 1u);
}

TEST_F(NameServiceTest, CrossMachineResolutionViaReferral) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "shared readme");
  // m1's server walked "shared", hit the m2-homed context, referred; the
  // client followed to m2's server.
  EXPECT_EQ(client.snapshot()["referrals_followed"], 1u);
  EXPECT_EQ(client.snapshot()["messages_sent"], 2u);
  EXPECT_EQ(service_.snapshot()["referrals"], 1u);
  EXPECT_EQ(service_.snapshot()["answers"], 1u);
}

TEST_F(NameServiceTest, ShardRoutingLearnsAOneMachineShardsRoute) {
  // shared_ is a one-machine shard on m2. The referral into it names that
  // shard, so a shard-routing client learns m2 as its route and a later
  // lookup starting inside the shard goes straight there.
  ResolverClientConfig config;
  config.shard_routing = true;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "shared readme");
  const MetricsRegistry& metrics = transport_.metrics();
  EXPECT_EQ(metrics.counter_value("ns.shard.delegations_chased"), 1u);
  EXPECT_GT(metrics.counter_value("ns.shard.glue_hits"), 0u);
  EXPECT_EQ(metrics.counter_value("ns.shard.cross_shard_hops"), 1u);

  auto direct = client.resolve(shared_, CompoundName::relative("proj/readme"));
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(direct.value(), result.value());
  EXPECT_EQ(metrics.counter_value("ns.shard.route_reuses"), 1u);
  EXPECT_EQ(client.snapshot()["referrals_followed"], 1u);
  EXPECT_EQ(client.snapshot()["messages_sent"], 3u);
}

TEST_F(NameServiceTest, ReferralFromRemoteClientMachine) {
  // A client on m3 (no authoritative data) still resolves: ... but m3 has
  // no server, so the first hop fails cleanly.
  ResolverClient orphan(graph_, net_, transport_, sim_, service_, m3_, "o");
  auto res = orphan.resolve(root_, CompoundName::relative("local/data.txt"));
  EXPECT_FALSE(res.is_ok());
  EXPECT_EQ(res.code(), StatusCode::kUnreachable);
  // Give m3 a server: now its server refers immediately to m1.
  service_.add_server(m3_);
  ResolverClient client(graph_, net_, transport_, sim_, service_, m3_, "c");
  auto result =
      client.resolve(root_, CompoundName::relative("local/data.txt"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "local");
  EXPECT_EQ(client.snapshot()["referrals_followed"], 1u);
}

TEST_F(NameServiceTest, UnboundNameYieldsError) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  auto result = client.resolve(root_, CompoundName::relative("ghost"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kNotFound);
  EXPECT_EQ(service_.snapshot()["failures"], 1u);
}

TEST_F(NameServiceTest, TraversalThroughFileYieldsError) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  auto result =
      client.resolve(root_, CompoundName::relative("local/data.txt/deeper"));
  EXPECT_FALSE(result.is_ok());
}

TEST_F(NameServiceTest, AbsoluteNamesRejectedClientSide) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  auto result = client.resolve(root_, CompoundName::path("/local"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.snapshot()["messages_sent"], 0u);
}

TEST_F(NameServiceTest, AgreesWithLocalResolver) {
  // Remote resolution must compute the same function as the in-memory
  // resolver — the distributed implementation changes cost, not meaning.
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  for (const char* path :
       {"local", "local/data.txt", "shared", "shared/proj",
        "shared/proj/readme"}) {
    CompoundName name = CompoundName::relative(path);
    Resolution local = resolve_from(graph_, root_, name);
    auto remote = client.resolve(root_, name);
    ASSERT_TRUE(local.ok());
    ASSERT_TRUE(remote.is_ok()) << path;
    EXPECT_EQ(remote.value(), local.entity) << path;
  }
}

TEST_F(NameServiceTest, CacheHitSkipsNetwork) {
  ResolverClientConfig config;
  config.cache_ttl = 1000;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("shared/proj/readme");
  auto first = client.resolve(root_, name);
  ASSERT_TRUE(first.is_ok());
  std::uint64_t sent_before = client.snapshot()["messages_sent"];
  auto second = client.resolve(root_, name);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(client.snapshot()["messages_sent"], sent_before);  // no new traffic
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);
  EXPECT_EQ(client.cache_size(), 1u);
}

TEST_F(NameServiceTest, CacheExpiresByTtl) {
  ResolverClientConfig config;
  config.cache_ttl = 50;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("local/data.txt");
  ASSERT_TRUE(client.resolve(root_, name).is_ok());
  sim_.run_until(sim_.now() + 100);  // let the TTL lapse
  ASSERT_TRUE(client.resolve(root_, name).is_ok());
  EXPECT_EQ(client.snapshot()["cache_hits"], 0u);
  EXPECT_EQ(client.snapshot()["cache_misses"], 2u);
}

TEST_F(NameServiceTest, StaleCacheIsTemporalIncoherence) {
  // The authority rebinds a name; a caching client keeps resolving it to
  // the old entity until the TTL lapses — incoherence with the authority.
  ResolverClientConfig config;
  config.cache_ttl = 1000;
  ResolverClient caching(graph_, net_, transport_, sim_, service_, m1_, "c",
                         config);
  ResolverClient fresh(graph_, net_, transport_, sim_, service_, m1_, "f");
  CompoundName name = CompoundName::relative("local/data.txt");
  auto before = caching.resolve(root_, name);
  ASSERT_TRUE(before.is_ok());

  // Rebind at the authority: replace the file.
  Context ctx = FileSystem::make_process_context(root_, root_);
  EntityId local_dir = fs_.resolve_path(ctx, "/local").entity;
  ASSERT_TRUE(fs_.unlink(local_dir, Name("data.txt")).is_ok());
  ASSERT_TRUE(
      fs_.create_file(local_dir, Name("data.txt"), "new contents").is_ok());

  auto cached = caching.resolve(root_, name);
  auto truth = fresh.resolve(root_, name);
  ASSERT_TRUE(cached.is_ok());
  ASSERT_TRUE(truth.is_ok());
  EXPECT_NE(cached.value(), truth.value());  // stale ≠ authoritative
  EXPECT_EQ(cached.value(), before.value());

  // After expiry the client reconverges.
  sim_.run_until(sim_.now() + 2000);
  auto after = caching.resolve(root_, name);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value(), truth.value());
}

TEST_F(NameServiceTest, ClearCache) {
  ResolverClientConfig config;
  config.cache_ttl = 1000;
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local")).is_ok());
  EXPECT_EQ(client.cache_size(), 1u);
  client.clear_cache();
  EXPECT_EQ(client.cache_size(), 0u);
}

TEST_F(NameServiceTest, ResolutionLatencyAccumulatesOnSimClock) {
  ResolverClient client(graph_, net_, transport_, sim_, service_, m1_, "c");
  SimTime t0 = sim_.now();
  ASSERT_TRUE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  SimTime local_cost = sim_.now() - t0;
  t0 = sim_.now();
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/readme"))
          .is_ok());
  SimTime remote_cost = sim_.now() - t0;
  EXPECT_GT(local_cost, 0u);
  EXPECT_GT(remote_cost, local_cost);  // referral adds a round trip
}

TEST_F(NameServiceTest, DuplicateServerThrows) {
  EXPECT_THROW(service_.add_server(m1_), PreconditionError);
}

TEST_F(NameServiceTest, ServerOnUnknownMachine) {
  EXPECT_FALSE(service_.server_on(m3_).is_ok());
}

TEST_F(NameServiceTest, RetriesSurviveLossyNetwork) {
  // 40% drop probability; with retries the resolution still completes.
  TransportConfig lossy;
  lossy.drop_probability = 0.4;
  Transport drop_transport(sim_, net_, lossy, /*seed=*/424242);
  NameService lossy_service(graph_, net_, drop_transport, homes_);
  lossy_service.add_server(m1_);
  lossy_service.add_server(m2_);
  ResolverClientConfig config;
  config.retry.retries = 16;
  ResolverClient client(graph_, net_, drop_transport, sim_, lossy_service,
                        m1_, "c", config);
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "shared readme");
  // Loss actually happened: more messages than the loss-free 2.
  EXPECT_GT(client.snapshot()["messages_sent"], 2u);
}

TEST_F(NameServiceTest, QuiescentAntiEntropySendsNoPushes) {
  // Regression: anti_entropy_tick used to re-push every replicated
  // context's snapshot every round, converged or not — a per-tick
  // snapshot storm that grows with the namespace. A quiescent system must
  // send zero kUpdatePush messages per tick: the one-time sweep on start
  // is suppressed by the per-secondary epoch gate, and later ticks iterate
  // an empty dirty set.
  ASSERT_TRUE(
      homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_, m3_}))
          .is_ok());
  service_.add_server(m3_);
  service_.publish_update(shared_);
  sim_.run();
  const std::uint64_t pushed = service_.snapshot()["update_pushes"];
  ASSERT_GE(pushed, 1u);
  ASSERT_TRUE(service_.replica_epoch(m3_, shared_).has_value());

  service_.start_anti_entropy(100);
  sim_.run_until(sim_.now() + 5000);  // 50 rounds, nothing rebound
  service_.stop_anti_entropy();
  EXPECT_EQ(service_.snapshot()["update_pushes"], pushed);
  // The suppression is observable, not silent: the start-of-run sweep
  // visited the converged context exactly once.
  EXPECT_EQ(service_.snapshot()["pushes_suppressed"], 1u);
}

TEST_F(NameServiceTest, AntiEntropyIntervalChangeRetimesTheNextTick) {
  // Regression: calling start_anti_entropy while a round was already
  // scheduled left the old tick in the queue, so a shortened interval was
  // ignored until the *previous* interval elapsed once. The re-start must
  // abandon the stale tick (generation stamp) and converge a lagging
  // secondary on the new cadence.
  ASSERT_TRUE(
      homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_, m3_}))
          .is_ok());
  service_.add_server(m3_);
  service_.publish_update(shared_);
  sim_.run();

  EntityId extra = graph_.add_data_object("extra");
  ASSERT_TRUE(graph_.bind(shared_, Name("extra"), extra).is_ok());
  ASSERT_LT(*service_.replica_epoch(m3_, shared_),
            graph_.rebind_epoch(shared_));

  service_.start_anti_entropy(5000);
  service_.start_anti_entropy(50);  // operator tightens the knob
  sim_.run_until(sim_.now() + 1000);
  EXPECT_EQ(*service_.replica_epoch(m3_, shared_),
            graph_.rebind_epoch(shared_));
}

TEST_F(NameServiceTest, LostMessagesSurfaceAsUnreachable) {
  // With 100% drop, the request never arrives and the client reports the
  // loss instead of hanging.
  TransportConfig lossy;
  lossy.drop_probability = 1.0;
  Transport drop_transport(sim_, net_, lossy);
  NameService lossy_service(graph_, net_, drop_transport, homes_);
  lossy_service.add_server(m1_);
  ResolverClient client(graph_, net_, drop_transport, sim_, lossy_service,
                        m1_, "c");
  auto result = client.resolve(root_, CompoundName::relative("local"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kUnreachable);
}

}  // namespace
}  // namespace namecoh
