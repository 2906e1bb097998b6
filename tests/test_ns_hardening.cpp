// Hardening tests for the distributed name service: correlation-id
// reply matching, duplicate-request suppression, the empty-path reply
// guarantee, timed exponential-backoff retries, and the bounded
// invalidation-aware resolver cache (LRU + negative entries + rebind
// epochs).
#include <gtest/gtest.h>

#include <algorithm>

#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"

namespace namecoh {
namespace {

class NsHardeningTest : public ::testing::Test {
 protected:
  NsHardeningTest()
      : fs_(graph_), transport_(sim_, net_),
        service_(graph_, net_, transport_, homes_) {
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    m3_ = net_.add_machine(lan, "m3");
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(root_, "local/data.txt", "local").is_ok());
    ASSERT_TRUE(fs_.create_file_at(root_, "local/other.txt", "other").is_ok());
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

  /// A bare endpoint that records every name-service reply it receives,
  /// for crafting raw wire messages (retransmissions, stale replies,
  /// malformed requests) that a well-behaved client would never send.
  struct WireProbe {
    WireProbe(Internetwork& net, Transport& transport, MachineId machine)
        : net_(net), transport_(transport),
          endpoint_(net.add_endpoint(machine, "probe")) {
      transport_.set_handler(endpoint_,
                             [this](EndpointId, const Message& message) {
                               if (message.type == NsWire::kResolveReply) {
                                 replies.push_back(message);
                               }
                             });
    }
    ~WireProbe() {
      transport_.clear_handler(endpoint_);
      (void)net_.remove_endpoint(endpoint_);
    }

    Pid pid_of(EndpointId target) const {
      return relativize(net_.location_of(target).value(),
                        net_.location_of(endpoint_).value());
    }

    Status send_request(EndpointId server, std::uint64_t corr, EntityId start,
                        std::string path) {
      return transport_.send(endpoint_, pid_of(server),
                             encode_resolve_request(ResolveRequest{
                                 corr, start, std::move(path), 0}));
    }

    /// The i-th recorded reply, decoded; fails the test if it is malformed.
    ResolveReply reply(std::size_t i) const {
      auto decoded = decode_resolve_reply(replies.at(i));
      EXPECT_TRUE(decoded.has_value());
      return decoded.value_or(ResolveReply{});
    }

    Internetwork& net_;
    Transport& transport_;
    EndpointId endpoint_;
    std::vector<Message> replies;
  };

  EntityId rebind_local(const char* leaf, const char* contents) {
    Context ctx = FileSystem::make_process_context(root_, root_);
    EntityId local_dir = fs_.resolve_path(ctx, "/local").entity;
    EXPECT_TRUE(fs_.unlink(local_dir, Name(leaf)).is_ok());
    auto created = fs_.create_file(local_dir, Name(leaf), contents);
    EXPECT_TRUE(created.is_ok());
    return created.value();
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

// --- Satellite: the zero-component request must get an explicit reply ------

TEST_F(NsHardeningTest, EmptyPathRequestGetsExplicitAnswer) {
  // A request whose path holds zero components used to fall through the
  // walk loop without any reply, so the sender burned its entire retry
  // budget and reported a bogus "message lost" error. It now answers
  // explicitly (identity resolution) on the first and only attempt.
  WireProbe probe(net_, transport_, m1_);
  ASSERT_TRUE(probe.send_request(server1_, 777, root_, "").is_ok());
  sim_.run();
  ASSERT_EQ(probe.replies.size(), 1u);  // one request sufficed: no retries
  const ResolveReply reply = probe.reply(0);
  EXPECT_EQ(reply.corr, 777u);                     // correlation id echoed
  EXPECT_EQ(reply.disposition, NsWire::kAnswer);
  EXPECT_EQ(reply.entity, root_);                  // identity resolution
  EXPECT_EQ(service_.snapshot()["answers"], 1u);
}

TEST_F(NsHardeningTest, EmptyPathOnUnknownEntityGetsExplicitError) {
  WireProbe probe(net_, transport_, m1_);
  ASSERT_TRUE(
      probe.send_request(server1_, 778, EntityId(999999), "").is_ok());
  sim_.run();
  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_EQ(probe.reply(0).disposition, NsWire::kError);
  EXPECT_EQ(service_.snapshot()["failures"], 1u);
}

TEST_F(NsHardeningTest, MalformedRequestIsIgnoredNotCrashed) {
  // Old two-field layout (no correlation id): not a valid request anymore.
  WireProbe probe(net_, transport_, m1_);
  Message request;
  request.type = NsWire::kResolveRequest;
  request.payload.add_u64(root_.value());
  request.payload.add_name("local");
  ASSERT_TRUE(
      transport_.send(probe.endpoint_, probe.pid_of(server1_), request)
          .is_ok());
  sim_.run();
  EXPECT_TRUE(probe.replies.empty());
  EXPECT_EQ(service_.snapshot()["requests"], 0u);
}

// --- Tentpole: duplicate requests answered but not double-counted ----------

TEST_F(NsHardeningTest, DuplicateRequestAnsweredButCountedOnce) {
  WireProbe probe(net_, transport_, m1_);
  ASSERT_TRUE(probe.send_request(server1_, 42, root_, "local").is_ok());
  ASSERT_TRUE(probe.send_request(server1_, 42, root_, "local").is_ok());
  sim_.run();
  // Both copies are answered — the first reply may have been lost, so the
  // server must re-reply — but the stats see one resolution.
  ASSERT_EQ(probe.replies.size(), 2u);
  EXPECT_EQ(probe.reply(0).disposition, NsWire::kAnswer);
  EXPECT_EQ(probe.reply(1).disposition, NsWire::kAnswer);
  EXPECT_EQ(service_.snapshot()["requests"], 1u);
  EXPECT_EQ(service_.snapshot()["duplicates"], 1u);
  EXPECT_EQ(service_.snapshot()["answers"], 1u);
}

// --- Tentpole: correlation ids reject delayed/stale replies ----------------

TEST_F(NsHardeningTest, StaleReplyRejectedByCorrelationId) {
  // Queue a forged "answer" to the client before it even asks, claiming
  // the name resolves to the shared tree. Pre-fix, the client's handler
  // accepted any kResolveReply while waiting and would have returned the
  // wrong entity; the correlation id now rejects it and the client waits
  // for the genuine answer.
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  WireProbe probe(net_, transport_, m1_);
  ResolveReply forged;
  forged.corr = 12345;  // matches no outstanding attempt
  forged.disposition = NsWire::kAnswer;
  forged.entity = shared_;  // the wrong entity
  ASSERT_TRUE(transport_
                  .send(probe.endpoint_, probe.pid_of(client.endpoint()),
                        encode_resolve_reply(forged))
                  .is_ok());

  auto result = client.resolve(root_, CompoundName::relative("local/data.txt"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "local");  // not the forged entity
  EXPECT_EQ(client.snapshot()["stale_replies_dropped"], 1u);
}

TEST_F(NsHardeningTest, MalformedReplyWithTheLiveCorrIsNotTrusted) {
  // A reply that carries the outstanding attempt's correlation id but
  // breaks the layout (one trailing field) is dropped before correlation
  // routing: it neither settles the attempt with its wrong entity nor
  // cancels the deadline. The attempt times out and the retry gets the
  // real answer.
  transport_.tracer().set_enabled(true);
  ResolverClientConfig config;
  config.retry.retries = 1;
  config.retry.request_timeout = 1000;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  WireProbe probe(net_, transport_, m1_);
  transport_.set_drop_probability(1.0);  // the first attempt is lost
  ResolveHandle handle =
      client.resolve_async(root_, CompoundName::relative("local/data.txt"));
  transport_.set_drop_probability(0.0);
  std::uint64_t live_corr = 0;
  for (const TraceEvent& event : transport_.tracer().events()) {
    if (event.kind == EventKind::kDrop) live_corr = event.corr;
  }
  ASSERT_NE(live_corr, 0u);

  ResolveReply broken;
  broken.corr = live_corr;
  broken.disposition = NsWire::kAnswer;
  broken.entity = shared_;  // the wrong entity
  Message message = encode_resolve_reply(broken);
  message.payload.add_u64(0);
  ASSERT_TRUE(transport_
                  .send(probe.endpoint_, probe.pid_of(client.endpoint()),
                        std::move(message))
                  .is_ok());

  sim_.run_while([&handle] { return !handle.done(); });
  ASSERT_TRUE(handle.done());
  ASSERT_TRUE(handle.result().is_ok());
  EXPECT_EQ(graph_.data(handle.result().value()), "local");
  EXPECT_EQ(client.snapshot()["timeouts"], 1u);
  EXPECT_EQ(client.snapshot()["stale_replies_dropped"], 0u);
}

// --- Tentpole: per-hop timeout + exponential backoff -----------------------

TEST_F(NsHardeningTest, TimeoutBackoffConsumesSimulatedTime) {
  TransportConfig lossy;
  lossy.drop_probability = 1.0;  // total blackout
  Transport drop_transport(sim_, net_, lossy);
  NameService lossy_service(graph_, net_, drop_transport, homes_);
  lossy_service.add_server(m1_);
  ResolverClientConfig config;
  config.retry.retries = 2;
  config.retry.request_timeout = 100;
  ResolverClient client(net_, drop_transport, sim_, lossy_service,
                        m1_, "c", config);
  SimTime t0 = sim_.now();
  auto result = client.resolve(root_, CompoundName::relative("local"));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kUnreachable);
  // Three attempts waited 100 + 200 + 400 ticks on the shared clock.
  EXPECT_EQ(sim_.now() - t0, 700u);
  EXPECT_EQ(client.snapshot()["messages_sent"], 3u);
  EXPECT_EQ(client.snapshot()["timeouts"], 3u);
  EXPECT_EQ(client.snapshot()["backoff_retries"], 2u);
  EXPECT_EQ(client.snapshot()["failures"], 1u);
}

TEST_F(NsHardeningTest, BackoffTimeoutRespectsCap) {
  TransportConfig lossy;
  lossy.drop_probability = 1.0;
  Transport drop_transport(sim_, net_, lossy);
  NameService lossy_service(graph_, net_, drop_transport, homes_);
  lossy_service.add_server(m1_);
  ResolverClientConfig config;
  config.retry.retries = 3;
  config.retry.request_timeout = 100;
  config.retry.max_timeout = 150;
  ResolverClient client(net_, drop_transport, sim_, lossy_service,
                        m1_, "c", config);
  SimTime t0 = sim_.now();
  EXPECT_FALSE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  // 100, then capped at 150 for the remaining three attempts.
  EXPECT_EQ(sim_.now() - t0, 100u + 150u + 150u + 150u);
}

TEST_F(NsHardeningTest, ReplyLandingOnTheDeadlineTickWins) {
  // Client and server share m1: one round trip is two 5-tick intra-machine
  // hops. With the timeout set to exactly that, the reply and the deadline
  // fall on the same tick. The deadline was scheduled first, so it fires
  // first; it must defer once behind the queued reply instead of declaring
  // the only attempt lost.
  ResolverClientConfig config;
  config.retry.retries = 0;
  config.retry.request_timeout = 10;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c", config);
  const SimTime t0 = sim_.now();
  auto result = client.resolve(root_, CompoundName::relative("local/data.txt"));
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(graph_.data(result.value()), "local");
  EXPECT_EQ(sim_.now() - t0, 10u);  // the reply did land on the deadline
  EXPECT_EQ(client.snapshot()["timeouts"], 0u);
  EXPECT_EQ(client.snapshot()["failures"], 0u);
  sim_.run();  // the cancelled deferral must not fire later
  EXPECT_EQ(client.snapshot()["timeouts"], 0u);
}

// --- Satellite: referral chains under loss ---------------------------------

TEST_F(NsHardeningTest, ReferralChainSurvivesLossWithRetries) {
  // Three-hop authority chain: root (m1) -> shared (m2) -> deep (m3), with
  // a lossy transport. Each hop retries independently and the chain still
  // completes end-to-end.
  EntityId deep = fs_.make_root("deep");
  ASSERT_TRUE(fs_.create_file_at(deep, "leaf", "deep leaf").is_ok());
  ASSERT_TRUE(fs_.attach(shared_, Name("deep"), deep).is_ok());
  ASSERT_TRUE(
      homes_.install_delegation(graph_, deep, homes_.add_shard({m3_})).is_ok());

  TransportConfig lossy;
  lossy.drop_probability = 0.4;
  Transport drop_transport(sim_, net_, lossy, /*seed=*/424242);
  NameService lossy_service(graph_, net_, drop_transport, homes_);
  lossy_service.add_server(m1_);
  lossy_service.add_server(m2_);
  lossy_service.add_server(m3_);
  ResolverClientConfig config;
  config.retry.retries = 16;
  config.retry.request_timeout = 500;
  ResolverClient client(net_, drop_transport, sim_, lossy_service,
                        m1_, "c", config);
  auto result =
      client.resolve(root_, CompoundName::relative("shared/deep/leaf"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "deep leaf");
  EXPECT_EQ(client.snapshot()["referrals_followed"], 2u);
  // Loss actually happened: more sends than the loss-free 3, and every
  // resend was preceded by a timeout.
  EXPECT_GT(client.snapshot()["messages_sent"], 3u);
  EXPECT_EQ(client.snapshot()["backoff_retries"],
            client.snapshot()["messages_sent"] - 3u);
}

// --- Satellite: cache expiry at the exact TTL boundary ---------------------

TEST_F(NsHardeningTest, CacheExpiryAtExactBoundaryIsMiss) {
  ResolverClientConfig config;
  config.cache_ttl = 50;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("local/data.txt");
  ASSERT_TRUE(client.resolve(root_, name).is_ok());
  SimTime stamped = sim_.now();  // entry expires at stamped + 50

  sim_.run_until(stamped + 49);
  ASSERT_TRUE(client.resolve(root_, name).is_ok());
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);  // one tick early: still alive

  sim_.run_until(stamped + 50);
  ASSERT_TRUE(client.resolve(root_, name).is_ok());
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);  // exactly at expiry: a miss
  EXPECT_EQ(client.snapshot()["cache_misses"], 2u);
}

// --- Tentpole: bounded LRU cache -------------------------------------------

TEST_F(NsHardeningTest, CacheNeverExceedsCapacityUnderChurn) {
  ResolverClientConfig config;
  config.cache_ttl = 1u << 30;
  config.cache_capacity = 4;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  std::vector<CompoundName> names;
  for (int i = 0; i < 16; ++i) {
    std::string path = "local/churn" + std::to_string(i);
    ASSERT_TRUE(fs_.create_file_at(root_, path, "x").is_ok());
    names.push_back(CompoundName::relative(path));
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& name : names) {
      ASSERT_TRUE(client.resolve(root_, name).is_ok());
      EXPECT_LE(client.cache_size(), config.cache_capacity);
    }
  }
  // 16 distinct names round-robin through 4 slots: every insert past the
  // first 4 evicts, and nothing ever hits.
  EXPECT_EQ(client.snapshot()["evictions"], 48u - 4u);
  EXPECT_EQ(client.snapshot()["cache_hits"], 0u);
  EXPECT_EQ(client.snapshot()["cache_misses"], 48u);
}

TEST_F(NsHardeningTest, LruKeepsRecentlyUsedEntries) {
  ResolverClientConfig config;
  config.cache_ttl = 1u << 30;
  config.cache_capacity = 2;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName a = CompoundName::relative("local/data.txt");
  CompoundName b = CompoundName::relative("local/other.txt");
  CompoundName c = CompoundName::relative("shared/proj/readme");
  ASSERT_TRUE(client.resolve(root_, a).is_ok());  // cache: [a]
  ASSERT_TRUE(client.resolve(root_, b).is_ok());  // cache: [b, a]
  ASSERT_TRUE(client.resolve(root_, a).is_ok());  // hit; cache: [a, b]
  ASSERT_TRUE(client.resolve(root_, c).is_ok());  // evicts b: [c, a]
  EXPECT_EQ(client.snapshot()["evictions"], 1u);
  std::uint64_t hits_before = client.snapshot()["cache_hits"];
  ASSERT_TRUE(client.resolve(root_, a).is_ok());  // a survived (recently used)
  EXPECT_EQ(client.snapshot()["cache_hits"], hits_before + 1);
  ASSERT_TRUE(client.resolve(root_, b).is_ok());  // b was the LRU victim
  EXPECT_EQ(client.snapshot()["cache_misses"], 4u);     // a, b, c, then b again
}

// --- Tentpole: negative caching --------------------------------------------

TEST_F(NsHardeningTest, NegativeCacheServesRepeatedFailures) {
  ResolverClientConfig config;
  config.negative_cache_ttl = 300;  // positive caching stays off
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName ghost = CompoundName::relative("local/ghost");
  auto first = client.resolve(root_, ghost);
  EXPECT_FALSE(first.is_ok());
  SimTime stamped = sim_.now();
  std::uint64_t sent = client.snapshot()["messages_sent"];

  auto second = client.resolve(root_, ghost);
  EXPECT_FALSE(second.is_ok());
  EXPECT_EQ(second.code(), StatusCode::kNotFound);
  EXPECT_EQ(client.snapshot()["messages_sent"], sent);  // served from the cache
  EXPECT_EQ(client.snapshot()["negative_hits"], 1u);

  sim_.run_until(stamped + 300);  // negative TTL lapses (boundary counts)
  auto third = client.resolve(root_, ghost);
  EXPECT_FALSE(third.is_ok());
  EXPECT_GT(client.snapshot()["messages_sent"], sent);  // back to the network
}

// --- Tentpole: epoch-based invalidation ------------------------------------

TEST_F(NsHardeningTest, EpochInvalidationDropsSupersededEntry) {
  ResolverClientConfig config;
  config.cache_ttl = 1u << 30;  // TTL alone would keep the stale lie forever
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("local/data.txt");
  auto before = client.resolve(root_, name);
  ASSERT_TRUE(before.is_ok());

  // The authority rebinds the name...
  EntityId fresh = rebind_local("data.txt", "new contents");
  // ...and the client hears about the directory's new epoch through an
  // unrelated miss in the same directory.
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local/other.txt"))
          .is_ok());

  auto after = client.resolve(root_, name);
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after.value(), fresh);             // reconverged with authority
  EXPECT_NE(after.value(), before.value());
  EXPECT_EQ(client.snapshot()["stale_epoch_drops"], 1u);
}

TEST_F(NsHardeningTest, TtlOnlyCachingKeepsServingStaleBinding) {
  // Control for the test above: with invalidation off, the same sequence
  // keeps resolving to the superseded entity — §5 temporal incoherence.
  ResolverClientConfig config;
  config.cache_ttl = 1u << 30;
  config.epoch_invalidation = false;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("local/data.txt");
  auto before = client.resolve(root_, name);
  ASSERT_TRUE(before.is_ok());
  EntityId fresh = rebind_local("data.txt", "new contents");
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local/other.txt"))
          .is_ok());
  auto after = client.resolve(root_, name);
  ASSERT_TRUE(after.is_ok());
  EXPECT_NE(after.value(), fresh);  // still the stale binding
  EXPECT_EQ(after.value(), before.value());
  EXPECT_EQ(client.snapshot()["stale_epoch_drops"], 0u);
}

TEST_F(NsHardeningTest, NegativeEntryInvalidatedWhenNameAppears) {
  ResolverClientConfig config;
  config.negative_cache_ttl = 1u << 30;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName ghost = CompoundName::relative("local/ghost");
  EXPECT_FALSE(client.resolve(root_, ghost).is_ok());  // cached "no"

  // The name comes into existence; an unrelated lookup in the directory
  // carries the new epoch, superseding the cached error.
  ASSERT_TRUE(fs_.create_file_at(root_, "local/ghost", "now real").is_ok());
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("local/data.txt"))
          .is_ok());
  auto revived = client.resolve(root_, ghost);
  ASSERT_TRUE(revived.is_ok());
  EXPECT_EQ(graph_.data(revived.value()), "now real");
  EXPECT_EQ(client.snapshot()["stale_epoch_drops"], 1u);
}

// --- AuthorityMap::install_delegation re-homes the root ----------------------

TEST_F(NsHardeningTest, InstallDelegationRehomesRoot) {
  // A delegation must never silently no-op when the root already has a
  // different owner, leaving the caller none the wiser.
  ASSERT_EQ(homes_.replicas_of(shared_).front(), m2_);
  ASSERT_TRUE(
      homes_.install_delegation(graph_, shared_, homes_.add_shard({m3_}))
          .is_ok());
  EXPECT_EQ(homes_.replicas_of(shared_).front(), m3_);
  // Descendants that already had their own (now foreign) authority keep it.
  Context ctx = FileSystem::make_process_context(root_, root_);
  EntityId proj = fs_.resolve_path(ctx, "/shared/proj").entity;
  EXPECT_EQ(homes_.replicas_of(proj).front(), m2_);
}

// --- Referral forwarding is slice-based ------------------------------------

TEST_F(NsHardeningTest, RogueReferralRemainingIsRejectedNotForwarded) {
  // Replace m1's server with a rogue that refers the client onward with a
  // "remaining" path that is NOT a suffix of what was asked. The client
  // forwards a verified slice of its own original request, so the rogue
  // text must be rejected instead of resolved.
  transport_.set_handler(
      server1_, [this](EndpointId self, const Message& message) {
        auto request = decode_resolve_request(message);
        if (!request) return;
        ResolveReply reply;
        reply.corr = request->corr;  // echo corr
        reply.disposition = NsWire::kReferral;
        reply.entity = request->start;
        reply.remaining = "evil/detour";
        // One replica (itself) and a shard, so the referral is
        // well-formed and reaches the client's suffix check.
        reply.replicas.push_back(WireServer{Pid::self(), m1_});
        reply.shard = homes_.shard_of(request->start);
        (void)transport_.send(self, message.reply_to,
                              encode_resolve_reply(reply));
      });
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("not a suffix"),
            std::string::npos);
  EXPECT_EQ(client.snapshot()["referrals_followed"], 0u);
  EXPECT_EQ(client.snapshot()["failures"], 1u);
}

TEST_F(NsHardeningTest, HonestReferralChainStillResolves) {
  // The happy path through the same slice machinery: /shared is homed on
  // m2, so a client on m1 is referred and must land on the right file.
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(graph_.data(result.value()), "shared readme");
  EXPECT_GE(client.snapshot()["referrals_followed"], 1u);
}

// --- Rebind epochs at the core layer ---------------------------------------

TEST_F(NsHardeningTest, RebindEpochCountsEffectiveChangesOnly) {
  EntityId dir = graph_.add_context_object("dir");
  EntityId file = graph_.add_data_object("file");
  EntityId other = graph_.add_data_object("other");
  std::uint64_t e0 = graph_.rebind_epoch(dir);
  ASSERT_TRUE(graph_.bind(dir, Name("x"), file).is_ok());
  EXPECT_EQ(graph_.rebind_epoch(dir), e0 + 1);
  ASSERT_TRUE(graph_.bind(dir, Name("x"), file).is_ok());  // same function
  EXPECT_EQ(graph_.rebind_epoch(dir), e0 + 1);
  ASSERT_TRUE(graph_.bind(dir, Name("x"), other).is_ok());  // real rebind
  EXPECT_EQ(graph_.rebind_epoch(dir), e0 + 2);
  ASSERT_TRUE(graph_.unbind(dir, Name("x")).is_ok());
  EXPECT_EQ(graph_.rebind_epoch(dir), e0 + 3);
  EXPECT_FALSE(graph_.unbind(dir, Name("x")).is_ok());  // no-op unbind
  EXPECT_EQ(graph_.rebind_epoch(dir), e0 + 3);
}

// --- Tentpole acceptance: one lossy lookup = one span, full event chain ----

TEST_F(NsHardeningTest, LossyLookupYieldsOneSpanWithFullEventChain) {
  TransportConfig lossy;
  lossy.drop_probability = 1.0;  // total blackout at first
  Transport tp(sim_, net_, lossy);
  tp.tracer().set_enabled(true);
  NameService service(graph_, net_, tp, homes_);
  service.add_server(m1_);
  ResolverClientConfig config;
  config.retry.retries = 2;
  config.retry.request_timeout = 100;
  config.cache_ttl = 1000;  // so the cache probe is part of the story
  ResolverClient client(net_, tp, sim_, service, m1_, "c", config);
  // The first attempt is sent into the blackout; the line heals (an event
  // on the shared clock, fired while the client waits out the first
  // timeout window) before the backoff retry leaves.
  sim_.schedule_at(50, [&] { tp.set_drop_probability(0.0); });

  auto result = client.resolve(root_, CompoundName::relative("local"));
  ASSERT_TRUE(result.is_ok());

  const Tracer& tracer = tp.tracer();
  ASSERT_EQ(tracer.spans().size(), 1u);
  const SpanRecord& span = tracer.spans().front();
  EXPECT_FALSE(span.open);
  EXPECT_TRUE(span.ok);
  EXPECT_EQ(span.start_entity, root_.value());
  EXPECT_EQ(span.path, "local");
  ASSERT_EQ(span.corrs.size(), 2u);  // one correlation id per attempt

  const auto events = tracer.events_for_span(span.id);
  auto count = [&](EventKind kind) {
    return std::count_if(
        events.begin(), events.end(),
        [&](const TraceEvent& e) { return e.kind == kind; });
  };
  EXPECT_EQ(count(EventKind::kCacheMiss), 1);
  EXPECT_EQ(count(EventKind::kSend), 3);  // attempt 1, attempt 2, the reply
  EXPECT_EQ(count(EventKind::kDrop), 1);  // attempt 1, lost
  EXPECT_EQ(count(EventKind::kTimeout), 1);
  EXPECT_EQ(count(EventKind::kBackoffRetry), 1);
  EXPECT_EQ(count(EventKind::kDeliver), 2);  // attempt 2 + its reply
  EXPECT_EQ(count(EventKind::kServerHandle), 1);
  EXPECT_EQ(count(EventKind::kServerAnswer), 1);

  // Cross-machine attachment: the wire events carry the correlation id of
  // the attempt they belong to — the drop is the first attempt's, the
  // server-side handling happened under the second (the one that got
  // through) — yet all of them land in this one span.
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kDrop) {
      EXPECT_EQ(e.corr, span.corrs[0]);
    }
    if (e.kind == EventKind::kServerHandle ||
        e.kind == EventKind::kServerAnswer) {
      EXPECT_EQ(e.corr, span.corrs[1]);
    }
  }

  // And the span is findable FROM a correlation id, the way an operator
  // chasing one wire message would come at it.
  EXPECT_EQ(tracer.span(span.id)->id, span.id);
}

TEST_F(NsHardeningTest, SecondResolutionGetsItsOwnSpan) {
  transport_.tracer().set_enabled(true);
  ResolverClientConfig config;
  config.cache_ttl = 1000;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  ASSERT_TRUE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  const Tracer& tracer = transport_.tracer();
  ASSERT_EQ(tracer.spans().size(), 2u);
  const SpanRecord& first = tracer.spans()[0];
  const SpanRecord& second = tracer.spans()[1];
  EXPECT_EQ(first.corrs.size(), 1u);   // one attempt, no loss
  EXPECT_TRUE(second.corrs.empty());   // pure cache hit: no wire traffic
  auto hit_events = tracer.events_for_span(second.id);
  ASSERT_EQ(hit_events.size(), 3u);  // begin, cache hit, end
  EXPECT_EQ(hit_events[1].kind, EventKind::kCacheHit);
}

// --- Satellite: snapshot() views and the registry must agree ---------------

TEST_F(NsHardeningTest, ClientAndServerSnapshotsMatchRegistry) {
  ResolverClientConfig config;
  config.cache_ttl = 500;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  ASSERT_TRUE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  ASSERT_TRUE(client.resolve(root_, CompoundName::relative("local")).is_ok());
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/readme"))
          .is_ok());

  const MetricsRegistry& metrics = transport_.metrics();
  const std::string prefix =
      "ns.client." + std::to_string(client.endpoint().value()) + ".";
  const StatsSnapshot snap = client.snapshot();
  EXPECT_EQ(snap["resolutions"],
            metrics.counter_value(prefix + "resolutions"));
  EXPECT_EQ(snap["cache_hits"], metrics.counter_value(prefix + "cache_hits"));
  EXPECT_EQ(snap["cache_hits"], 1u);
  EXPECT_EQ(snap["referrals_followed"],
            metrics.counter_value(prefix + "referrals_followed"));
  EXPECT_GE(snap["referrals_followed"], 1u);  // shared/ lives on m2
  const StatsSnapshot server_snap = service_.snapshot();
  EXPECT_EQ(server_snap["requests"],
            metrics.counter_value("ns.server.requests"));
  EXPECT_EQ(server_snap["answers"],
            metrics.counter_value("ns.server.answers"));
  EXPECT_EQ(server_snap["referrals"],
            metrics.counter_value("ns.server.referrals"));
  // Everything lives in ONE registry, exportable in one shot.
  EXPECT_TRUE(metrics.has("transport.sent"));
  EXPECT_FALSE(metrics.to_json().empty());
}

}  // namespace
}  // namespace namecoh
