// Tests for the async resolution engine (docs/ASYNC.md): pipelining of
// concurrent lookups, duplicate-request coalescing (including under
// message loss), per-request reply state, completion callbacks, handle
// settlement on client destruction, the client's referral limit, and
// seeded invariants of the engine under loss, reordering and rebinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"
#include "sim/faults.hpp"
#include "workload/parallel.hpp"

namespace namecoh {
namespace {

// Topology latencies (TransportConfig defaults): client → same-machine
// server round trip = 10 ticks; client → other-machine server round trip
// = 100 ticks. "shared/proj/..." from root_ is a two-hop chain
// (m1 referral, m2 answer): 110 ticks end to end.
constexpr SimDuration kLocalRtt = 10;
constexpr SimDuration kChainTime = 110;

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : fs_(graph_), transport_(sim_, net_),
        service_(graph_, net_, transport_, homes_) {
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(root_, "local/data.txt", "local").is_ok());
    ASSERT_TRUE(
        fs_.create_file_at(shared_, "proj/readme", "shared readme").is_ok());
    for (int i = 0; i < 16; ++i) {
      std::string path = "proj/f" + std::to_string(i);
      ASSERT_TRUE(fs_.create_file_at(shared_, path, "f").is_ok());
    }
    ASSERT_TRUE(fs_.attach(root_, Name("shared"), shared_).is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, shared_, homes_.add_shard({m2_}))
            .is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, root_, homes_.add_shard({m1_}))
            .is_ok());
    service_.add_server(m1_);
    service_.add_server(m2_);
  }

  EntityId expect_entity(const char* path) {
    Context ctx = FileSystem::make_process_context(root_, root_);
    auto found = fs_.resolve_path(ctx, path);
    EXPECT_TRUE(found.status.is_ok()) << path;
    return found.entity;
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  AuthorityMap homes_;
  NameService service_;
  MachineId m1_, m2_;
  EntityId root_, shared_;
};

// --- Tentpole: concurrent resolutions overlap on the wire ------------------

TEST_F(PipelineTest, ConcurrentChainsFinishInOneChainTime) {
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");

  // Baseline: one blocking two-hop resolution takes kChainTime ticks.
  SimTime before = sim_.now();
  ASSERT_TRUE(
      client.resolve(root_, CompoundName::relative("shared/proj/readme"))
          .is_ok());
  ASSERT_EQ(sim_.now() - before, kChainTime);

  // 16 *distinct* lookups (no coalescing) issued back to back. Serially
  // they would cost 16 × kChainTime; pipelined, every chain's hops
  // interleave and the batch finishes in exactly one chain time.
  std::vector<ResolveHandle> handles;
  SimTime start = sim_.now();
  for (int i = 0; i < 16; ++i) {
    std::string path = "shared/proj/f" + std::to_string(i);
    handles.push_back(client.resolve_async(root_, CompoundName::relative(path)));
    EXPECT_FALSE(handles.back().done());
  }
  EXPECT_EQ(client.inflight(), 16u);
  sim_.run();
  EXPECT_EQ(sim_.now() - start, kChainTime);
  EXPECT_EQ(client.inflight(), 0u);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(handles[i].done());
    ASSERT_TRUE(handles[i].result().is_ok());
    std::string path = "/shared/proj/f" + std::to_string(i);
    EXPECT_EQ(handles[i].result().value(), expect_entity(path.c_str()));
  }
  EXPECT_EQ(client.snapshot()["coalesced"], 0u);
  EXPECT_EQ(client.snapshot()["failures"], 0u);
}

TEST_F(PipelineTest, BlockingResolveMatchesAsyncResult) {
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  CompoundName name = CompoundName::relative("shared/proj/readme");
  auto blocking = client.resolve(root_, name);
  ResolveHandle handle = client.resolve_async(root_, name);
  sim_.run();
  ASSERT_TRUE(blocking.is_ok());
  ASSERT_TRUE(handle.done());
  ASSERT_TRUE(handle.result().is_ok());
  EXPECT_EQ(handle.result().value(), blocking.value());
  EXPECT_EQ(blocking.value(), expect_entity("/shared/proj/readme"));
}

// --- Tentpole: duplicate-request coalescing --------------------------------

TEST_F(PipelineTest, IdenticalInflightLookupsShareOneWireExchange) {
  transport_.tracer().set_enabled(true);
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  CompoundName name = CompoundName::relative("shared/proj/readme");

  ResolveHandle owner = client.resolve_async(root_, name);
  ResolveHandle attached = client.resolve_async(root_, name);
  EXPECT_EQ(client.inflight(), 1u);  // one exchange, two waiters
  sim_.run();

  ASSERT_TRUE(owner.done());
  ASSERT_TRUE(attached.done());
  ASSERT_TRUE(owner.result().is_ok());
  ASSERT_TRUE(attached.result().is_ok());
  EXPECT_EQ(owner.result().value(), attached.result().value());

  auto stats = client.snapshot();
  EXPECT_EQ(stats["resolutions"], 2u);
  EXPECT_EQ(stats["coalesced"], 1u);
  EXPECT_EQ(stats["messages_sent"], 2u);  // two hops, sent once each
  EXPECT_EQ(service_.snapshot()["requests"], 2u);  // one per hop, not four

  // Each waiter has its own span; the wire correlation ids live on the
  // owner's span, and the attached span records the kCoalesced event.
  const Tracer& tracer = transport_.tracer();
  ASSERT_NE(owner.span(), 0u);
  ASSERT_NE(attached.span(), 0u);
  EXPECT_NE(owner.span(), attached.span());
  auto span_by_id = [&tracer](std::uint64_t id) -> const SpanRecord* {
    for (const SpanRecord& span : tracer.spans()) {
      if (span.id == id) return &span;
    }
    return nullptr;
  };
  const SpanRecord* owner_span = span_by_id(owner.span());
  const SpanRecord* attached_span = span_by_id(attached.span());
  ASSERT_NE(owner_span, nullptr);
  ASSERT_NE(attached_span, nullptr);
  EXPECT_FALSE(owner_span->open);
  EXPECT_FALSE(attached_span->open);
  EXPECT_TRUE(owner_span->ok);
  EXPECT_TRUE(attached_span->ok);
  EXPECT_EQ(owner_span->corrs.size(), 2u);
  EXPECT_TRUE(attached_span->corrs.empty());
  auto attached_events = tracer.events_for_span(attached.span());
  auto coalesced = std::find_if(
      attached_events.begin(), attached_events.end(),
      [](const TraceEvent& e) { return e.kind == EventKind::kCoalesced; });
  ASSERT_NE(coalesced, attached_events.end());
  EXPECT_EQ(coalesced->a, root_.value());
  EXPECT_EQ(coalesced->b, owner.span());  // the exchange it attached to
  EXPECT_EQ(std::count_if(attached_events.begin(), attached_events.end(),
                          [](const TraceEvent& e) {
                            return e.kind == EventKind::kCoalesced;
                          }),
            1);
}

// Satellite: coalescing under fault injection. The exchange's first send
// is lost; both waiters must settle from the single retried request —
// exactly one wire request per attempt, never one per waiter.
TEST_F(PipelineTest, CoalescedWaitersBothCompleteAfterRetry) {
  ResolverClientConfig config;
  config.retry.retries = 1;
  config.retry.request_timeout = 100;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  transport_.set_drop_probability(1.0);
  sim_.schedule_at(50, [this] { transport_.set_drop_probability(0.0); });

  CompoundName name = CompoundName::relative("local/data.txt");
  ResolveHandle owner = client.resolve_async(root_, name);
  ResolveHandle attached = client.resolve_async(root_, name);
  sim_.run();

  // t=0 send dropped; t=100 timeout → retry delivered; reply at t=110.
  EXPECT_EQ(sim_.now(), 110u);
  ASSERT_TRUE(owner.done());
  ASSERT_TRUE(attached.done());
  ASSERT_TRUE(owner.result().is_ok());
  ASSERT_TRUE(attached.result().is_ok());
  EXPECT_EQ(owner.result().value(), expect_entity("/local/data.txt"));
  EXPECT_EQ(attached.result().value(), owner.result().value());

  auto stats = client.snapshot();
  EXPECT_EQ(stats["coalesced"], 1u);
  EXPECT_EQ(stats["messages_sent"], 2u);   // first attempt + one retry
  EXPECT_EQ(stats["timeouts"], 1u);
  EXPECT_EQ(stats["backoff_retries"], 1u);
  EXPECT_EQ(stats["failures"], 0u);
  EXPECT_EQ(service_.snapshot()["requests"], 1u);  // only the retry arrived
  EXPECT_EQ(service_.snapshot()["answers"], 1u);
}

// --- Satellite: per-request reply state ------------------------------------

// Regression for the client-wide reply_* scratch fields: a fast local
// reply landing while a slower referral chain is mid-flight must not
// clobber the other resolution's decoded state.
TEST_F(PipelineTest, OverlappingResolutionsKeepReplyStateSeparate) {
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  ResolveHandle fast =
      client.resolve_async(root_, CompoundName::relative("local/data.txt"));
  ResolveHandle slow = client.resolve_async(
      root_, CompoundName::relative("shared/proj/readme"));
  ResolveHandle missing =
      client.resolve_async(root_, CompoundName::relative("shared/proj/ghost"));
  EXPECT_EQ(client.inflight(), 3u);

  // The fast reply (t=10) arrives while the other chains are between
  // hops; drive to just past it and check nothing else settled early.
  sim_.run_until(kLocalRtt + 1);
  EXPECT_TRUE(fast.done());
  EXPECT_FALSE(slow.done());
  EXPECT_FALSE(missing.done());
  sim_.run();

  ASSERT_TRUE(slow.done());
  ASSERT_TRUE(missing.done());
  ASSERT_TRUE(fast.result().is_ok());
  ASSERT_TRUE(slow.result().is_ok());
  EXPECT_EQ(fast.result().value(), expect_entity("/local/data.txt"));
  EXPECT_EQ(slow.result().value(), expect_entity("/shared/proj/readme"));
  EXPECT_FALSE(missing.result().is_ok());
  EXPECT_EQ(missing.result().code(), StatusCode::kNotFound);
}

// --- Callbacks -------------------------------------------------------------

TEST_F(PipelineTest, CallbackFiresOnceAndMayChainResolutions) {
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  int first_calls = 0;
  int second_calls = 0;
  Result<EntityId> second_result = internal_error("not yet");
  client.resolve_async(
      root_, CompoundName::relative("local/data.txt"),
      [&](const Result<EntityId>& result) {
        ++first_calls;
        ASSERT_TRUE(result.is_ok());
        // Submitting from inside a completion is allowed.
        client.resolve_async(
            root_, CompoundName::relative("shared/proj/readme"),
            [&](const Result<EntityId>& chained) {
              ++second_calls;
              second_result = chained;
            });
      });
  sim_.run();
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 1);
  ASSERT_TRUE(second_result.is_ok());
  EXPECT_EQ(second_result.value(), expect_entity("/shared/proj/readme"));
}

TEST_F(PipelineTest, SynchronousSettlementsInvokeCallbackBeforeReturn) {
  ResolverClientConfig config;
  config.cache_ttl = 1000;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  CompoundName name = CompoundName::relative("local/data.txt");
  ASSERT_TRUE(client.resolve(root_, name).is_ok());  // warm the cache

  bool fired = false;
  ResolveHandle handle = client.resolve_async(
      root_, name, [&](const Result<EntityId>& result) {
        fired = true;
        EXPECT_TRUE(result.is_ok());
      });
  EXPECT_TRUE(fired);         // cache hit settles at submission
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(client.snapshot()["cache_hits"], 1u);
}

// --- Lifecycle -------------------------------------------------------------

TEST_F(PipelineTest, DestroyedClientSettlesOutstandingHandles) {
  // Two keys in flight, a coalesced waiter on the first, and a backoff
  // resend awaiting its timeout on each: the remote hop's round trip
  // (100 ticks) outlasts the 30-tick attempt deadline.
  ResolverClientConfig config;
  config.retry.retries = 3;
  config.retry.request_timeout = 30;
  std::vector<ResolveHandle> orphans;
  std::vector<int> settled(3, 0);
  auto count = [&settled](std::size_t i) {
    return [&settled, i](const Result<EntityId>&) { ++settled[i]; };
  };
  {
    ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                          config);
    const auto readme = CompoundName::relative("shared/proj/readme");
    orphans.push_back(client.resolve_async(root_, readme, count(0)));
    orphans.push_back(client.resolve_async(root_, readme, count(1)));
    orphans.push_back(client.resolve_async(
        root_, CompoundName::relative("shared/proj/f0"), count(2)));
    sim_.run_until(sim_.now() + 60);
    EXPECT_EQ(client.inflight(), 2u);
    EXPECT_EQ(client.snapshot()["coalesced"], 1u);
    EXPECT_EQ(client.snapshot()["timeouts"], 2u);  // one per exchange
    for (const ResolveHandle& orphan : orphans) EXPECT_FALSE(orphan.done());
  }
  // Settled by the destructor, once each, not leaked.
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    ASSERT_TRUE(orphans[i].done()) << i;
    EXPECT_EQ(orphans[i].result().code(), StatusCode::kUnreachable) << i;
    EXPECT_EQ(settled[i], 1) << i;
  }
  // Stray replies to the dead endpoint and the cancelled deadlines must be
  // harmless: nothing fires into the destroyed client's records.
  sim_.run();
  EXPECT_EQ(settled, std::vector<int>(3, 1));
}

// --- The client's referral limit -------------------------------------------

TEST_F(PipelineTest, ReferralLimitZeroReportsDepthExceeded) {
  ResolverClientConfig config;
  config.max_referrals = 0;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  auto result =
      client.resolve(root_, CompoundName::relative("shared/proj/readme"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.code(), StatusCode::kDepthExceeded);
  auto stats = client.snapshot();
  EXPECT_EQ(stats["referrals_followed"], 1u);  // the limit-breaking one
  EXPECT_EQ(stats["failures"], 1u);
}

// --- The closed-loop parallel workload -------------------------------------

TEST_F(PipelineTest, ClosedLoopWorkloadDrivesConcurrentActivities) {
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c");
  std::vector<ParallelQuery> queries;
  for (int i = 0; i < 16; ++i) {
    std::string path = "shared/proj/f" + std::to_string(i);
    queries.push_back({root_, CompoundName::relative(path)});
  }
  ParallelSpec spec;
  spec.activities = 8;
  spec.total_resolutions = 40;
  spec.think_time = 10;
  ParallelOutcome out = run_parallel(sim_, client, queries, spec);
  EXPECT_EQ(out.issued, 40u);
  EXPECT_EQ(out.completed, 40u);
  EXPECT_EQ(out.ok, 40u);
  EXPECT_EQ(out.failed, 0u);
  // 8-way overlap: the batch must beat a serial schedule by a wide margin
  // (40 serial chains would cost 40 × kChainTime even with zero think).
  EXPECT_LT(out.elapsed(), 40 * kChainTime);
  EXPECT_GE(out.elapsed(), kChainTime);
  EXPECT_EQ(client.inflight(), 0u);
}

// --- Seeded invariants of the client engine --------------------------------

/// Random resolve_async bursts over eight keys against a lossy, reordering
/// network, with leases on and random rebinds. Whatever the schedule, the
/// engine keeps at most one exchange per (context, name) and settles every
/// waiter exactly once.
class ClientEngineInvariants : public ::testing::TestWithParam<int> {
 protected:
  static constexpr SimTime kBurstWindow = 8000;
  static constexpr SimTime kProbeUntil = 40000;

  ClientEngineInvariants()
      : fs_(graph_),
        transport_(sim_, net_, lossy(),
                   static_cast<std::uint64_t>(GetParam())),
        faults_(sim_),
        service_(graph_, net_, transport_, homes_),
        rng_(static_cast<std::uint64_t>(GetParam())) {
    transport_.attach_faults(&faults_);
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    m3_ = net_.add_machine(lan, "m3");
    root_ = fs_.make_root("m1-root");
    shared_ = fs_.make_root("shared");
  }

  static TransportConfig lossy() {
    TransportConfig config;
    config.drop_probability = 0.1;
    return config;
  }

  void SetUp() override {
    ASSERT_TRUE(fs_.create_file_at(root_, "local/data.txt", "d").is_ok());
    for (int i = 0; i < 4; ++i) {
      const std::string path = "proj/f" + std::to_string(i);
      ASSERT_TRUE(fs_.create_file_at(shared_, path, "v0").is_ok());
    }
    ASSERT_TRUE(fs_.attach(root_, Name("shared"), shared_).is_ok());
    ASSERT_TRUE(homes_
                    .install_delegation(graph_, shared_,
                                        homes_.add_shard({m2_, m3_}))
                    .is_ok());
    ASSERT_TRUE(
        homes_.install_delegation(graph_, root_, homes_.add_shard({m1_}))
            .is_ok());
    service_.add_server(m1_);
    service_.add_server(m2_);
    service_.add_server(m3_);
    service_.set_lease_policy(500);
    Context ctx = FileSystem::make_process_context(root_, root_);
    proj_ = fs_.resolve_path(ctx, "/shared/proj").entity;
    ASSERT_TRUE(proj_.valid());
    for (EntityId replicated : homes_.replicated_contexts()) {
      service_.publish_update(replicated);
    }
    sim_.run();
    // Seven keys that go to the wire (answers, a NOT_FOUND and a context)
    // and one absolute name, which the client refuses synchronously.
    for (const char* path :
         {"local/data.txt", "shared/proj/f0", "shared/proj/f1",
          "shared/proj/f2", "shared/proj/f3", "shared/proj/ghost",
          "shared/proj"}) {
      names_.push_back(CompoundName::relative(path));
    }
    names_.push_back(CompoundName::path("/local/data.txt"));
  }

  std::uint64_t draw(std::uint64_t bound) { return rng_() % bound; }

  void rebind(std::size_t file) {
    const Name name("f" + std::to_string(file));
    ASSERT_TRUE(fs_.unlink(proj_, name).is_ok());
    ASSERT_TRUE(fs_.create_file(proj_, name, "v").is_ok());
    service_.publish_update(proj_);
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  FaultInjector faults_;
  AuthorityMap homes_;
  NameService service_;
  std::mt19937_64 rng_;
  MachineId m1_, m2_, m3_;
  EntityId root_, shared_, proj_;
  std::vector<CompoundName> names_;
};

TEST_P(ClientEngineInvariants, OneExchangePerKeyAndEveryWaiterSettlesOnce) {
  // Declared before the client: its destructor settles what is still in
  // flight, and those callbacks write here.
  std::vector<int> fired;
  std::vector<bool> ok;
  ResolverClientConfig config;
  config.cache_ttl = 400;
  config.negative_cache_ttl = 150;
  config.lease_coherence = true;
  config.retry.retries = 2;
  config.retry.request_timeout = 250;
  config.replica_quarantine = 1000;
  ResolverClient client(net_, transport_, sim_, service_, m1_, "c",
                        config);
  const SimTime base = sim_.now();  // past SetUp's snapshot pushes
  faults_.add_reorder_window(base, base + kProbeUntil, 80,
                             static_cast<std::uint64_t>(GetParam()));
  const SimTime cut = base + 500 + draw(kBurstWindow);
  faults_.schedule_partition(cut, m1_.value(), m2_.value());
  faults_.schedule_heal(cut + 300 + draw(2000), m1_.value(), m2_.value());

  std::set<std::size_t> keys;
  std::uint64_t launched = 0;
  std::uint64_t sync_errors = 0;
  std::size_t worst_excess = 0;  // max of inflight() - distinct keys
  auto submit = [&](std::size_t key) {
    const StatsSnapshot before = client.snapshot();
    const std::size_t inflight_before = client.inflight();
    const std::size_t i = fired.size();
    fired.push_back(0);
    ok.push_back(false);
    keys.insert(key);
    client.resolve_async(root_, names_[key],
                         [&fired, &ok, i](const Result<EntityId>& result) {
                           ++fired[i];
                           ok[i] = result.is_ok();
                         });
    const StatsSnapshot after = client.snapshot();
    const bool hit = after["cache_hits"] != before["cache_hits"];
    const bool negative_hit = after["negative_hits"] != before["negative_hits"];
    // A hit may launch a background lease refresh; that is no lookup's
    // exchange.
    if (!hit && !negative_hit && client.inflight() == inflight_before + 1) {
      ++launched;
    }
    if (fired[i] == 1 && !ok[i] && !negative_hit) ++sync_errors;
  };
  auto probe = [&] {
    if (client.inflight() > keys.size()) {
      worst_excess = std::max(worst_excess, client.inflight() - keys.size());
    }
  };

  // Every key twice at t=0: nothing is cached yet, so each second lookup
  // must attach to the first one's exchange.
  for (std::size_t key = 0; key < names_.size(); ++key) submit(key);
  for (std::size_t key = 0; key < names_.size(); ++key) submit(key);
  probe();
  for (int burst = 0; burst < 25; ++burst) {
    const std::uint64_t size = 2 + draw(15);
    sim_.schedule_at(base + draw(kBurstWindow), [&, size] {
      for (std::uint64_t j = 0; j < size; ++j) submit(draw(names_.size()));
      probe();
    });
  }
  for (int r = 0; r < 8; ++r) {
    const std::size_t file = draw(4);
    sim_.schedule_at(base + draw(kBurstWindow),
                     [this, file] { rebind(file); });
  }
  for (SimTime t = 25; t < kProbeUntil; t += 25) {
    sim_.schedule_at(base + t, probe);
  }
  sim_.run();

  EXPECT_EQ(worst_excess, 0u) << "more exchanges in flight than keys";
  EXPECT_EQ(client.inflight(), 0u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], 1) << "submission " << i;
  }
  const StatsSnapshot stats = client.snapshot();
  EXPECT_EQ(stats["resolutions"], fired.size());
  EXPECT_EQ(stats["resolutions"], stats["cache_hits"] + stats["negative_hits"] +
                                      stats["coalesced"] + launched +
                                      sync_errors);
  EXPECT_GE(stats["coalesced"], names_.size() - 1);
  EXPECT_GT(launched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientEngineInvariants,
                         ::testing::Range(1, 61));

}  // namespace
}  // namespace namecoh
