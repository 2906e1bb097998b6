// Experiment X6 (extension): the cache-coherence spectrum — TTL vs
// epoch-pull vs lease-push, healthy and partitioned.
//
// The paper's §5 frames naming coherence as a spectrum of how much two
// parties' views may drift. The resolver cache adds a *temporal* axis to
// that spectrum: how long may a client keep acting on a binding the
// authority has since rebound? This experiment measures that window
// empirically for the three cache policies the client implements
// (docs/COHERENCE.md) and checks each observation against the analyzer's
// closed-form bound (coherence/staleness_bound):
//
//   * ttl-only: the stale entry serves until its TTL runs out;
//   * epoch-pull: the window closes at the next contact with the authority
//     (the revisit raises the epoch high-water mark, killing the entry);
//   * lease-push: the authority's kInvalidate callback closes the window in
//     one push transit — the Gray–Cheriton result.
//
// With the authority → client path partitioned, the push and the revisit
// answers are both lost: every policy degrades to the TTL bound, and the
// lease client records an explicit lease_degrade instead of trusting a
// promise nobody can keep. The claim recorded in EXPERIMENTS.md: the lease
// window is strictly smaller than both alternatives when healthy, at
// comparable wire overhead, and never worse than TTL-only when partitioned.
#include <cstdint>
#include <string>

#include "bench_common.hpp"
#include "coherence/coherence.hpp"
#include "fs/file_system.hpp"
#include "ns/name_service.hpp"
#include "sim/faults.hpp"

namespace namecoh {
namespace {

// All ticks. The entry is primed at ~110 (one local referral + one LAN
// round trip), rebound at 1000, and probed every 25 ticks until 9000.
constexpr SimDuration kTtl = 4000;
constexpr SimDuration kLeaseTerm = 2000;
constexpr SimDuration kRevisitEvery = 1000;
constexpr SimDuration kPushOneWay = 50;  // same-network one-way latency
// Off the revisit grid: a rebind landing exactly on a revisit tick would
// close the epoch-pull window before a single stale probe could land.
constexpr SimTime kRebindAt = 1100;
constexpr SimTime kHealAt = 6000;
constexpr SimTime kEnd = 9000;
constexpr SimDuration kProbeEvery = 25;
// Observed windows lag the closed-form bound by at most one probe interval
// plus one full referral-chase round trip.
constexpr std::uint64_t kSlack = kProbeEvery + 110;

struct X6World {
  NamingGraph graph;
  FileSystem fs{graph};
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  FaultInjector faults{sim};
  AuthorityMap homes;
  NameService service{graph, net, transport, homes};
  MachineId m1, m2;
  EntityId root, shared, proj, readme;

  X6World() {
    transport.attach_faults(&faults);
    NetworkId lan = net.add_network("lan");
    m1 = net.add_machine(lan, "m1");
    m2 = net.add_machine(lan, "m2");
    root = fs.make_root("m1-root");
    shared = fs.make_root("shared");
    NAMECOH_CHECK(fs.create_file_at(shared, "proj/readme", "v0").is_ok(), "");
    NAMECOH_CHECK(fs.attach(root, Name("shared"), shared).is_ok(), "");
    NAMECOH_CHECK(
        homes.install_delegation(graph, shared, homes.add_shard({m2})).is_ok(),
        "delegate shared");
    NAMECOH_CHECK(
        homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok(),
        "delegate root");
    service.add_server(m1);
    service.add_server(m2);
    service.set_lease_policy(kLeaseTerm);
    Context ctx = FileSystem::make_process_context(root, root);
    proj = fs.resolve_path(ctx, "/shared/proj").entity;
    readme = fs.resolve_path(ctx, "/shared/proj/readme").entity;
    NAMECOH_CHECK(proj.valid() && readme.valid(), "shared tree");
  }

  EntityId rebind_readme() {
    NAMECOH_CHECK(fs.unlink(proj, Name("readme")).is_ok(), "unlink");
    auto created = fs.create_file(proj, Name("readme"), "v1");
    NAMECOH_CHECK(created.is_ok(), "create");
    return created.value();
  }
};

ResolverClientConfig config_for(CachePolicy policy) {
  ResolverClientConfig cfg;
  cfg.cache_ttl = kTtl;
  cfg.retry.request_timeout = 300;
  cfg.retry.retries = 0;
  cfg.epoch_invalidation = policy != CachePolicy::kTtlOnly;
  cfg.lease_coherence = policy == CachePolicy::kLeasePush;
  return cfg;
}

struct RunOutcome {
  std::int64_t stale_last = -1;   // last stale serve, ticks after the rebind
  std::int64_t fresh_first = -1;  // first fresh serve, ticks after the rebind
  std::uint64_t failed_probes = 0;
  std::uint64_t messages = 0;
  std::uint64_t invalidates = 0;
  std::uint64_t degrades = 0;
};

/// One full scenario: prime the cache, rebind at kRebindAt (optionally
/// into a one-way authority → client partition healed at kHealAt), probe
/// every kProbeEvery ticks, and record when the stale binding was last —
/// and the rebound one first — served.
RunOutcome run_policy(CachePolicy policy, bool partitioned) {
  X6World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "x6", config_for(policy));
  const CompoundName target = CompoundName::relative("shared/proj/readme");
  auto primed = client.resolve(w.root, target);
  NAMECOH_CHECK(primed.is_ok(), "priming resolution failed");
  const EntityId old_entity = primed.value();

  w.sim.schedule_at(kRebindAt, [&] {
    if (partitioned) w.faults.partition_one_way(w.m2.value(), w.m1.value());
    (void)w.rebind_readme();
    w.service.publish_update(w.proj);
  });
  if (partitioned) {
    w.sim.schedule_at(kHealAt, [&] {
      w.faults.heal_one_way(w.m2.value(), w.m1.value());
    });
  }

  RunOutcome out;
  int revisit = 0;
  for (SimTime t = kProbeEvery; t <= kEnd; t += kProbeEvery) {
    if (w.sim.now() < t) w.sim.run_until(t);
    if (policy == CachePolicy::kEpochPull && t % kRevisitEvery == 0) {
      // The epoch-pull revisit: any contact with the authority refreshes
      // the high-water mark. A never-bound sibling keeps the contact from
      // being satisfied by the cache.
      (void)client.resolve(
          w.root, CompoundName::relative("shared/proj/absent" +
                                         std::to_string(revisit++)));
    }
    auto r = client.resolve(w.root, target);
    const SimTime served_at = w.sim.now();
    if (!r.is_ok()) {
      ++out.failed_probes;
      continue;
    }
    if (served_at < kRebindAt) continue;
    const auto offset = static_cast<std::int64_t>(served_at - kRebindAt);
    if (r.value() == old_entity) {
      out.stale_last = offset;
    } else if (out.fresh_first < 0) {
      out.fresh_first = offset;
    }
  }
  StatsSnapshot stats = client.snapshot();
  out.messages = stats["messages_sent"];
  out.invalidates = stats["invalidates_received"];
  out.degrades = stats["lease_degrades"];
  return out;
}

void run_experiment() {
  bench::print_header(
      "X6 (extension): cache-coherence spectrum — TTL vs epoch vs lease",
      "The lease's push invalidation closes the staleness window in one "
      "transit;\nepoch-pull closes it at the next authority contact; "
      "TTL-only rides out the\nfull TTL. Partitioned, every policy degrades "
      "to the TTL bound (§5 spectrum,\ndocs/COHERENCE.md).");

  const CachePolicy policies[] = {CachePolicy::kTtlOnly,
                                  CachePolicy::kEpochPull,
                                  CachePolicy::kLeasePush};
  Table t({"policy", "partition", "predicted bound", "stale window (last)",
           "fresh after", "client msgs", "failed probes"});
  RunOutcome healthy[3];
  RunOutcome parted[3];
  for (int mode = 0; mode < 2; ++mode) {
    const bool partitioned = mode == 1;
    for (int i = 0; i < 3; ++i) {
      const CachePolicy policy = policies[i];
      CacheCoherenceParams params;
      params.ttl = kTtl;
      params.revisit_interval = kRevisitEvery;
      params.push_latency = kPushOneWay;
      params.partitioned = partitioned;
      const std::uint64_t bound = staleness_bound(policy, params);
      RunOutcome out = run_policy(policy, partitioned);
      (partitioned ? parted : healthy)[i] = out;
      const std::string scenario = std::string(cache_policy_name(policy)) +
                                   (partitioned ? "/partitioned" : "/healthy");
      NAMECOH_CHECK(out.stale_last >= 0 && out.fresh_first >= 0,
                    scenario + ": never observed both sides of the rebind");
      NAMECOH_CHECK(static_cast<std::uint64_t>(out.stale_last) <=
                        bound + kSlack,
                    scenario + ": staleness exceeded the analyzer's bound");
      t.add_row({std::string(cache_policy_name(policy)),
                 partitioned ? "yes" : "no", std::to_string(bound),
                 std::to_string(out.stale_last),
                 std::to_string(out.fresh_first),
                 std::to_string(out.messages),
                 std::to_string(out.failed_probes)});
    }
  }
  t.print(std::cout);

  // The ordering claims behind the table. Healthy: strictly finer windows
  // left to right on the spectrum, at wire overhead within one refetch
  // budget of each other for ttl vs lease.
  NAMECOH_CHECK(healthy[2].stale_last < healthy[1].stale_last &&
                    healthy[1].stale_last < healthy[0].stale_last,
                "expected lease < epoch < ttl staleness when healthy");
  NAMECOH_CHECK(healthy[2].invalidates >= 1,
                "lease run saw no invalidate push");
  NAMECOH_CHECK(healthy[2].messages <= healthy[0].messages + 16,
                "lease wire overhead not comparable to ttl-only");
  // Partitioned: nobody beats — or busts — the TTL bound, and the lease
  // client degraded explicitly rather than hanging or serving past it.
  for (const RunOutcome& out : parted) {
    NAMECOH_CHECK(static_cast<std::uint64_t>(out.stale_last) <= kTtl,
                  "partitioned staleness exceeded the TTL bound");
  }
  NAMECOH_CHECK(parted[2].degrades >= 1,
                "partitioned lease run never degraded to TTL");
  NAMECOH_CHECK(parted[2].invalidates == 0,
                "partition failed to suppress the push");
  std::cout << "(healthy: the lease window is one push transit — two orders "
               "below TTL-only\n— for " +
                   std::to_string(healthy[2].messages) + " vs " +
                   std::to_string(healthy[0].messages) +
                   " client messages; partitioned: all three ride\nout the "
                   "TTL, the lease client counting an explicit degrade)\n"
            << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_CacheHitPlain(benchmark::State& state) {
  // Steady-state cache hit with leases off: the baseline the lease-mode
  // hit path is measured against.
  X6World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench", config_for(CachePolicy::kTtlOnly));
  const CompoundName target = CompoundName::relative("shared/proj/readme");
  (void)client.resolve(w.root, target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(w.root, target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHitPlain);

void BM_CacheHitLeased(benchmark::State& state) {
  // The same hit through the lease-mode path: one extra term check
  // (maybe_renew) per hit. The simulated clock never advances here, so the
  // term stays comfortable and no renewal traffic is generated.
  X6World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench", config_for(CachePolicy::kLeasePush));
  const CompoundName target = CompoundName::relative("shared/proj/readme");
  (void)client.resolve(w.root, target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(w.root, target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHitLeased);

void BM_InvalidateRoundTrip(benchmark::State& state) {
  // One full coherence cycle: rebind, push the callback, client refetches.
  X6World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench", config_for(CachePolicy::kLeasePush));
  const CompoundName target = CompoundName::relative("shared/proj/readme");
  (void)client.resolve(w.root, target);
  for (auto _ : state) {
    (void)w.rebind_readme();
    w.service.publish_update(w.proj);
    w.sim.run();
    benchmark::DoNotOptimize(client.resolve(w.root, target));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InvalidateRoundTrip);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
