// Experiment X1 (extension; DESIGN.md "optional/extension features").
//
// The paper's coherence notion is *spatial* (different activities, same
// instant). Real distributed name services (DNS, the §5.2 DCE CDS, modern
// ZooKeeper/etcd consumers) add caches, which introduce *temporal*
// incoherence: a cached binding that outlives a rebind makes a client
// disagree with the authority. This experiment quantifies the classic
// trade-off on our messaging substrate:
//
//   * cost: messages and simulated latency per resolution — local vs
//     referral vs cache-hit;
//   * correctness: fraction of resolutions agreeing with the authority, as
//     a function of cache TTL vs rebind interval.
#include <fstream>

#include "bench_common.hpp"
#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace namecoh {
namespace {

struct NsWorld {
  NamingGraph graph;
  FileSystem fs{graph};
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  AuthorityMap homes;
  NameService service{graph, net, transport, homes};
  MachineId m1, m2;
  EntityId root, shared;
  std::vector<CompoundName> local_names, remote_names;

  NsWorld() {
    NetworkId lan = net.add_network("lan");
    m1 = net.add_machine(lan, "m1");
    m2 = net.add_machine(lan, "m2");
    root = fs.make_root("m1-root");
    shared = fs.make_root("shared");
    for (int i = 0; i < 16; ++i) {
      NAMECOH_CHECK(fs.create_file_at(root,
                                      "local/f" + std::to_string(i), "x")
                        .is_ok(), "");
      NAMECOH_CHECK(fs.create_file_at(shared,
                                      "proj/f" + std::to_string(i), "y")
                        .is_ok(), "");
      local_names.push_back(
          CompoundName::relative("local/f" + std::to_string(i)));
      remote_names.push_back(
          CompoundName::relative("shared/proj/f" + std::to_string(i)));
    }
    NAMECOH_CHECK(fs.attach(root, Name("shared"), shared).is_ok(), "");
    NAMECOH_CHECK(
        homes.install_delegation(graph, shared, homes.add_shard({m2})).is_ok(),
        "delegate shared");
    NAMECOH_CHECK(
        homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok(),
        "delegate root");
    service.add_server(m1);
    service.add_server(m2);
  }
};

void run_experiment() {
  bench::print_header(
      "X1 (extension): distributed resolution & cache temporal incoherence",
      "Referrals double the message cost; caching removes it entirely but "
      "trades\nagreement with the authority for TTL-bounded staleness.");

  // Part 1: cost per resolution kind.
  {
    NsWorld w;
    ResolverClientConfig cached_cfg;
    cached_cfg.cache_ttl = 1u << 30;  // effectively infinite
    Table t({"resolution kind", "messages per resolve",
             "sim ticks per resolve"});
    auto measure = [&](const std::vector<CompoundName>& names,
                       ResolverClientConfig cfg, bool warm,
                       const std::string& label) {
      ResolverClient client(w.net, w.transport, w.sim, w.service,
                            w.m1, "c", cfg);
      if (warm) {
        for (const auto& n : names) (void)client.resolve(w.root, n);
      }
      std::uint64_t msgs_before = client.snapshot()["messages_sent"];
      SimTime t0 = w.sim.now();
      for (const auto& n : names) {
        NAMECOH_CHECK(client.resolve(w.root, n).is_ok(), "resolve");
      }
      double n = static_cast<double>(names.size());
      t.add_row(
          {label,
           bench::frac(static_cast<double>(client.snapshot()["messages_sent"] -
                                           msgs_before) / n, 2),
           bench::frac(static_cast<double>(w.sim.now() - t0) / n, 1)});
    };
    measure(w.local_names, {}, false, "local (authoritative on this machine)");
    measure(w.remote_names, {}, false, "remote (one referral)");
    measure(w.remote_names, cached_cfg, true, "remote, cache warm");
    t.print(std::cout);
  }

  // Part 2: staleness — agreement with the authority vs TTL, with and
  // without epoch-based invalidation. The workload rebinds a random local
  // file every `rebind_every` ticks; every 4th step the client also probes
  // an uncached name in the same directory (think: the steady trickle of
  // misses a real client generates), which is what carries fresh rebind
  // epochs back. TTL-only clients keep serving the superseded binding for
  // the full TTL; invalidating clients drop it at the next authority
  // contact.
  Table t2({"cache TTL (ticks)", "invalidation", "agreement",
            "cache hit rate", "stale-epoch drops"});
  for (SimDuration ttl :
       {SimDuration{200}, SimDuration{2000}, SimDuration{20000}}) {
    for (bool invalidation : {false, true}) {
      NsWorld w;
      const SimDuration rebind_every = 2000;
      ResolverClientConfig cfg;
      cfg.cache_ttl = ttl;
      cfg.epoch_invalidation = invalidation;
      ResolverClient client(w.net, w.transport, w.sim, w.service,
                            w.m1, "c", cfg);
      Context root_ctx = FileSystem::make_process_context(w.root, w.root);
      EntityId local_dir = w.fs.resolve_path(root_ctx, "/local").entity;
      CompoundName probe = CompoundName::relative("local/missing");
      Rng rng(5);
      FractionCounter agree;
      SimTime next_rebind = rebind_every;
      for (int step = 0; step < 400; ++step) {
        // Advance time; rebind a random local file on schedule.
        w.sim.run_until(w.sim.now() + 97);
        if (w.sim.now() >= next_rebind) {
          next_rebind += rebind_every;
          std::size_t idx = static_cast<std::size_t>(
              rng.next_below(w.local_names.size()));
          Name leaf = w.local_names[idx].back();
          (void)w.fs.unlink(local_dir, leaf);
          (void)w.fs.create_file(local_dir, leaf, "v" + std::to_string(step));
        }
        if (step % 4 == 0) (void)client.resolve(w.root, probe);
        const CompoundName& name = rng.pick(w.local_names);
        auto via_client = client.resolve(w.root, name);
        Resolution truth = resolve_from(w.graph, w.root, name);
        agree.add(via_client.is_ok() && truth.ok() &&
                  via_client.value() == truth.entity);
      }
      double lookups = static_cast<double>(client.snapshot()["cache_hits"] +
                                           client.snapshot()["cache_misses"]);
      t2.add_row({std::to_string(ttl), invalidation ? "epoch" : "TTL only",
                  bench::frac(agree.fraction()),
                  bench::frac(static_cast<double>(client.snapshot()["cache_hits"]) /
                              lookups),
                  std::to_string(client.snapshot()["stale_epoch_drops"])});
    }
  }
  t2.print(std::cout);
  std::cout << "(TTL-only: cached lies survive the full TTL, so agreement "
               "decays as TTL\ngrows; epoch invalidation drops superseded "
               "entries at the next authority\ncontact, holding agreement "
               "high at a small hit-rate cost)\n"
            << std::endl;

  // Part 3: bounded LRU + negative cache under churn. 24 real names and 8
  // ghosts round-robin through a small cache; the LRU bound must hold at
  // every step and repeated failures should be absorbed by the negative
  // entries instead of the network.
  Table t3({"capacity", "max cache size", "evictions", "negative hits",
            "cache hit rate"});
  for (std::size_t capacity : {std::size_t{4}, std::size_t{8},
                               std::size_t{16}}) {
    NsWorld w;
    ResolverClientConfig cfg;
    cfg.cache_ttl = 1u << 30;
    cfg.negative_cache_ttl = 500;
    cfg.cache_capacity = capacity;
    ResolverClient client(w.net, w.transport, w.sim, w.service,
                          w.m1, "c", cfg);
    std::vector<CompoundName> mixed;
    for (int i = 0; i < 24; ++i) {
      std::string path = "local/churn" + std::to_string(i);
      NAMECOH_CHECK(w.fs.create_file_at(w.root, path, "x").is_ok(), "");
      mixed.push_back(CompoundName::relative(path));
    }
    for (int i = 0; i < 8; ++i) {
      mixed.push_back(
          CompoundName::relative("local/ghost" + std::to_string(i)));
    }
    Rng rng(11);
    std::size_t max_size = 0;
    for (int step = 0; step < 800; ++step) {
      w.sim.run_until(w.sim.now() + 13);
      (void)client.resolve(w.root, rng.pick(mixed));
      max_size = std::max(max_size, client.cache_size());
      NAMECOH_CHECK(client.cache_size() <= capacity,
                    "LRU bound violated under churn");
    }
    double lookups = static_cast<double>(client.snapshot()["cache_hits"] +
                                         client.snapshot()["cache_misses"]);
    t3.add_row({std::to_string(capacity), std::to_string(max_size),
                std::to_string(client.snapshot()["evictions"]),
                std::to_string(client.snapshot()["negative_hits"]),
                bench::frac((static_cast<double>(client.snapshot()["cache_hits"]) +
                             static_cast<double>(
                                 client.snapshot()["negative_hits"])) /
                            (lookups + static_cast<double>(
                                           client.snapshot()["negative_hits"])))});
  }
  t3.print(std::cout);
  std::cout << "(the cache never exceeds its configured capacity; negative "
               "entries absorb\nrepeated failures until their shorter TTL "
               "lapses)\n"
            << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_RemoteResolveUncached(benchmark::State& state) {
  NsWorld w;
  ResolverClient client(w.net, w.transport, w.sim, w.service, w.m1,
                        "c");
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(
        w.root, w.remote_names[i++ % w.remote_names.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemoteResolveUncached);

void BM_RemoteResolveCached(benchmark::State& state) {
  NsWorld w;
  ResolverClientConfig cfg;
  cfg.cache_ttl = 1u << 30;
  ResolverClient client(w.net, w.transport, w.sim, w.service, w.m1,
                        "c", cfg);
  for (const auto& n : w.remote_names) (void)client.resolve(w.root, n);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(
        w.root, w.remote_names[i++ % w.remote_names.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemoteResolveCached);

void BM_ServerWalk(benchmark::State& state) {
  // In-memory equivalent of the server-side walk, for comparison.
  NsWorld w;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolve_from(
        w.graph, w.root, w.local_names[i++ % w.local_names.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServerWalk);

// --- Observability export ----------------------------------------------------

// Runs a short lossy resolution scenario with tracing enabled and writes
// the requested artifacts: a Perfetto-loadable chrome-trace JSON
// (--trace-export=FILE) and/or the unified metrics registry as JSON
// (--metrics-out=FILE). Exercised by scripts/export_trace.sh and
// scripts/run_benchmarks.sh.
int run_observability_export(const std::string& trace_path,
                             const std::string& metrics_path) {
  NsWorld w;
  Tracer& tracer = w.transport.tracer();
  tracer.set_enabled(true);
  // Total loss for the first 50 ticks: the opening lookup drops, times
  // out, and retries — so the exported trace shows the full drop →
  // backoff → re-send → deliver chain, not just happy-path sends.
  w.transport.set_drop_probability(1.0);
  w.sim.schedule_at(w.sim.now() + 50,
                    [&] { w.transport.set_drop_probability(0.0); });
  ResolverClientConfig cfg;
  cfg.cache_ttl = 10000;
  cfg.retry.retries = 2;
  cfg.retry.request_timeout = 100;
  ResolverClient client(w.net, w.transport, w.sim, w.service, w.m1,
                        "trace", cfg);
  for (const auto& name : w.local_names) (void)client.resolve(w.root, name);
  for (const auto& name : w.remote_names) (void)client.resolve(w.root, name);
  // Second pass hits the cache; the last span records a clean failure.
  for (const auto& name : w.remote_names) (void)client.resolve(w.root, name);
  (void)client.resolve(w.root, CompoundName::relative("local/missing"));
  if (!trace_path.empty()) {
    Status status = write_chrome_trace(tracer, trace_path);
    if (!status.is_ok()) {
      std::cerr << status.to_string() << "\n";
      return 1;
    }
    std::cout << "wrote chrome trace: " << trace_path << " ("
              << tracer.spans().size() << " spans, " << tracer.size()
              << " events, " << tracer.dropped() << " dropped)\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << w.transport.metrics().to_json() << "\n";
    if (!out) {
      std::cerr << "cannot write metrics file: " << metrics_path << "\n";
      return 1;
    }
    std::cout << "wrote metrics: " << metrics_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace namecoh

// Custom main: like NAMECOH_BENCH_MAIN, plus the observability-export
// flags, which run the traced scenario and exit instead of benchmarking.
int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::vector<char*> remaining;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-export=", 15) == 0) {
      trace_path = argv[i] + 15;
      continue;
    }
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_path = argv[i] + 14;
      continue;
    }
    remaining.push_back(argv[i]);
  }
  if (!trace_path.empty() || !metrics_path.empty()) {
    return namecoh::run_observability_export(trace_path, metrics_path);
  }
  std::vector<char*> patched_args;
  const bool json_only =
      namecoh::bench::consume_json_flag(argc, argv, patched_args);
  char** args = json_only ? patched_args.data() : argv;
  if (!json_only) namecoh::run_experiment();
  benchmark::Initialize(&argc, args);
  if (benchmark::ReportUnrecognizedArguments(argc, args)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
