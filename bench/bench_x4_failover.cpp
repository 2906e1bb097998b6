// Experiment X4 (extension): availability and staleness under replica
// failover.
//
// The paper's §5 introduces *weak* coherence — "same replicated object"
// instead of "same entity" — precisely because replicated naming data is
// how real systems (the DCE CDS, DNS secondaries) survive server loss.
// This experiment drives the replicated name service (docs/REPLICATION.md)
// through scripted faults (sim/faults.hpp) and measures both sides of the
// bargain:
//
//   * availability: a client workload keeps resolving while the primary is
//     killed mid-run; with a live secondary, every resolution must still
//     complete (0 permanent failures), at the cost of one failover budget
//     whenever the client re-probes the corpse;
//   * staleness: a secondary cut off from update propagation serves epoch-
//     stamped stale answers; every one of them must stay inside the
//     injected epoch gap and classify as kWeakReplicas — never kDifferent —
//     under the coherence analyzer, because the rebind replaced the entity
//     with a replica of the same object.
#include "bench_common.hpp"
#include "coherence/coherence.hpp"
#include "fs/file_system.hpp"
#include "ns/resolver_client.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace namecoh {
namespace {

struct X4World {
  NamingGraph graph;
  FileSystem fs{graph};
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  FaultInjector faults{sim};
  AuthorityMap homes;
  NameService service{graph, net, transport, homes};
  MachineId m1, m2, m3;
  EntityId root, shared, proj;
  std::vector<CompoundName> remote_names;
  std::vector<Name> leaves;

  X4World() {
    transport.attach_faults(&faults);
    NetworkId lan = net.add_network("lan");
    m1 = net.add_machine(lan, "m1");
    m2 = net.add_machine(lan, "m2");
    m3 = net.add_machine(lan, "m3");
    root = fs.make_root("m1-root");
    shared = fs.make_root("shared");
    for (int i = 0; i < 16; ++i) {
      NAMECOH_CHECK(
          fs.create_file_at(shared, "proj/f" + std::to_string(i), "v0")
              .is_ok(),
          "");
      remote_names.push_back(
          CompoundName::relative("shared/proj/f" + std::to_string(i)));
      leaves.push_back(Name("f" + std::to_string(i)));
    }
    NAMECOH_CHECK(fs.attach(root, Name("shared"), shared).is_ok(), "");
    // The shared tree is replicated: primary m2, secondary m3. The client's
    // machine m1 holds only its own root.
    NAMECOH_CHECK(homes.install_delegation(graph, shared,
                                           homes.add_shard({m2, m3}))
                      .is_ok(),
                  "delegate shared");
    NAMECOH_CHECK(
        homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok(),
        "delegate root");
    service.add_server(m1);
    service.add_server(m2);
    service.add_server(m3);
    Context ctx = FileSystem::make_process_context(root, root);
    proj = fs.resolve_path(ctx, "/shared/proj").entity;
    NAMECOH_CHECK(proj.valid(), "proj dir");
  }

  void sync_replicas() {
    for (EntityId ctx : homes.replicated_contexts()) {
      service.publish_update(ctx);
    }
    sim.run();
  }
};

/// Lift a client-side Result into the analyzer's Resolution shape.
Resolution as_resolution(const Result<EntityId>& r) {
  Resolution res;
  if (r.is_ok()) {
    res.status = Status::ok();
    res.entity = r.value();
  } else {
    res.status = r.status();
    res.entity = EntityId::invalid();
  }
  return res;
}

void run_experiment() {
  bench::print_header(
      "X4 (extension): replica failover availability & staleness bounds",
      "Killing the primary mid-workload costs failover latency, never "
      "resolutions;\na partitioned secondary serves stale answers bounded "
      "by the injected epoch\ngap, all weakly coherent (§5).");

  // Part 1: kill the primary mid-workload; the client must complete every
  // resolution by failing over to the secondary, re-probing the primary
  // each time its quarantine lapses.
  {
    X4World w;
    w.sync_replicas();
    ResolverClientConfig cfg;
    cfg.retry.request_timeout = 300;
    cfg.retry.retries = 1;
    cfg.replica_quarantine = 2000;  // re-probe the corpse periodically
    ResolverClient client(w.net, w.transport, w.sim, w.service,
                          w.m1, "avail", cfg);
    Rng rng(17);
    struct Phase {
      const char* label;
      int steps;
      std::uint64_t ok = 0;
      std::uint64_t failed = 0;
    };
    Phase phases[] = {{"before crash", 60, 0, 0},
                      {"primary crashed", 80, 0, 0},
                      {"after restart", 60, 0, 0}};
    for (int p = 0; p < 3; ++p) {
      if (p == 1) w.faults.crash(w.m2.value());
      if (p == 2) w.faults.restart(w.m2.value());
      for (int step = 0; step < phases[p].steps; ++step) {
        w.sim.run_until(w.sim.now() + 29);
        auto result = client.resolve(w.root, rng.pick(w.remote_names));
        if (result.is_ok()) {
          ++phases[p].ok;
        } else {
          ++phases[p].failed;
        }
      }
    }
    StatsSnapshot stats = client.snapshot();
    Table t({"phase", "resolutions", "permanent failures"});
    std::uint64_t total_failed = 0;
    for (const Phase& phase : phases) {
      t.add_row({phase.label, std::to_string(phase.ok + phase.failed),
                 std::to_string(phase.failed)});
      total_failed += phase.failed;
    }
    t.print(std::cout);
    NAMECOH_CHECK(total_failed == 0,
                  "a resolution failed permanently despite a live replica");

    const std::string hist_name =
        "ns.client." + std::to_string(client.endpoint().value()) +
        ".failover_latency";
    auto hist = w.transport.metrics().histograms().find(hist_name);
    NAMECOH_CHECK(hist != w.transport.metrics().histograms().end() &&
                      hist->second.total() > 0,
                  "failover latency histogram missing or empty");
    Table t2({"metric", "value"});
    t2.add_row({"failovers", std::to_string(stats["failovers"])});
    t2.add_row({"timeouts", std::to_string(stats["timeouts"])});
    t2.add_row({"failover latency p50 (ticks, bucket estimate)",
                bench::frac(hist->second.quantile(0.5), 0)});
    t2.add_row({"failover latency p95 (ticks, bucket estimate)",
                bench::frac(hist->second.quantile(0.95), 0)});
    t2.add_row({"failover latency max (ticks, exact)",
                bench::frac(hist->second.observed_max(), 0)});
    t2.add_row({"messages dropped at crashed machine",
                std::to_string(w.transport.metrics().counter_value(
                    "transport.fault.crash_drops"))});
    t2.print(std::cout);
    std::cout << "(0 permanent failures: every budget exhausted against the "
                 "dead primary\nends in a failover to the live secondary, "
                 "not an error)\n"
              << std::endl;
  }

  // Part 2: cut update propagation, rebind on the primary, and read
  // through the lagging secondary. Each rebind replaces a file with a new
  // entity in the *same replica group*, the §5 situation where stale
  // answers are weakly — but not strictly — coherent.
  {
    X4World w;
    w.sync_replicas();
    const std::uint64_t synced_epoch = *w.service.replica_epoch(w.m3, w.proj);

    // Block primary → secondary, then rebind half the files.
    w.faults.partition_one_way(w.m2.value(), w.m3.value());
    std::vector<bool> rebound(w.remote_names.size(), false);
    Context root_ctx = FileSystem::make_process_context(w.root, w.root);
    for (std::size_t i = 0; i < w.remote_names.size(); i += 2) {
      EntityId old_file = w.fs.resolve_path(root_ctx,
                                            "/shared/proj/f" +
                                                std::to_string(i))
                              .entity;
      ReplicaGroupId group = w.graph.new_replica_group();
      w.graph.set_replica_group(old_file, group);
      NAMECOH_CHECK(w.fs.unlink(w.proj, w.leaves[i]).is_ok(), "unlink");
      auto created = w.fs.create_file(w.proj, w.leaves[i], "v1");
      NAMECOH_CHECK(created.is_ok(), "create");
      w.graph.set_replica_group(created.value(), group);
      w.service.publish_update(w.proj);  // lost to the partition
      rebound[i] = true;
    }
    w.sim.run();
    const std::uint64_t current_epoch = w.graph.rebind_epoch(w.proj);
    const std::uint64_t injected_gap = current_epoch - synced_epoch;
    NAMECOH_CHECK(*w.service.replica_epoch(w.m3, w.proj) == synced_epoch,
                  "partition failed to hold the secondary back");

    // Read every name through the secondary (primary down) and classify
    // each answer against the authoritative graph.
    w.faults.crash(w.m2.value());
    ResolverClientConfig cfg;
    cfg.retry.request_timeout = 300;
    cfg.retry.retries = 1;
    ResolverClient client(w.net, w.transport, w.sim, w.service,
                          w.m1, "stale", cfg);
    CoherenceAnalyzer analyzer(w.graph);
    std::uint64_t same = 0, weak = 0, different = 0, unresolved = 0;
    for (std::size_t i = 0; i < w.remote_names.size(); ++i) {
      auto via_secondary = client.resolve(w.root, w.remote_names[i]);
      Resolution truth = resolve_from(w.graph, w.root, w.remote_names[i]);
      ProbeVerdict verdict =
          analyzer.compare(as_resolution(via_secondary), truth);
      switch (verdict) {
        case ProbeVerdict::kSameEntity: ++same; break;
        case ProbeVerdict::kWeakReplicas: ++weak; break;
        case ProbeVerdict::kDifferent: ++different; break;
        default: ++unresolved; break;
      }
      if (rebound[i]) {
        NAMECOH_CHECK(verdict == ProbeVerdict::kWeakReplicas,
                      "stale answer was not weakly coherent");
      } else {
        NAMECOH_CHECK(verdict == ProbeVerdict::kSameEntity,
                      "untouched name should agree exactly");
      }
    }
    // Every stale answer came from the snapshot applied at sync time, so
    // its staleness is exactly the injected epoch gap — never more.
    const std::uint64_t served_epoch =
        *w.service.replica_epoch(w.m3, w.proj);
    NAMECOH_CHECK(current_epoch - served_epoch <= injected_gap,
                  "secondary served older than the injected gap");

    Table t({"metric", "value"});
    t.add_row({"probes", std::to_string(w.remote_names.size())});
    t.add_row({"strictly coherent (kSameEntity)", std::to_string(same)});
    t.add_row({"stale but weakly coherent (kWeakReplicas)",
               std::to_string(weak)});
    t.add_row({"incoherent (kDifferent)", std::to_string(different)});
    t.add_row({"unresolved on either side", std::to_string(unresolved)});
    t.add_row({"secondary epoch at serve time",
               std::to_string(served_epoch)});
    t.add_row({"authority epoch", std::to_string(current_epoch)});
    t.add_row({"injected epoch gap", std::to_string(injected_gap)});
    t.print(std::cout);
    std::cout << "(the partitioned secondary lags by exactly the injected "
                 "gap; every stale\nanswer is a replica of the truth — weak "
                 "coherence in the §5 sense — and\nthe stamped epoch tells "
                 "the client precisely how stale it is)\n"
              << std::endl;
  }
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_ResolveViaSecondary(benchmark::State& state) {
  // Steady-state reads against a quarantined-primary replica set: the
  // secondary's replica-store walk plus one referral.
  X4World w;
  w.sync_replicas();
  w.faults.crash(w.m2.value());
  ResolverClientConfig cfg;
  cfg.retry.request_timeout = 300;
  cfg.retry.retries = 1;
  ResolverClient client(w.net, w.transport, w.sim, w.service, w.m1,
                        "bench", cfg);
  // Pay the one-time failover before measuring.
  (void)client.resolve(w.root, w.remote_names[0]);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(
        w.root, w.remote_names[i++ % w.remote_names.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ResolveViaSecondary);

void BM_PublishUpdate(benchmark::State& state) {
  // Cost of one full-snapshot push (encode + wire + apply) per iteration.
  X4World w;
  for (auto _ : state) {
    w.service.publish_update(w.proj);
    w.sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PublishUpdate);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
