// Experiment X5 (extension): pipelined resolution and request coalescing.
//
// The paper's model resolves one name at a time, and so did this repo's
// resolver until the async engine (docs/ASYNC.md): resolve() monopolised
// the simulator for a full referral chain before the next lookup could
// even send. Real clients — a process manager starting N programs, a
// directory listing stat-ing every entry — issue *bursts*. This experiment
// measures what the event-driven engine buys them:
//
//   * pipelining: N concurrent deep-chain resolutions overlap every hop on
//     the wire, so the batch completes in ~one chain time instead of N;
//   * coalescing: N identical in-flight lookups share a single wire
//     exchange, so the burst costs one chain of messages, not N.
#include "bench_common.hpp"
#include "fs/file_system.hpp"
#include "ns/name_service.hpp"
#include "workload/parallel.hpp"

namespace namecoh {
namespace {

constexpr int kFiles = 64;

// A four-machine referral chain: the client's machine m1 holds only its
// root; "a" lives on m2, "a/b" on m3, "a/b/c" (and the files) on m4. A
// cold lookup of "a/b/c/fK" therefore walks m1 → m2 → m3 → m4: one
// same-machine round trip (10 ticks) plus three cross-machine round trips
// (100 ticks each) = 310 ticks end to end.
struct X5World {
  NamingGraph graph;
  FileSystem fs{graph};
  Simulator sim;
  Internetwork net;
  Transport transport{sim, net};
  AuthorityMap homes;
  NameService service{graph, net, transport, homes};
  MachineId m1, m2, m3, m4;
  EntityId root, tree_a, tree_b, tree_c;
  std::vector<CompoundName> names;

  X5World() {
    NetworkId lan = net.add_network("lan");
    m1 = net.add_machine(lan, "m1");
    m2 = net.add_machine(lan, "m2");
    m3 = net.add_machine(lan, "m3");
    m4 = net.add_machine(lan, "m4");
    root = fs.make_root("m1-root");
    tree_a = fs.make_root("a");
    tree_b = fs.make_root("b");
    tree_c = fs.make_root("c");
    for (int i = 0; i < kFiles; ++i) {
      std::string leaf = "f" + std::to_string(i);
      NAMECOH_CHECK(fs.create_file(tree_c, Name(leaf), "v").is_ok(), "file");
      names.push_back(CompoundName::relative("a/b/c/" + leaf));
    }
    NAMECOH_CHECK(fs.attach(root, Name("a"), tree_a).is_ok(), "attach a");
    NAMECOH_CHECK(fs.attach(tree_a, Name("b"), tree_b).is_ok(), "attach b");
    NAMECOH_CHECK(fs.attach(tree_b, Name("c"), tree_c).is_ok(), "attach c");
    NAMECOH_CHECK(
        homes.install_delegation(graph, tree_c, homes.add_shard({m4})).is_ok(),
        "delegate tree_c");
    NAMECOH_CHECK(
        homes.install_delegation(graph, tree_b, homes.add_shard({m3})).is_ok(),
        "delegate tree_b");
    NAMECOH_CHECK(
        homes.install_delegation(graph, tree_a, homes.add_shard({m2})).is_ok(),
        "delegate tree_a");
    NAMECOH_CHECK(
        homes.install_delegation(graph, root, homes.add_shard({m1})).is_ok(),
        "delegate root");
    service.add_server(m1);
    service.add_server(m2);
    service.add_server(m3);
    service.add_server(m4);
  }
};

void run_experiment() {
  bench::print_header(
      "X5 (extension): async pipelining & request coalescing",
      "N concurrent deep-chain lookups complete in ~one chain time, not N;\n"
      "N identical in-flight lookups cost one wire exchange, not N.");

  // Part 1: serial vs pipelined issue of 64 distinct four-hop lookups.
  {
    X5World w;
    ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service,
                          w.m1, "pipe");

    SimTime t0 = w.sim.now();
    NAMECOH_CHECK(client.resolve(w.root, w.names[0]).is_ok(), "probe");
    const SimDuration single = w.sim.now() - t0;

    SimTime serial_start = w.sim.now();
    for (const CompoundName& name : w.names) {
      NAMECOH_CHECK(client.resolve(w.root, name).is_ok(), "serial resolve");
    }
    const SimDuration serial = w.sim.now() - serial_start;

    std::vector<ResolveHandle> handles;
    SimTime pipe_start = w.sim.now();
    for (const CompoundName& name : w.names) {
      handles.push_back(client.resolve_async(w.root, name));
    }
    w.sim.run();
    const SimDuration pipelined = w.sim.now() - pipe_start;
    for (const ResolveHandle& handle : handles) {
      NAMECOH_CHECK(handle.done() && handle.result().is_ok(),
                    "pipelined resolve failed");
    }

    Table t({"schedule", "lookups", "sim ticks", "vs one chain"});
    t.add_row({"one chain (baseline)", "1", std::to_string(single), "1.0x"});
    t.add_row({"serial blocking", std::to_string(kFiles),
               std::to_string(serial),
               bench::frac(double(serial) / double(single), 1) + "x"});
    t.add_row({"pipelined async", std::to_string(kFiles),
               std::to_string(pipelined),
               bench::frac(double(pipelined) / double(single), 1) + "x"});
    t.print(std::cout);
    NAMECOH_CHECK(pipelined < 2 * single,
                  "pipelined batch took >= 2x one chain time");
    NAMECOH_CHECK(serial >= SimDuration(kFiles) * single,
                  "serial baseline unexpectedly overlapped");
    std::cout << "(every hop of all " << kFiles
              << " chains overlaps on the wire: the batch costs one chain "
                 "time,\nwhere the blocking client paid "
              << kFiles << " chain times)\n"
              << std::endl;
  }

  // Part 2: a burst of identical lookups coalesces onto one exchange.
  {
    X5World w;
    ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service,
                          w.m1, "burst");
    std::vector<ResolveHandle> handles;
    for (int i = 0; i < kFiles; ++i) {
      handles.push_back(client.resolve_async(w.root, w.names[0]));
    }
    w.sim.run();
    for (const ResolveHandle& handle : handles) {
      NAMECOH_CHECK(handle.done() && handle.result().is_ok(),
                    "coalesced resolve failed");
    }
    auto stats = client.snapshot();
    auto server = w.service.snapshot();
    Table t({"metric", "value"});
    t.add_row({"identical lookups issued", std::to_string(kFiles)});
    t.add_row({"coalesced onto the first", std::to_string(stats["coalesced"])});
    t.add_row({"client messages sent", std::to_string(stats["messages_sent"])});
    t.add_row({"server requests handled", std::to_string(server["requests"])});
    t.print(std::cout);
    NAMECOH_CHECK(stats["coalesced"] == kFiles - 1,
                  "burst did not coalesce onto one exchange");
    NAMECOH_CHECK(server["requests"] == 4, "expected one request per hop");
    std::cout << "(63 waiters attached to the first lookup's exchange: the "
                 "whole burst\ncost the 4 messages of a single chain)\n"
              << std::endl;
  }

  // Part 3: the closed-loop workload — fixed work, rising concurrency.
  {
    Table t({"activities", "resolutions", "sim ticks", "lookups/kilotick"});
    for (std::size_t activities : {std::size_t(1), std::size_t(4),
                                   std::size_t(16), std::size_t(64)}) {
      X5World w;
      ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service,
                            w.m1, "loop");
      std::vector<ParallelQuery> queries;
      for (const CompoundName& name : w.names) {
        queries.push_back({w.root, name});
      }
      ParallelSpec spec;
      spec.activities = activities;
      spec.total_resolutions = 256;
      spec.seed = 7;
      ParallelOutcome out = run_parallel(w.sim, client, queries, spec);
      NAMECOH_CHECK(out.ok == out.completed, "closed-loop lookups failed");
      t.add_row({std::to_string(activities), std::to_string(out.completed),
                 std::to_string(out.elapsed()),
                 bench::frac(1000.0 * double(out.completed) /
                                 double(out.elapsed()),
                             1)});
    }
    t.print(std::cout);
    std::cout << "(same 256 lookups; throughput scales with the "
                 "multiprogramming level\nbecause chains interleave instead "
                 "of queueing behind one another)\n"
              << std::endl;
  }
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_PipelinedBatch(benchmark::State& state) {
  // Host cost of driving 64 overlapping four-hop chains to completion.
  X5World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench");
  for (auto _ : state) {
    std::vector<ResolveHandle> handles;
    handles.reserve(w.names.size());
    for (const CompoundName& name : w.names) {
      handles.push_back(client.resolve_async(w.root, name));
    }
    w.sim.run();
    benchmark::DoNotOptimize(handles.back().result());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.names.size()));
}
BENCHMARK(BM_PipelinedBatch);

void BM_CoalescedBurst(benchmark::State& state) {
  // Host cost of a 64-wide identical burst: one exchange + 63 attaches.
  X5World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench");
  for (auto _ : state) {
    std::vector<ResolveHandle> handles;
    handles.reserve(kFiles);
    for (int i = 0; i < kFiles; ++i) {
      handles.push_back(client.resolve_async(w.root, w.names[0]));
    }
    w.sim.run();
    benchmark::DoNotOptimize(handles.back().result());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kFiles));
}
BENCHMARK(BM_CoalescedBurst);

void BM_ClosedLoop64(benchmark::State& state) {
  // One closed-loop pass: 256 lookups at multiprogramming level 64.
  X5World w;
  ResolverClient client(w.graph, w.net, w.transport, w.sim, w.service, w.m1,
                        "bench");
  std::vector<ParallelQuery> queries;
  for (const CompoundName& name : w.names) queries.push_back({w.root, name});
  ParallelSpec spec;
  spec.activities = 64;
  spec.total_resolutions = 256;
  spec.seed = 7;
  for (auto _ : state) {
    ParallelOutcome out = run_parallel(w.sim, client, queries, spec);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * spec.total_resolutions));
}
BENCHMARK(BM_ClosedLoop64);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
