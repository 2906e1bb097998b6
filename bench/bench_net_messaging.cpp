// Experiment U2 (§6 Example 1 mechanics): cost of the messaging substrate —
// pid remapping at boundaries, wire encode/decode, end-to-end delivery by
// locality. Prints a remap-overhead table (the R(sender) rule's price per
// message), then microbenchmarks.
#include <functional>

#include "bench_common.hpp"
#include "net/transport.hpp"

namespace namecoh {
namespace {

struct NetWorld {
  Simulator sim;
  Internetwork net;
  MachineId m1, m2, m3;
  EndpointId a, b, c, d;

  NetWorld() {
    NetworkId n1 = net.add_network("n1");
    NetworkId n2 = net.add_network("n2");
    m1 = net.add_machine(n1, "m1");
    m2 = net.add_machine(n1, "m2");
    m3 = net.add_machine(n2, "m3");
    a = net.add_endpoint(m1, "a");
    b = net.add_endpoint(m1, "b");
    c = net.add_endpoint(m2, "c");
    d = net.add_endpoint(m3, "d");
  }

  Pid pid_for(EndpointId target, EndpointId holder) {
    return relativize(net.location_of(target).value(),
                      net.location_of(holder).value());
  }
};

Message make_message(const NetWorld& w, std::size_t pids) {
  Message msg;
  msg.type = 1;
  Location b_loc{1, 1, 2};
  for (std::size_t i = 0; i < pids; ++i) {
    msg.payload.add_pid(Pid{0, 0, static_cast<Addr>(1 + i % 3)});
  }
  (void)w;
  (void)b_loc;
  msg.payload.add_string("request body ............................");
  return msg;
}

void run_experiment() {
  bench::print_header(
      "U2: messaging-layer mechanics (§6 Example 1 implementation)",
      "The R(sender) remap costs a rebase per embedded pid per delivery; "
      "the table shows\ndelivered-message counts and remap work for the "
      "same workload with the remap on/off.");

  Table t({"remap_embedded_pids", "messages", "pids remapped",
           "bytes sent", "sim ticks elapsed"});
  for (bool remap : {true, false}) {
    NetWorld w;
    TransportConfig config;
    config.remap_embedded_pids = remap;
    Transport tp(w.sim, w.net, config);
    int delivered = 0;
    for (EndpointId ep : {w.a, w.b, w.c, w.d}) {
      tp.set_handler(ep, [&](EndpointId, const Message&) { ++delivered; });
    }
    const int kMessages = 1000;
    for (int i = 0; i < kMessages; ++i) {
      EndpointId from = (i % 2 == 0) ? w.a : w.c;
      EndpointId to = (i % 3 == 0) ? w.d : (i % 3 == 1) ? w.c : w.b;
      Message msg = make_message(w, 4);
      NAMECOH_CHECK(tp.send(from, w.pid_for(to, from), std::move(msg)).is_ok(),
                    "send");
    }
    w.sim.run();
    t.add_row({remap ? "on (R(sender))" : "off (verbatim)",
               std::to_string(delivered),
               std::to_string(tp.snapshot()["pids_remapped"]),
               std::to_string(tp.snapshot()["bytes_sent"]),
               std::to_string(w.sim.now())});
  }
  t.print(std::cout);
  std::cout << std::endl;
}

// --- Microbenchmarks ---------------------------------------------------------

void BM_PayloadEncode(benchmark::State& state) {
  NetWorld w;
  Message msg = make_message(w, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.payload.encode());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadEncode)->Arg(0)->Arg(4)->Arg(32);

void BM_PayloadDecode(benchmark::State& state) {
  NetWorld w;
  auto bytes = make_message(w, static_cast<std::size_t>(state.range(0)))
                   .payload.encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Payload::decode(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadDecode)->Arg(0)->Arg(4)->Arg(32);

void BM_EndToEndDelivery(benchmark::State& state) {
  // One full send+deliver cycle per iteration, by locality.
  NetWorld w;
  Transport tp(w.sim, w.net);
  EndpointId to = state.range(0) == 0 ? w.b : state.range(0) == 1 ? w.c : w.d;
  for (auto _ : state) {
    Message msg = make_message(w, 2);
    NAMECOH_CHECK(tp.send(w.a, w.pid_for(to, w.a), std::move(msg)).is_ok(),
                  "send");
    w.sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 0   ? "intra-machine"
                 : state.range(0) == 1 ? "intra-network"
                                       : "inter-network");
}
BENCHMARK(BM_EndToEndDelivery)->Arg(0)->Arg(1)->Arg(2);

void BM_RemapPerPid(benchmark::State& state) {
  Location sender{1, 1, 1}, receiver{2, 5, 3};
  Pid pid{0, 0, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rebase(pid, sender, receiver));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemapPerPid);

void BM_EventSchedulingThroughput(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.schedule_in(1, [] {});
    sim.run(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventSchedulingThroughput);

void BM_EventQueueCancelledTimeouts(benchmark::State& state) {
  // The resolver engine's queue traffic: N lookups each keep one short
  // event live (the next message of the exchange), and every one that
  // fires cancels the lookup's 500,000-tick timeout and arms a new one.
  // One iteration fires one event.
  const auto lookups = static_cast<std::size_t>(state.range(0));
  Simulator sim;
  std::vector<EventId> timeouts(lookups);
  std::uint64_t x = 88172645463325252ULL;
  std::function<void(std::size_t)> step = [&](std::size_t i) {
    sim.cancel(timeouts[i]);
    timeouts[i] = sim.schedule_in(500'000, [] {});
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sim.schedule_in(1'000 + x % 6'000, [&step, i] { step(i); });
  };
  for (std::size_t i = 0; i < lookups; ++i) {
    sim.schedule_in(1 + i, [&step, i] { step(i); });
  }
  // Past one timeout span, so a queue that keeps cancelled entries until
  // their deadline is measured at its steady size.
  sim.run_until(600'000);
  for (auto _ : state) benchmark::DoNotOptimize(sim.run(1));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelledTimeouts)->Arg(1024)->Arg(2048);

}  // namespace
}  // namespace namecoh

NAMECOH_BENCH_MAIN(namecoh::run_experiment)
