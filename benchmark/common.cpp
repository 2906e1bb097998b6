#include "common.hpp"

#include <algorithm>
#include <memory>

namespace namecoh::bm {

Scale scale_for(bool smoke) {
  Scale s;
  if (!smoke) {
    // The X8 fabric: 1 + 16 + ... + 16^5 = 1,118,481 contexts and
    // 1,118,480 + 9 x 1,048,576 = 10,555,664 bindings.
    s.fabric = FabricShape{16, 5, 4096, 9};
    s.queries = 8192;
    s.flash_block = 256;
    s.activities = 2000;
    s.warmup = 20000;
    s.setups = 5;
    s.wire_window = 100000;
    s.rebind_window = 400000;
    s.churn_window = 10000;
    s.churn_phase = 40000;
    s.walk_queries = 262144;
    s.walk_batch = 4096;
    s.walk_ring = 256;
    s.walk_window_batches = 196;  // 802,816 walks
    s.min_windows = 10;
    s.replay_walks = 100000;
    s.replay_events = 200000;
    s.replay_sends = 100000;
    s.replay_batches = 64;
    s.restart_downtime = 5000;
    s.restart_gap = 2000;
    s.rename_interval = 4000;
    s.partition_length = 30000;
    s.churn_timeout = 25000;
    s.membership.handoff.copy_batch = 4096;
    s.membership.handoff.copy_interval = 5;
    s.membership.handoff.settle_delay = 200;
    s.membership.handoff.forward_window = 5000;
    s.membership.rename_window = 60000;
    return s;
  }
  // 1 + 10 + 100 + 1,000 + 10,000 = 11,111 contexts, ~101k bindings.
  s.fabric = FabricShape{10, 4, 512, 9};
  s.queries = 512;
  s.flash_block = 32;
  s.activities = 64;
  s.warmup = 2000;
  s.setups = 3;
  s.wire_window = 1000;
  s.rebind_window = 1000;
  s.churn_window = 100;
  s.churn_phase = 400;
  s.walk_queries = 4096;
  s.walk_batch = 1024;
  s.walk_ring = 16;
  s.walk_window_batches = 8;
  s.min_windows = 10;
  s.replay_walks = 1000;
  s.replay_events = 2000;
  s.replay_sends = 1000;
  s.replay_batches = 4;
  s.restart_downtime = 3000;
  s.restart_gap = 1000;
  s.rename_interval = 2000;
  s.partition_length = 30000;
  s.churn_timeout = 20000;
  s.membership.handoff.copy_batch = 64;
  s.membership.handoff.copy_interval = 5;
  s.membership.handoff.settle_delay = 50;
  s.membership.handoff.forward_window = 2000;
  s.membership.rename_window = 40000;
  return s;
}

void SetupTimes::report(Report& report) const {
  report.set("setup_s", median(total), "s", Clock::kWall);
  report.set("setup.graph_s", median(graph), "s", Clock::kWall);
  report.set("setup.cluster_s", median(cluster), "s", Clock::kWall);
  report.set("setup.warmup_s", median(warmup), "s", Clock::kWall);
}

ReplayResult run_replays(const ReplayInputs& in, const Scale& scale,
                         Spans& spans) {
  const std::size_t n = in.starts.size();
  NAMECOH_CHECK(n > 0 && n == in.names.size(), "replay needs issued queries");
  ReplayResult r;
  const auto seconds_since = [](std::int64_t t0) {
    return static_cast<double>(wall_ns() - t0) * 1e-9;
  };

  std::uint64_t span = spans.open("replay.core_walk");
  std::size_t steps = 0;
  std::int64_t t0 = wall_ns();
  for (std::size_t i = 0; i < scale.replay_walks; ++i) {
    const Walk w = walk(*in.graph, in.starts[i % n], *in.names[i % n]);
    NAMECOH_CHECK(w.ok, "replayed walk failed");
    steps += w.steps;
  }
  const auto walks = static_cast<double>(scale.replay_walks);
  r.walk_ns = seconds_since(t0) * 1e9 / walks;
  r.steps_per_walk = static_cast<double>(steps) / walks;
  spans.close(span);

  // The workload's request/answer shapes, from its first issued queries.
  // Request flag bits as on the wire: 1 = lease requested, 2 = glue.
  const std::uint64_t flags = (in.lease ? 1u : 0u) | (in.glue ? 2u : 0u);
  std::vector<Payload> messages;
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 1024); ++i) {
    messages.push_back(request_payload(i + 1, in.starts[i], *in.names[i],
                                       flags));
    messages.push_back(answer_payload(i + 1, in.starts[i], in.starts[i],
                                      in.replicas, in.lease, in.glue));
  }
  const std::size_t rounds =
      std::max<std::size_t>(1, scale.replay_sends / messages.size());
  std::vector<double> codec, transport, events;
  for (int rep = 0; rep < 3; ++rep) {
    span = spans.open("replay.codec");
    codec.push_back(codec_ns_per_msg(messages, rounds));
    spans.close(span);
    span = spans.open("replay.transport");
    transport.push_back(transport_ns_per_msg(messages, scale.replay_sends));
    spans.close(span);
    span = spans.open("replay.sim_event");
    events.push_back(event_ns(scale.replay_events));
    spans.close(span);
  }
  r.codec_ns = median(codec);
  r.transport_ns = median(transport);
  r.event_ns = median(events);

  // The same batches under both policies.
  std::vector<exec::BatchQuery> queries;
  const std::size_t total = scale.replay_batches * scale.walk_batch;
  queries.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    queries.push_back(exec::BatchQuery{in.starts[i % n], *in.names[i % n]});
  }
  const std::span<const exec::BatchQuery> all(queries);
  std::unique_ptr<WorkerPool> pool =
      make_pool(std::min<std::size_t>(4, hardware_workers()));
  span = spans.open("replay.exec_par");
  t0 = wall_ns();
  for (std::size_t b = 0; b < scale.replay_batches; ++b) {
    (void)resolve_par(*pool, *in.graph,
                      all.subspan(b * scale.walk_batch, scale.walk_batch));
  }
  const double par_s = seconds_since(t0);
  spans.close(span);
  span = spans.open("replay.exec_seq");
  t0 = wall_ns();
  for (std::size_t b = 0; b < scale.replay_batches; ++b) {
    (void)resolve_seq(*in.graph,
                      all.subspan(b * scale.walk_batch, scale.walk_batch));
  }
  const double seq_s = seconds_since(t0);
  spans.close(span);
  r.par_lookups_per_s = ratio(static_cast<double>(total), par_s);
  r.seq_lookups_per_s = ratio(static_cast<double>(total), seq_s);
  r.par_batch_us = par_s * 1e6 / static_cast<double>(scale.replay_batches);
  return r;
}

}  // namespace namecoh::bm
