#include "system.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/graph_ops.hpp"
#include "core/resolve.hpp"
#include "net/transport.hpp"
#include "util/worker_pool.hpp"

namespace namecoh::bm {

namespace {

double elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::unique_ptr<Fabric> build_fabric(const FabricShape& shape) {
  auto fabric = std::make_unique<Fabric>();
  NamingGraph& graph = fabric->graph;
  fabric->root = graph.add_context_object("fabric-root");
  TreeBuildResult tree =
      build_context_tree(graph, fabric->root, shape.fanout, shape.depth);
  fabric->levels = std::move(tree.levels);
  fabric->contexts = tree.contexts_created + 1;
  fabric->bindings = tree.bindings_created;

  fabric->pool.reserve(shape.data_pool);
  for (std::size_t i = 0; i < shape.data_pool; ++i) {
    fabric->pool.push_back(graph.add_data_object(""));
  }
  for (std::size_t k = 0; k < shape.data_per_leaf; ++k) {
    fabric->data_names.emplace_back("d" + std::to_string(k));
  }
  const std::vector<EntityId>& leaves = fabric->levels.back();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t k = 0; k < shape.data_per_leaf; ++k) {
      const EntityId target =
          fabric->pool[(i * shape.data_per_leaf + k) % fabric->pool.size()];
      NAMECOH_CHECK(
          graph.bind(leaves[i], fabric->data_names[k], target).is_ok(),
          "leaf data binding failed");
      ++fabric->bindings;
    }
  }
  return fabric;
}

Walk walk(const NamingGraph& graph, EntityId start, NameSlice name) {
  Resolution r = resolve_from(graph, start, name);
  Walk w;
  w.ok = r.ok();
  w.entity = r.entity;
  w.steps = r.steps;
  if (!r.trail.empty()) w.last_context = r.trail.back();
  return w;
}

void rebind(Fabric& fabric, EntityId leaf, std::size_t k, EntityId target) {
  NAMECOH_CHECK(
      fabric.graph.bind(leaf, fabric.data_names.at(k), target).is_ok(),
      "rebind failed");
}

std::unique_ptr<Cluster> build_cluster(const Fabric& fabric,
                                       const ClusterShape& shape) {
  ScenarioBuilder builder(fabric.graph);
  builder.shards(shape.shards, shape.replicas)
      .service_time(shape.service_time)
      .client_config(shape.client)
      .client_label("bench");
  for (const auto& [ctx, shard] : shape.delegations) {
    if (shard == AuthorityMap::kNoShard) {
      builder.delegate_children_by_hash(ctx);
    } else {
      builder.delegate(ctx, shard);
    }
  }
  if (shape.membership) builder.with_membership(shape.membership_options);
  if (shape.lease_term > 0) {
    builder.lease_policy(shape.lease_term, shape.lease_capacity);
  }
  return builder.build();
}

void submit(Cluster& cluster, EntityId start, const CompoundName& name,
            ResolveCallback on_done) {
  (void)cluster.client().resolve_async(start, name, std::move(on_done));
}

void drive_while(Cluster& cluster, const std::function<bool()>& keep_going) {
  (void)cluster.sim().run_while(keep_going);
}

SimTime now(Cluster& cluster) { return cluster.sim().now(); }

void schedule(Cluster& cluster, SimDuration delay,
              std::function<void()> action) {
  (void)cluster.sim().schedule_in(delay, std::move(action));
}

std::uint64_t events_fired(Cluster& cluster) {
  return cluster.sim().events_processed();
}

void publish(Cluster& cluster, EntityId ctx) {
  cluster.service().publish_update(ctx);
}

std::map<std::string, std::uint64_t> counters(Cluster& cluster) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : cluster.metrics().counters()) {
    out.emplace(name, counter.value());
  }
  return out;
}

ScriptDone start_rolling_restart(Cluster& cluster, RollingRestartSpec spec) {
  NAMECOH_CHECK(cluster.membership() != nullptr, "restart needs membership");
  auto script = std::make_shared<RollingRestart>(
      cluster.sim(), *cluster.membership(), cluster.machines(), spec);
  script->start();
  return [script] { return script->done(); };
}

ScriptDone start_rolling_renumber(Cluster& cluster, RollingRenumberSpec spec) {
  NAMECOH_CHECK(cluster.membership() != nullptr, "renumber needs membership");
  auto script = std::make_shared<RollingRenumber>(
      cluster.sim(), *cluster.membership(), cluster.machines(), spec);
  script->start();
  return [script] { return script->done(); };
}

void partition_client(Cluster& cluster, ShardId shard, SimTime begin,
                      SimTime end) {
  NAMECOH_CHECK(cluster.faults() != nullptr, "partition needs faults");
  schedule_partition_window(*cluster.faults(), cluster.client_machine(),
                            cluster.machine(shard), begin, end);
}

std::size_t hardware_workers() { return WorkerPool::hardware_workers(); }

std::unique_ptr<WorkerPool> make_pool(std::size_t workers) {
  return std::make_unique<WorkerPool>(workers);
}

exec::BatchOutcome resolve_par(WorkerPool& pool, const NamingGraph& graph,
                               std::span<const exec::BatchQuery> queries) {
  return exec::resolve_batch(exec::ParPolicy{&pool, 0}, graph, queries);
}

exec::BatchOutcome resolve_seq(const NamingGraph& graph,
                               std::span<const exec::BatchQuery> queries) {
  return exec::resolve_batch(exec::SeqPolicy{}, graph, queries);
}

Payload request_payload(std::uint64_t corr, EntityId ctx,
                        const CompoundName& path, std::uint64_t flags) {
  Payload p;
  p.add_u64(corr).add_u64(ctx.value()).add_name(path.slice());
  if (flags != 0) p.add_u64(flags);
  return p;
}

Payload answer_payload(std::uint64_t corr, EntityId entity, EntityId authority,
                       std::size_t replicas, bool lease, bool glue) {
  Payload p;
  p.add_u64(corr)
      .add_u64(0)  // disposition: answer
      .add_u64(entity.value())
      .add_name(std::string())
      .add_string(std::string())
      .add_pid(Pid::self())
      .add_u64(authority.value())
      .add_u64(1);  // epoch
  p.add_u64(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    p.add_pid(Pid{0, static_cast<Addr>(i + 1), 1}).add_u64(i);
  }
  if (lease) p.add_u64(5000).add_u64(corr);  // lease tail: term, id
  if (glue) p.add_u64(0);                     // glue tail: no records
  return p;
}

double codec_ns_per_msg(const std::vector<Payload>& messages,
                        std::size_t rounds) {
  NAMECOH_CHECK(!messages.empty() && rounds > 0, "empty codec replay");
  std::size_t fields = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Payload& m : messages) {
      std::vector<std::uint8_t> frame = m.encode();
      auto decoded = Payload::decode(frame);
      NAMECOH_CHECK(decoded.is_ok(), "codec replay failed to decode");
      fields += decoded.value().size();
    }
  }
  const double ns = elapsed_ns(start);
  NAMECOH_CHECK(fields > 0, "codec replay decoded nothing");
  return ns / static_cast<double>(rounds * messages.size());
}

double transport_ns_per_msg(const std::vector<Payload>& messages,
                            std::size_t sends) {
  NAMECOH_CHECK(!messages.empty() && sends > 0, "empty transport replay");
  Simulator sim;
  Internetwork net;
  Transport transport(sim, net);
  const NetworkId lan = net.add_network("lan");
  const EndpointId from = net.add_endpoint(net.add_machine(lan, "a"), "client");
  const EndpointId to = net.add_endpoint(net.add_machine(lan, "b"), "server");
  std::size_t delivered = 0;
  transport.set_handler(to, [&delivered](EndpointId, const Message&) {
    ++delivered;
  });
  const Pid dest =
      relativize(net.location_of(to).value(), net.location_of(from).value());

  // Messages are built untimed in chunks; each timed span is the sends plus
  // the simulator run that delivers them.
  constexpr std::size_t kChunk = 8192;
  double timed_ns = 0.0;
  std::size_t sent = 0;
  std::vector<Message> chunk;
  while (sent < sends) {
    const std::size_t n = std::min(kChunk, sends - sent);
    chunk.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Message m;
      m.type = 100;  // resolve request
      m.payload = messages[(sent + i) % messages.size()];
      chunk.push_back(std::move(m));
    }
    const auto start = std::chrono::steady_clock::now();
    for (Message& m : chunk) {
      NAMECOH_CHECK(transport.send(from, dest, std::move(m)).is_ok(),
                    "transport replay send failed");
    }
    (void)sim.run();
    timed_ns += elapsed_ns(start);
    sent += n;
  }
  NAMECOH_CHECK(delivered == sends, "transport replay lost messages");
  return timed_ns / static_cast<double>(sends);
}

double event_ns(std::size_t events) {
  NAMECOH_CHECK(events > 0, "empty event replay");
  Simulator sim;
  std::size_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events; ++i) {
    (void)sim.schedule_in(i % 64, [&fired] { ++fired; });
    if (i % 4096 == 4095) (void)sim.run();
  }
  (void)sim.run();
  const double ns = elapsed_ns(start);
  NAMECOH_CHECK(fired == events, "event replay lost events");
  return ns / static_cast<double>(events);
}

}  // namespace namecoh::bm
