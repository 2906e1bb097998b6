// The benchmark's one adapter onto the naming system. Every call the
// benchmark makes into src/ goes through a function declared here, so the
// public surface it depends on is listed in one place (benchmark/README.md,
// "Pinned API"). A change that removes or reshapes one of these surfaces
// edits this file and nothing else under benchmark/.
//
// Deliberately absent: the per-context AuthorityMap::set_home*/set_replicas*
// API, parse_reply_tail and the NsWire flag constants. Sharding is expressed
// through ScenarioBuilder delegations, and the wire replay builds its
// payloads from the documented field layout (docs/PROTOCOLS.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/naming_graph.hpp"
#include "exec/batch.hpp"
#include "ns/name_service.hpp"
#include "workload/scenario.hpp"

namespace namecoh::bm {

// --- The fabric --------------------------------------------------------------

struct FabricShape {
  std::size_t fanout = 16;
  std::size_t depth = 5;
  std::size_t data_pool = 4096;    ///< shared data objects
  std::size_t data_per_leaf = 9;   ///< bindings d0..d{n-1} under every leaf
};

/// The X8 tree (bench_x7_shard): a uniform context tree under `root` whose
/// leaves each bind `data_per_leaf` names into a shared data-object pool.
struct Fabric {
  NamingGraph graph;
  EntityId root;
  std::vector<std::vector<EntityId>> levels;  ///< levels[d]: fanout^d contexts
  std::vector<EntityId> pool;
  std::vector<Name> data_names;  ///< d0, d1, ...
  std::size_t contexts = 0;
  std::size_t bindings = 0;
};

[[nodiscard]] std::unique_ptr<Fabric> build_fabric(const FabricShape& shape);

/// The reference local walk (core resolve_from).
struct Walk {
  bool ok = false;
  EntityId entity;
  EntityId last_context;  ///< the context that bound the final component
  std::size_t steps = 0;
};
[[nodiscard]] Walk walk(const NamingGraph& graph, EntityId start,
                        NameSlice name);

/// Rebind data name `k` under `leaf` to `target` in the naming graph.
void rebind(Fabric& fabric, EntityId leaf, std::size_t k, EntityId target);

// --- The simulated cluster ---------------------------------------------------

struct ClusterShape {
  std::size_t shards = 1;
  std::size_t replicas = 1;
  SimDuration service_time = 0;
  /// Installed in order; AuthorityMap::kNoShard hash-places the context's
  /// children over every shard instead.
  std::vector<std::pair<EntityId, ShardId>> delegations;
  bool membership = false;
  MembershipOptions membership_options;
  SimDuration lease_term = 0;  ///< 0 keeps the service default
  std::size_t lease_capacity = 4096;
  ResolverClientConfig client;
};

[[nodiscard]] std::unique_ptr<Cluster> build_cluster(const Fabric& fabric,
                                                     const ClusterShape& shape);

/// ResolverClient::resolve_async, callback form, on the cluster's client.
void submit(Cluster& cluster, EntityId start, const CompoundName& name,
            ResolveCallback on_done);
/// Simulator::run_while.
void drive_while(Cluster& cluster, const std::function<bool()>& keep_going);
[[nodiscard]] SimTime now(Cluster& cluster);
void schedule(Cluster& cluster, SimDuration delay,
              std::function<void()> action);
[[nodiscard]] std::uint64_t events_fired(Cluster& cluster);
/// NameService::publish_update.
void publish(Cluster& cluster, EntityId ctx);
/// MetricsRegistry::counters(), copied.
[[nodiscard]] std::map<std::string, std::uint64_t> counters(Cluster& cluster);

/// Membership scripts. Each returns its done() predicate; the predicate owns
/// the script, and the script's scheduled events point at it, so the caller
/// keeps the predicate alive as long as the cluster's simulator runs.
using ScriptDone = std::function<bool()>;
[[nodiscard]] ScriptDone start_rolling_restart(Cluster& cluster,
                                               RollingRestartSpec spec);
[[nodiscard]] ScriptDone start_rolling_renumber(Cluster& cluster,
                                                RollingRenumberSpec spec);
/// Cut the client machine off from `shard`'s primary over [begin, end).
void partition_client(Cluster& cluster, ShardId shard, SimTime begin,
                      SimTime end);

// --- Local batches (exec seam) -----------------------------------------------

[[nodiscard]] std::size_t hardware_workers();
[[nodiscard]] std::unique_ptr<WorkerPool> make_pool(std::size_t workers);
[[nodiscard]] exec::BatchOutcome resolve_par(
    WorkerPool& pool, const NamingGraph& graph,
    std::span<const exec::BatchQuery> queries);
[[nodiscard]] exec::BatchOutcome resolve_seq(
    const NamingGraph& graph, std::span<const exec::BatchQuery> queries);

// --- Isolated replays -------------------------------------------------------

/// A resolve request as the client sends it: [corr, ctx, path, flags].
[[nodiscard]] Payload request_payload(std::uint64_t corr, EntityId ctx,
                                      const CompoundName& path,
                                      std::uint64_t flags);
/// An answer as the server sends it: the eight fixed fields, `replicas`
/// (pid, machine) pairs, the lease tail when `lease`, the glue count when
/// `glue`.
[[nodiscard]] Payload answer_payload(std::uint64_t corr, EntityId entity,
                                     EntityId authority, std::size_t replicas,
                                     bool lease, bool glue);

/// Mean wall ns to encode and decode one of `messages`.
[[nodiscard]] double codec_ns_per_msg(const std::vector<Payload>& messages,
                                      std::size_t rounds);
/// Mean wall ns for Transport::send plus delivery to a no-op handler on
/// another machine, cycling through `messages`; `sends` in total.
[[nodiscard]] double transport_ns_per_msg(const std::vector<Payload>& messages,
                                          std::size_t sends);
/// Mean wall ns to schedule and fire one no-op simulator event.
[[nodiscard]] double event_ns(std::size_t events);

}  // namespace namecoh::bm
