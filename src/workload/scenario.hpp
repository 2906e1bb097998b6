// ScenarioBuilder: a fluent facade over the dozen-object wiring ritual
// every experiment used to repeat by hand (simulator, internetwork,
// transport, fault injector, authority shards, name service, membership
// directory, resolver clients — in exactly the right order).
//
//   NamingGraph graph = ...;
//   auto cluster = ScenarioBuilder(graph)
//                      .shards(4)
//                      .service_time(50)
//                      .delegate_children_by_hash(root)
//                      .with_membership()
//                      .client_config(cfg)
//                      .build();
//   run_parallel(cluster->sim(), cluster->client(), queries, spec);
//
// The builder records intent; build() performs the wiring in dependency
// order and returns a Cluster that owns every runtime object (the naming
// graph stays caller-owned and read-only, as everywhere else). Benches and
// tests keep their *workload* logic and shed their *plumbing*.
//
// The second half of this header is membership workload scripts — churn
// patterns expressed as scheduled simulator events so they interleave with
// a closed-loop load (run_parallel drives the simulator; the scripts only
// schedule):
//
//   * RollingRestart — graceful leave -> downtime -> rejoin, one machine
//     at a time across the fleet: a rolling datacenter restart.
//   * RollingRenumber — renumber machines one by one at a fixed cadence:
//     the paper's §6 stress applied fleet-wide.
//   * schedule_partition_window — a long-lived symmetric partition that
//     heals at a set tick, for "resolution resumes on heal" phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ns/membership.hpp"
#include "ns/name_service.hpp"
#include "ns/shard_ring.hpp"
#include "sim/faults.hpp"

namespace namecoh {

/// Everything a running scenario owns, destruction-ordered. Obtained from
/// ScenarioBuilder::build(); heap-allocated because the members hold
/// references into each other and must never move.
class Cluster {
 public:
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Internetwork& net() { return net_; }
  [[nodiscard]] Transport& transport() { return transport_; }
  [[nodiscard]] AuthorityMap& homes() { return homes_; }
  [[nodiscard]] NameService& service() { return service_; }
  [[nodiscard]] MetricsRegistry& metrics() { return transport_.metrics(); }

  /// Present iff the builder asked for with_faults() (with_membership()
  /// implies it — crash scripts need an injector).
  [[nodiscard]] FaultInjector* faults() { return faults_.get(); }
  /// Present iff the builder asked for with_membership().
  [[nodiscard]] MembershipDirectory* membership() { return membership_.get(); }

  /// The i-th resolver client (builder default: one).
  [[nodiscard]] ResolverClient& client(std::size_t i = 0) {
    return *clients_.at(i);
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

  /// All shard-serving machines, shard-major (shard 0's replicas first).
  [[nodiscard]] const std::vector<MachineId>& machines() const {
    return machines_;
  }
  /// The machine serving `shard` (replica `r` of its replica set).
  [[nodiscard]] MachineId machine(ShardId shard, std::size_t replica = 0) const;
  /// The machine the i-th client resolves from.
  [[nodiscard]] MachineId client_machine(std::size_t i = 0) const {
    return client_machines_.at(i);
  }

 private:
  friend class ScenarioBuilder;
  explicit Cluster(const NamingGraph& graph)
      : graph_(graph), service_(graph, net_, transport_, homes_) {}

  const NamingGraph& graph_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_{sim_, net_};
  std::unique_ptr<FaultInjector> faults_;
  AuthorityMap homes_;
  NameService service_;
  std::unique_ptr<MembershipDirectory> membership_;
  std::vector<NetworkId> networks_;
  std::vector<MachineId> machines_;
  std::size_t replicas_ = 1;
  std::vector<MachineId> client_machines_;
  std::vector<std::unique_ptr<ResolverClient>> clients_;
};

class ScenarioBuilder {
 public:
  /// `graph` stays caller-owned; the built cluster reads it only.
  explicit ScenarioBuilder(const NamingGraph& graph) : graph_(graph) {}

  /// Number of networks machines spread across (round-robin by shard).
  /// Default 1 — one LAN.
  ScenarioBuilder& networks(std::size_t count);
  /// Authority shards, each served by `replicas` machines. Default 1x1.
  ScenarioBuilder& shards(std::size_t count, std::size_t replicas = 1);
  /// Per-request service time every server charges (default 0).
  ScenarioBuilder& service_time(SimDuration ticks);
  /// Enable server-side leases (ResolverClientConfig::lease_coherence on
  /// the client side is the caller's half).
  ScenarioBuilder& lease_policy(SimDuration term, std::size_t capacity = 4096);

  /// install_delegation(subtree -> shard), in call order. Order matters
  /// exactly as it does on AuthorityMap: delegate subtrees before their
  /// enclosing region.
  ScenarioBuilder& delegate(EntityId subtree, ShardId shard);
  /// delegate_children_by_hash(parent) over a ring holding every shard —
  /// and, with with_membership(), the parent/ring the directory manages
  /// (MembershipDirectory::manage_subtrees).
  ScenarioBuilder& delegate_children_by_hash(EntityId parent);
  /// Feed per-subtree load counters (NameService::track_subtree_loads).
  ScenarioBuilder& track_loads(std::vector<EntityId> subtrees);

  /// Attach a FaultInjector to the transport.
  ScenarioBuilder& with_faults();
  /// Attach a MembershipDirectory: every shard machine is announced for
  /// its shard, every client machine as client-only, and each client gets
  /// attach_membership for route healing. Implies with_faults().
  ScenarioBuilder& with_membership(MembershipOptions options = {});

  /// Config every built client starts from.
  ScenarioBuilder& client_config(ResolverClientConfig config);
  /// Number of resolver clients, each on its own machine (default 1).
  ScenarioBuilder& clients(std::size_t count);
  /// Metrics label prefix for the clients (default "scenario").
  ScenarioBuilder& client_label(std::string label);

  /// Wire everything and hand over ownership. The builder is single-use.
  [[nodiscard]] std::unique_ptr<Cluster> build();

 private:
  struct Delegation {
    EntityId target;
    ShardId shard = AuthorityMap::kNoShard;  ///< kNoShard = hash children
  };

  const NamingGraph& graph_;
  std::size_t networks_ = 1;
  std::size_t shards_ = 1;
  std::size_t replicas_ = 1;
  SimDuration service_time_ = 0;
  SimDuration lease_term_ = 0;
  std::size_t lease_capacity_ = 4096;
  std::vector<Delegation> delegations_;
  std::vector<EntityId> tracked_;
  bool faults_ = false;
  bool membership_ = false;
  MembershipOptions membership_options_;
  ResolverClientConfig client_config_;
  std::size_t clients_ = 1;
  std::string label_ = "scenario";
};

// --- Membership workload scripts ---------------------------------------------

struct RollingRestartSpec {
  SimTime start = 0;          ///< first leave fires here
  SimDuration downtime = 5000;  ///< kDown dwell before the rejoin
  SimDuration gap = 2000;     ///< settle gap between one machine and the next
};

/// Rolling datacenter restart: for each machine in `order`, graceful-leave
/// (live handoff of its subtrees), stay down for `downtime`, rejoin (live
/// handback), wait for the handback queue to drain plus `gap`, move on.
/// Pure event scheduling — drive the simulator from outside (e.g. with
/// run_parallel) and poll done().
class RollingRestart {
 public:
  RollingRestart(Simulator& sim, MembershipDirectory& members,
                 std::vector<MachineId> order, RollingRestartSpec spec);
  void start();
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::size_t restarts_completed() const { return completed_; }

 private:
  void leave_next();
  void await_settle();

  Simulator& sim_;
  MembershipDirectory& members_;
  std::vector<MachineId> order_;
  RollingRestartSpec spec_;
  std::size_t index_ = 0;
  std::size_t completed_ = 0;
  bool done_ = false;
};

struct RollingRenumberSpec {
  SimTime start = 0;
  SimDuration interval = 2000;  ///< one rename per interval
  std::size_t rounds = 1;       ///< passes over the machine list
};

/// Fleet-wide §6 stress: renumber each machine in `order`, one per
/// `interval`, `rounds` times over. Every fully-qualified pid minted before
/// a machine's turn goes stale at that machine's rename.
class RollingRenumber {
 public:
  RollingRenumber(Simulator& sim, MembershipDirectory& members,
                  std::vector<MachineId> order, RollingRenumberSpec spec);
  void start();
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::size_t renames_completed() const { return completed_; }

 private:
  void rename_next();

  Simulator& sim_;
  MembershipDirectory& members_;
  std::vector<MachineId> order_;
  RollingRenumberSpec spec_;
  std::size_t fired_ = 0;
  std::size_t completed_ = 0;
  bool done_ = false;
};

/// Symmetric partition between `a` and `b` over [begin, end): both
/// directions blocked at `begin`, healed at `end`. Resolution through the
/// cut resumes after the heal; nothing is torn down.
void schedule_partition_window(FaultInjector& faults, MachineId a, MachineId b,
                               SimTime begin, SimTime end);

}  // namespace namecoh
