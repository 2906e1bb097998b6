#include "workload/scenario.hpp"

#include <utility>

#include "util/status.hpp"

namespace namecoh {

MachineId Cluster::machine(ShardId shard, std::size_t replica) const {
  const std::size_t index = static_cast<std::size_t>(shard) * replicas_ +
                            replica;
  NAMECOH_CHECK(index < machines_.size(), "no such shard machine");
  return machines_[index];
}

ScenarioBuilder& ScenarioBuilder::networks(std::size_t count) {
  NAMECOH_CHECK(count > 0, "scenario needs at least one network");
  networks_ = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shards(std::size_t count,
                                         std::size_t replicas) {
  NAMECOH_CHECK(count > 0 && replicas > 0, "scenario needs >= 1x1 shards");
  shards_ = count;
  replicas_ = replicas;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::service_time(SimDuration ticks) {
  service_time_ = ticks;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::lease_policy(SimDuration term,
                                               std::size_t capacity) {
  lease_term_ = term;
  lease_capacity_ = capacity;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delegate(EntityId subtree, ShardId shard) {
  delegations_.push_back(Delegation{subtree, shard});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::delegate_children_by_hash(EntityId parent) {
  delegations_.push_back(Delegation{parent, AuthorityMap::kNoShard});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::track_loads(std::vector<EntityId> subtrees) {
  tracked_ = std::move(subtrees);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_faults() {
  faults_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_membership(MembershipOptions options) {
  membership_ = true;
  faults_ = true;
  membership_options_ = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::client_config(ResolverClientConfig config) {
  client_config_ = config;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::clients(std::size_t count) {
  NAMECOH_CHECK(count > 0, "scenario needs at least one client");
  clients_ = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::client_label(std::string label) {
  label_ = std::move(label);
  return *this;
}

std::unique_ptr<Cluster> ScenarioBuilder::build() {
  std::unique_ptr<Cluster> cluster(new Cluster(graph_));

  for (std::size_t i = 0; i < networks_; ++i) {
    cluster->networks_.push_back(
        cluster->net_.add_network("net" + std::to_string(i)));
  }
  if (faults_) {
    cluster->faults_ = std::make_unique<FaultInjector>(cluster->sim_);
    cluster->transport_.attach_faults(cluster->faults_.get());
  }

  // Shard machines, shard-major; shard i's replicas live on network
  // (i mod networks) so multi-network scenarios cross network boundaries
  // along shard boundaries.
  cluster->replicas_ = replicas_;
  for (std::size_t i = 0; i < shards_; ++i) {
    std::vector<MachineId> replica_set;
    for (std::size_t r = 0; r < replicas_; ++r) {
      std::string name = "s" + std::to_string(i);
      if (replicas_ > 1) name += "r" + std::to_string(r);
      MachineId m = cluster->net_.add_machine(
          cluster->networks_[i % networks_], name);
      cluster->machines_.push_back(m);
      replica_set.push_back(m);
    }
    (void)cluster->homes_.add_shard(std::move(replica_set));
  }
  for (std::size_t c = 0; c < clients_; ++c) {
    cluster->client_machines_.push_back(cluster->net_.add_machine(
        cluster->networks_[c % networks_], "client" + std::to_string(c)));
  }

  // Delegations in call order (install_delegation never descends into an
  // already-owned region, so the caller's order is the placement policy).
  // Hash delegations share one ring over every shard; the last hash-managed
  // parent is what a membership directory manages.
  ShardRing ring;
  for (std::size_t i = 0; i < shards_; ++i) {
    ring.add_shard(static_cast<ShardId>(i));
  }
  bool have_managed_parent = false;
  EntityId managed_parent;
  for (const Delegation& d : delegations_) {
    if (d.shard == AuthorityMap::kNoShard) {
      NAMECOH_CHECK(cluster->homes_
                        .delegate_children_by_hash(graph_, d.target, ring)
                        .is_ok(),
                    "scenario hash delegation failed");
      have_managed_parent = true;
      managed_parent = d.target;
    } else {
      NAMECOH_CHECK(
          cluster->homes_.install_delegation(graph_, d.target, d.shard)
              .is_ok(),
          "scenario delegation failed");
    }
  }

  NameService& service = cluster->service_;
  for (MachineId m : cluster->machines_) service.add_server(m);
  // Client machines get a (non-authoritative) local server: the bootstrap
  // first hop every resolution starts from.
  for (MachineId m : cluster->client_machines_) service.add_server(m);
  if (service_time_ > 0) service.set_service_time(service_time_);
  if (lease_term_ > 0) service.set_lease_policy(lease_term_, lease_capacity_);
  if (!tracked_.empty()) service.track_subtree_loads(graph_, tracked_);

  if (membership_) {
    cluster->membership_ = std::make_unique<MembershipDirectory>(
        graph_, cluster->net_, cluster->homes_, service, cluster->sim_,
        membership_options_);
    cluster->membership_->attach_faults(cluster->faults_.get());
    if (have_managed_parent) {
      cluster->membership_->manage_subtrees(managed_parent, ring);
    }
    for (std::size_t i = 0; i < shards_; ++i) {
      for (std::size_t r = 0; r < replicas_; ++r) {
        NAMECOH_CHECK(cluster->membership_
                          ->announce(cluster->machine(
                                         static_cast<ShardId>(i), r),
                                     static_cast<ShardId>(i))
                          .is_ok(),
                      "scenario shard announce failed");
      }
    }
    for (MachineId m : cluster->client_machines_) {
      NAMECOH_CHECK(cluster->membership_->announce(m).is_ok(),
                    "scenario client announce failed");
    }
  }

  for (std::size_t c = 0; c < clients_; ++c) {
    std::string label = label_;
    if (clients_ > 1) label += std::to_string(c);
    auto client = std::make_unique<ResolverClient>(
        graph_, cluster->net_, cluster->transport_, cluster->sim_, service,
        cluster->client_machines_[c], label, client_config_);
    if (cluster->membership_ != nullptr) {
      client->attach_membership(cluster->membership_.get());
    }
    cluster->clients_.push_back(std::move(client));
  }
  return cluster;
}

// --- Membership workload scripts ---------------------------------------------

RollingRestart::RollingRestart(Simulator& sim, MembershipDirectory& members,
                               std::vector<MachineId> order,
                               RollingRestartSpec spec)
    : sim_(sim), members_(members), order_(std::move(order)), spec_(spec) {}

void RollingRestart::start() {
  if (order_.empty()) {
    done_ = true;
    return;
  }
  const SimTime at = spec_.start > sim_.now() ? spec_.start : sim_.now();
  sim_.schedule_at(at, [this] { leave_next(); });
}

void RollingRestart::leave_next() {
  const MachineId machine = order_[index_];
  Status left = members_.graceful_leave(machine, [this, machine] {
    // Down: dwell, then rejoin and wait for the handback to settle before
    // touching the next machine — a rolling restart, not a mass outage.
    sim_.schedule_in(spec_.downtime, [this, machine] {
      NAMECOH_CHECK(members_.rejoin(machine).is_ok(),
                    "rolling restart rejoin refused");
      await_settle();
    });
  });
  NAMECOH_CHECK(left.is_ok(), "rolling restart leave refused");
}

void RollingRestart::await_settle() {
  if (members_.handoff_active()) {
    sim_.schedule_in(spec_.gap, [this] { await_settle(); });
    return;
  }
  ++completed_;
  if (++index_ >= order_.size()) {
    done_ = true;
    return;
  }
  sim_.schedule_in(spec_.gap, [this] { leave_next(); });
}

RollingRenumber::RollingRenumber(Simulator& sim, MembershipDirectory& members,
                                 std::vector<MachineId> order,
                                 RollingRenumberSpec spec)
    : sim_(sim), members_(members), order_(std::move(order)), spec_(spec) {}

void RollingRenumber::start() {
  if (order_.empty() || spec_.rounds == 0) {
    done_ = true;
    return;
  }
  const SimTime at = spec_.start > sim_.now() ? spec_.start : sim_.now();
  sim_.schedule_at(at, [this] { rename_next(); });
}

void RollingRenumber::rename_next() {
  const MachineId machine = order_[fired_ % order_.size()];
  NAMECOH_CHECK(members_.rename(machine).is_ok(),
                "rolling renumber rename refused");
  ++completed_;
  if (++fired_ >= order_.size() * spec_.rounds) {
    done_ = true;
    return;
  }
  sim_.schedule_in(spec_.interval, [this] { rename_next(); });
}

void schedule_partition_window(FaultInjector& faults, MachineId a, MachineId b,
                               SimTime begin, SimTime end) {
  NAMECOH_CHECK(begin < end, "partition window must have positive length");
  faults.schedule_partition(begin, a.value(), b.value());
  faults.schedule_partition(begin, b.value(), a.value());
  faults.schedule_heal(end, a.value(), b.value());
  faults.schedule_heal(end, b.value(), a.value());
}

}  // namespace namecoh
