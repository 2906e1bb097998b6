#include "ns/membership.hpp"

#include <algorithm>
#include <utility>

namespace namecoh {

std::string_view member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kUnknown: return "unknown";
    case MemberState::kUp: return "up";
    case MemberState::kLeaving: return "leaving";
    case MemberState::kDown: return "down";
  }
  return "?";
}

MembershipDirectory::MembershipDirectory(const NamingGraph& graph,
                                         Internetwork& net,
                                         AuthorityMap& homes,
                                         NameService& service, Simulator& sim,
                                         MembershipOptions options)
    : graph_(graph),
      net_(net),
      homes_(homes),
      service_(service),
      sim_(sim),
      options_(options),
      driver_(graph, homes, service, sim) {
  MetricsRegistry& metrics = service_.metrics();
  joins_ = &metrics.counter("ns.membership.joins");
  leaves_ = &metrics.counter("ns.membership.leaves");
  crashes_ = &metrics.counter("ns.membership.crashes");
  renames_ = &metrics.counter("ns.membership.renames");
  handoffs_live_ = &metrics.counter("ns.membership.handoffs_live");
  handoffs_forced_ = &metrics.counter("ns.membership.handoffs_forced");
  redelegations_ = &metrics.counter("ns.membership.redelegations");
  tombstones_armed_ = &metrics.counter("ns.membership.tombstones_armed");
}

void MembershipDirectory::manage_subtrees(EntityId parent, ShardRing ring) {
  managed_ = true;
  parent_ = parent;
  ring_ = std::move(ring);
}

Status MembershipDirectory::announce(MachineId machine, ShardId shard) {
  Member& member = members_[machine];
  if (member.state != MemberState::kUnknown) {
    return invalid_argument_error(
        "machine already announced; use rejoin after a leave");
  }
  member.state = MemberState::kUp;
  member.shard = shard;
  member.incarnation = 1;
  if (shard != AuthorityMap::kNoShard &&
      !service_.server_on(machine).is_ok()) {
    service_.add_server(machine);
  }
  joins_->inc();
  service_.tracer().record(sim_.now(), EventKind::kMemberJoin, 0,
                           machine.value(), member.incarnation);
  return Status::ok();
}

std::vector<MigrationStep> MembershipDirectory::plan() const {
  if (!managed_ || ring_.shard_count() == 0) return {};
  return plan_ring_change(graph_, homes_, parent_, ring_);
}

bool MembershipDirectory::shard_has_live_member(ShardId shard) const {
  if (shard == AuthorityMap::kNoShard) return false;
  for (const auto& [machine, member] : members_) {
    if (member.shard == shard && member.state == MemberState::kUp) {
      return true;
    }
  }
  return false;
}

Status MembershipDirectory::graceful_leave(MachineId machine,
                                           std::function<void()> on_down) {
  auto it = members_.find(machine);
  if (it == members_.end() || it->second.state != MemberState::kUp) {
    return invalid_argument_error("graceful_leave needs an up member");
  }
  Member& member = it->second;
  member.state = MemberState::kLeaving;
  std::vector<MigrationStep> steps;
  if (managed_ && member.shard != AuthorityMap::kNoShard &&
      !shard_has_live_member(member.shard)) {
    // Last member of its shard: the shard leaves the ring and its
    // subtrees migrate live to the survivors. (With a co-member still
    // up, authority stays put — the replica set keeps serving.)
    ring_.remove_shard(member.shard);
    steps = plan();
  }
  const std::size_t handed_off = steps.size();
  enqueue_live(steps, [this, machine, handed_off,
                       on_down = std::move(on_down)] {
    auto member_it = members_.find(machine);
    if (member_it != members_.end()) {
      member_it->second.state = MemberState::kDown;
    }
    service_.remove_server(machine);
    leaves_->inc();
    service_.tracer().record(sim_.now(), EventKind::kMemberLeave, 0,
                             machine.value(), handed_off);
    if (on_down) on_down();
  });
  return Status::ok();
}

Status MembershipDirectory::crash_leave(MachineId machine) {
  auto it = members_.find(machine);
  if (it == members_.end() || it->second.state == MemberState::kUnknown ||
      it->second.state == MemberState::kDown) {
    return invalid_argument_error("crash_leave needs a live member");
  }
  Member& member = it->second;
  member.state = MemberState::kDown;
  if (faults_ != nullptr) faults_->crash(machine.value());
  std::size_t redelegated = 0;
  if (managed_ && member.shard != AuthorityMap::kNoShard &&
      !shard_has_live_member(member.shard)) {
    // Orphaned subtrees: nobody left to copy from, nobody to install
    // forwarding on. Re-delegate by direct cutover; the survivors'
    // primaries serve straight from the shared graph.
    ring_.remove_shard(member.shard);
    for (const MigrationStep& step : plan()) {
      direct_cutover(step, /*forced=*/false);
      ++redelegated;
    }
  }
  crashes_->inc();
  service_.tracer().record(sim_.now(), EventKind::kMemberCrash, 0,
                           machine.value(), redelegated);
  return Status::ok();
}

Status MembershipDirectory::rejoin(MachineId machine) {
  auto it = members_.find(machine);
  if (it == members_.end() || it->second.state != MemberState::kDown) {
    return invalid_argument_error("rejoin needs a down member");
  }
  Member& member = it->second;
  member.state = MemberState::kUp;
  ++member.incarnation;
  if (faults_ != nullptr && faults_->is_crashed(machine.value())) {
    faults_->restart(machine.value());
  }
  if (member.shard != AuthorityMap::kNoShard &&
      !service_.server_on(machine).is_ok()) {
    service_.add_server(machine);
  }
  joins_->inc();
  service_.tracer().record(sim_.now(), EventKind::kMemberJoin, 0,
                           machine.value(), member.incarnation);
  if (managed_ && member.shard != AuthorityMap::kNoShard) {
    // The ring hands the rejoined shard exactly its old share back
    // (hash stability), as live migrations — the reverse of its leave.
    ring_.add_shard(member.shard);
    enqueue_live(plan(), {});
  }
  return Status::ok();
}

Status MembershipDirectory::rename(MachineId machine) {
  auto it = members_.find(machine);
  if (it == members_.end() || (it->second.state != MemberState::kUp &&
                               it->second.state != MemberState::kLeaving)) {
    return invalid_argument_error("rename needs a live member");
  }
  // Remember where the server *was*: inside the rename window this is the
  // address stale routes still point at, and the tombstone maps it back
  // to the machine so those routes can heal (docs/MEMBERSHIP.md).
  std::optional<Location> old_address;
  if (auto server = service_.server_on(machine); server.is_ok()) {
    if (auto loc = net_.location_of(server.value()); loc.is_ok()) {
      old_address = loc.value();
    }
  }
  Status renumbered = net_.renumber_machine(machine);
  if (!renumbered.is_ok()) return renumbered;
  Member& member = it->second;
  ++member.incarnation;
  if (old_address) {
    // Arming a tombstone is the one place the list grows, so it is also
    // where expired ones go: the list holds at most one window's renames.
    const SimTime now = sim_.now();
    std::erase_if(tombstones_, [now](const RenameTombstone& tombstone) {
      return tombstone.expires <= now;
    });
    tombstones_.push_back(RenameTombstone{*old_address, machine,
                                          now + options_.rename_window});
    tombstones_armed_->inc();
  }
  renames_->inc();
  service_.tracer().record(sim_.now(), EventKind::kMemberRename, 0,
                           machine.value(), member.incarnation);
  return Status::ok();
}

MemberState MembershipDirectory::state(MachineId machine) const {
  auto it = members_.find(machine);
  return it == members_.end() ? MemberState::kUnknown : it->second.state;
}

std::uint64_t MembershipDirectory::incarnation(MachineId machine) const {
  auto it = members_.find(machine);
  return it == members_.end() ? 0 : it->second.incarnation;
}

std::optional<MachineId> MembershipDirectory::renamed_machine_at(
    const Location& old_address) const {
  // Newest match wins: a machine renamed twice inside one window leaves
  // two tombstones, and the later one reflects the later truth.
  const SimTime now = sim_.now();
  for (auto it = tombstones_.rbegin(); it != tombstones_.rend(); ++it) {
    if (it->expires > now && it->old_address == old_address) {
      return it->machine;
    }
  }
  return std::nullopt;
}

std::size_t MembershipDirectory::up_count() const {
  std::size_t count = 0;
  for (const auto& [machine, member] : members_) {
    if (member.state == MemberState::kUp ||
        member.state == MemberState::kLeaving) {
      ++count;
    }
  }
  return count;
}

ShardId MembershipDirectory::shard_of(MachineId machine) const {
  auto it = members_.find(machine);
  return it == members_.end() ? AuthorityMap::kNoShard : it->second.shard;
}

void MembershipDirectory::run_handoffs_to_completion() {
  sim_.run_while([this] { return handoff_active(); });
}

StatsSnapshot MembershipDirectory::snapshot() const {
  return StatsSnapshot(service_.metrics(), "ns.membership.");
}

void MembershipDirectory::enqueue_live(const std::vector<MigrationStep>& steps,
                                       std::function<void()> done) {
  if (steps.empty()) {
    if (done) done();
    return;
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    QueuedStep queued;
    queued.step = steps[i];
    if (i + 1 == steps.size()) queued.on_batch_done = std::move(done);
    queue_.push_back(std::move(queued));
  }
  pump_queue();
}

void MembershipDirectory::pump_queue() {
  if (step_in_flight_ || queue_.empty()) return;
  QueuedStep queued = std::move(queue_.front());
  queue_.pop_front();
  const MigrationStep step = queued.step;
  auto finish_step = [this, batch_done = std::move(queued.on_batch_done)] {
    step_in_flight_ = false;
    if (batch_done) batch_done();
    pump_queue();
  };
  // A step may have been overtaken by queue order (its root already moved
  // on); the driver refuses it and the direct path shrugs it off too.
  if (homes_.shard_of(step.root) != step.from) {
    finish_step();
    return;
  }
  step_in_flight_ = true;
  Status started = driver_.start(
      step.root, step.to, options_.handoff,
      [this, step, finish_step](const MigrationReport& report) {
        if (report.phase == MigrationPhase::kDone) {
          handoffs_live_->inc();
        } else {
          // Copy could not converge (target unreachable?): the leave must
          // still complete, so cut over without the copy.
          direct_cutover(step, /*forced=*/true);
        }
        finish_step();
      });
  if (!started.is_ok()) {
    // Driver busy with an external migration or the step degenerated:
    // force the cutover rather than wedging the leave forever.
    direct_cutover(step, /*forced=*/true);
    finish_step();
  }
}

void MembershipDirectory::direct_cutover(const MigrationStep& step,
                                         bool forced) {
  auto moved = homes_.migrate_subtree(graph_, step.root, step.to);
  if (!moved.is_ok()) return;  // stale step (already moved); nothing to do
  if (forced) {
    handoffs_forced_->inc();
  } else {
    redelegations_->inc();
  }
}

}  // namespace namecoh
