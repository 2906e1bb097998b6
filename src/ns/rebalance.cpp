#include "ns/rebalance.hpp"

#include <algorithm>
#include <utility>

namespace namecoh {
namespace {

/// A shard is "hot" when its mean queue wait exceeds this factor × the
/// median of the other shards' means.
constexpr double kHotFactor = 2.0;
/// Shards that served fewer requests than this are ignored on both sides
/// of the comparison (their means are noise).
constexpr std::uint64_t kMinServed = 16;

}  // namespace

std::string_view migration_phase_name(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kIdle: return "idle";
    case MigrationPhase::kCopy: return "copy";
    case MigrationPhase::kCatchUp: return "catch-up";
    case MigrationPhase::kForwarding: return "forwarding";
    case MigrationPhase::kDone: return "done";
    case MigrationPhase::kAborted: return "aborted";
  }
  return "unknown";
}

MigrationDriver::MigrationDriver(const NamingGraph& graph, AuthorityMap& homes,
                                 NameService& service, Simulator& sim)
    : graph_(graph), homes_(homes), service_(service), sim_(sim) {
  MetricsRegistry& metrics = service_.metrics();
  snapshots_pushed_ = &metrics.counter("ns.rebalance.snapshots_pushed");
  catchup_rounds_ = &metrics.counter("ns.rebalance.catchup_rounds");
  completed_ = &metrics.counter("ns.rebalance.migrations_completed");
  aborted_ = &metrics.counter("ns.rebalance.migrations_aborted");
}

void MigrationDriver::enter_phase(MigrationPhase phase) {
  report_.phase = phase;
  service_.tracer().record(sim_.now(), EventKind::kMigrationPhase, 0,
                           report_.root.valid() ? report_.root.value() : 0,
                           static_cast<std::uint64_t>(phase));
}

Status MigrationDriver::start(EntityId root, ShardId to,
                              MigrationOptions options,
                              MigrationCallback on_done) {
  if (active()) {
    return failed_precondition_error(
        "migration already in progress; one subtree at a time");
  }
  const ShardId from = homes_.shard_of(root);
  if (from == AuthorityMap::kNoShard) {
    return invalid_argument_error(
        "migration root is not shard-owned (nothing to migrate)");
  }
  if (homes_.shard_replicas(to).empty()) {
    return invalid_argument_error("unknown target shard");
  }
  if (from == to) {
    return invalid_argument_error("subtree already lives on the target shard");
  }
  ctxs_ = homes_.shard_subtree(graph_, root);
  auto replicas = homes_.shard_replicas(to);
  targets_.assign(replicas.begin(), replicas.end());
  // The copy phase fills the targets' replica stores before they are
  // authoritative; the intake allowance is what lets handle_update accept
  // those pushes. The shard's first replica becomes the subtree's primary
  // (a shard's replica set is fixed when it is added) and will answer from
  // the naming graph, so it keeps only the epochs converged() compares;
  // the secondaries will answer from their copies and keep them whole.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    service_.open_migration_intake(targets_[i], ctxs_,
                                   i == 0 ? NameService::Intake::kEpochOnly
                                          : NameService::Intake::kFullCopy);
  }
  cursor_ = 0;
  opts_ = options;
  if (opts_.copy_batch == 0) opts_.copy_batch = 1;
  on_done_ = std::move(on_done);
  report_ = MigrationReport{};
  report_.root = root;
  report_.from = from;
  report_.to = to;
  report_.contexts = ctxs_.size();
  enter_phase(MigrationPhase::kCopy);
  const std::uint64_t gen = ++gen_;
  sim_.schedule_in(opts_.copy_interval, [this, gen] { copy_round(gen); });
  return Status::ok();
}

void MigrationDriver::push_to_targets(EntityId ctx) {
  for (MachineId m : targets_) {
    if (service_.push_snapshot(ctx, m)) {
      ++report_.snapshots_pushed;
      snapshots_pushed_->inc();
    }
  }
}

bool MigrationDriver::converged(EntityId ctx) const {
  const std::uint64_t epoch = graph_.rebind_epoch(ctx);
  for (MachineId m : targets_) {
    auto applied = service_.replica_epoch(m, ctx);
    if (!applied || *applied < epoch) return false;
  }
  return true;
}

void MigrationDriver::copy_round(std::uint64_t gen) {
  if (gen != gen_ || report_.phase != MigrationPhase::kCopy) return;
  const std::size_t end = std::min(cursor_ + opts_.copy_batch, ctxs_.size());
  for (; cursor_ < end; ++cursor_) push_to_targets(ctxs_[cursor_]);
  if (cursor_ < ctxs_.size()) {
    sim_.schedule_in(opts_.copy_interval, [this, gen] { copy_round(gen); });
    return;
  }
  enter_phase(MigrationPhase::kCatchUp);
  sim_.schedule_in(opts_.settle_delay, [this, gen] { catchup_check(gen); });
}

void MigrationDriver::catchup_check(std::uint64_t gen) {
  if (gen != gen_ || report_.phase != MigrationPhase::kCatchUp) return;
  // The dirty set of this migration: contexts some target still holds at
  // an older epoch — rebinds that raced the copy, or snapshots the lossy
  // network ate. Re-pushing only these makes catch-up cheap and
  // idempotent (apply-if-newer on the receiver).
  std::vector<EntityId> dirty;
  for (EntityId ctx : ctxs_) {
    if (!converged(ctx)) dirty.push_back(ctx);
  }
  if (dirty.empty()) {
    cutover(gen);
    return;
  }
  ++report_.catchup_rounds;
  catchup_rounds_->inc();
  if (report_.catchup_rounds > opts_.max_catchup_rounds) {
    finish(MigrationPhase::kAborted,
           "catch-up did not converge after " +
               std::to_string(opts_.max_catchup_rounds) +
               " round(s): " + std::to_string(dirty.size()) +
               " context(s) still behind (target partitioned or down?)");
    return;
  }
  for (EntityId ctx : dirty) push_to_targets(ctx);
  sim_.schedule_in(opts_.settle_delay, [this, gen] { catchup_check(gen); });
}

void MigrationDriver::cutover(std::uint64_t gen) {
  auto moved = homes_.migrate_subtree(graph_, report_.root, report_.to);
  if (!moved.is_ok()) {
    finish(MigrationPhase::kAborted,
           "cutover refused: " + moved.status().to_string());
    return;
  }
  report_.moved = moved.value();
  report_.cutover_at = sim_.now();
  // From this event on the shared authority map names the new owner, so
  // every referral (and its glue) points there. The old owner keeps
  // tombstones for the window so stale-routed clients are observably
  // forwarded rather than silently bounced.
  service_.install_forwarding(report_.from, ctxs_,
                              sim_.now() + opts_.forward_window);
  for (MachineId m : targets_) service_.close_migration_intake(m);
  enter_phase(MigrationPhase::kForwarding);
  sim_.schedule_in(opts_.forward_window, [this, gen] {
    if (gen != gen_ || report_.phase != MigrationPhase::kForwarding) return;
    finish(MigrationPhase::kDone, "");
  });
}

void MigrationDriver::finish(MigrationPhase terminal, std::string error) {
  if (terminal == MigrationPhase::kAborted) {
    // Abort leaves the map exactly as it was; only the intake allowance
    // needs tearing down. Partial target stores are harmless: a machine
    // serves a store only for contexts its shard owns, and then only
    // from a full entry. A full entry is an apply-if-newer snapshot that
    // any newer push supersedes; the primary's epoch-only entries never
    // serve, and a full copy at the same epoch fills them.
    for (MachineId m : targets_) service_.close_migration_intake(m);
    aborted_->inc();
  } else {
    completed_->inc();
  }
  report_.error = std::move(error);
  enter_phase(terminal);
  if (on_done_) {
    // Move out first: the callback may start the next migration.
    MigrationCallback done = std::move(on_done_);
    on_done_ = {};
    done(report_);
  }
}

const MigrationReport& MigrationDriver::run_to_completion() {
  sim_.run_while([this] {
    return report_.phase == MigrationPhase::kCopy ||
           report_.phase == MigrationPhase::kCatchUp ||
           report_.phase == MigrationPhase::kForwarding;
  });
  return report_;
}

RebalancePlanner::RebalancePlanner(const AuthorityMap& homes,
                                   const MetricsRegistry& metrics)
    : homes_(homes), metrics_(metrics) {}

std::vector<ShardLoad> RebalancePlanner::shard_loads() const {
  std::vector<ShardLoad> loads;
  loads.reserve(homes_.shard_count());
  for (ShardId s = 0; s < homes_.shard_count(); ++s) {
    ShardLoad load;
    load.shard = s;
    for (MachineId m : homes_.shard_replicas(s)) {
      const std::string prefix =
          "ns.server.m" + std::to_string(m.value()) + ".";
      load.served += metrics_.counter_value(prefix + "served");
      load.wait_ticks += metrics_.counter_value(prefix + "wait_ticks");
    }
    load.mean_wait = load.served == 0
                         ? 0.0
                         : static_cast<double>(load.wait_ticks) /
                               static_cast<double>(load.served);
    loads.push_back(load);
  }
  return loads;
}

RebalancePlan RebalancePlanner::propose(
    std::span<const EntityId> candidates) const {
  RebalancePlan plan;
  plan.loads = shard_loads();
  if (plan.loads.size() < 2) {
    plan.reason = "fewer than two shards: nothing to balance between";
    return plan;
  }
  // Hot = worst mean queue wait among shards with enough traffic to trust
  // the mean.
  const ShardLoad* hot = nullptr;
  for (const ShardLoad& load : plan.loads) {
    if (load.served < kMinServed) continue;
    if (hot == nullptr || load.mean_wait > hot->mean_wait) hot = &load;
  }
  if (hot == nullptr || hot->mean_wait <= 0.0) {
    plan.reason = "no shard shows queueing above the traffic floor";
    return plan;
  }
  // Dominance: the hot shard's mean wait must exceed kHotFactor × the
  // median of the other sufficiently-served shards (a lone busy shard
  // with quiet peers still dominates: the median of waits below it is
  // smaller by construction).
  std::vector<double> others;
  for (const ShardLoad& load : plan.loads) {
    if (load.shard == hot->shard || load.served < kMinServed) continue;
    others.push_back(load.mean_wait);
  }
  if (others.empty()) {
    plan.reason = "only one shard carries traffic; comparison needs a peer";
    return plan;
  }
  std::sort(others.begin(), others.end());
  const double median = others[others.size() / 2];
  if (hot->mean_wait <= kHotFactor * median) {
    plan.reason = "no shard dominates: hottest mean wait " +
                  std::to_string(hot->mean_wait) + " vs peer median " +
                  std::to_string(median);
    return plan;
  }
  // Coldest target: least mean wait (then least served) among the rest —
  // an idle shard that never cleared kMinServed is the best destination,
  // not an ineligible one.
  const ShardLoad* cold = nullptr;
  for (const ShardLoad& load : plan.loads) {
    if (load.shard == hot->shard) continue;
    if (cold == nullptr || load.mean_wait < cold->mean_wait ||
        (load.mean_wait == cold->mean_wait && load.served < cold->served)) {
      cold = &load;
    }
  }
  // The split unit: the hottest tracked subtree living on the hot shard.
  EntityId pick;
  std::uint64_t pick_hits = 0;
  for (EntityId root : candidates) {
    if (homes_.shard_of(root) != hot->shard) continue;
    const std::uint64_t hits = metrics_.counter_value(
        "ns.server.subtree." + std::to_string(root.value()) + ".hits");
    if (!pick.valid() || hits > pick_hits) {
      pick = root;
      pick_hits = hits;
    }
  }
  if (!pick.valid() || pick_hits == 0) {
    plan.reason = "shard " + std::to_string(hot->shard) +
                  " dominates but no tracked subtree with traffic lives on "
                  "it; register roots via track_subtree_loads";
    return plan;
  }
  plan.rebalance = true;
  plan.subtree = pick;
  plan.from = hot->shard;
  plan.to = cold->shard;
  plan.reason = "shard " + std::to_string(hot->shard) + " mean wait " +
                std::to_string(hot->mean_wait) + " > " +
                std::to_string(kHotFactor) + "x peer median " +
                std::to_string(median) + "; split subtree " +
                std::to_string(pick.value()) + " (" +
                std::to_string(pick_hits) + " hits) onto shard " +
                std::to_string(cold->shard);
  return plan;
}

std::vector<MigrationStep> plan_ring_change(const NamingGraph& graph,
                                            const AuthorityMap& homes,
                                            EntityId parent,
                                            const ShardRing& ring) {
  std::vector<MigrationStep> steps;
  if (!graph.is_context_object(parent)) return steps;
  for (const auto& [name, target] : graph.context(parent).bindings()) {
    if (name.is_cwd() || name.is_parent()) continue;
    if (!graph.is_context_object(target)) continue;
    const ShardId want = ring.shard_for(target);
    const ShardId have = homes.shard_of(target);
    if (have == AuthorityMap::kNoShard || have == want) continue;
    steps.push_back(MigrationStep{target, have, want});
  }
  return steps;
}

}  // namespace namecoh
