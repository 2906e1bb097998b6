// Online shard rebalancing (docs/REBALANCING.md).
//
// PR 8's delegation fabric froze the shard map after setup: a hot subtree
// stayed where its first delegation put it, and a ShardRing change remapped
// placement without anything acting on it. This module makes authority
// *move* while lookups are in flight — the paper's coherence claim under
// the harshest condition: the name means the same thing before, during and
// after its authority relocates.
//
//   * MigrationDriver    — bulk-migrates one delegated subtree between
//                          shards in four phases: snapshot copy, catch-up
//                          of rebinds that raced the copy, atomic cutover
//                          of the delegation record, and a bounded
//                          forwarding window on the old owner;
//   * RebalancePlanner   — turns the per-machine FIFO load signals
//                          ("ns.server.m<id>.served"/".wait_ticks") and
//                          per-subtree hit counters into a migration
//                          proposal: split the hottest subtree off a shard
//                          whose mean queue wait dominates the others;
//   * plan_ring_change   — diffs current ownership against what a changed
//                          ShardRing now says and emits one MigrationStep
//                          per moved subtree, so ring add/remove becomes a
//                          plan to execute instead of a silent remap.
//
// The driver deliberately owns no wire protocol: copies ride the existing
// kUpdatePush snapshot path (NameService::push_snapshot + migration
// intake), the cutover is one AuthorityMap::migrate_subtree write, and
// lease invalidations keep flowing through publish_update's
// push-from-every-holder rule — which is why they survive migration
// unchanged (tests/test_sharding.cpp, LeaseInvalidationSurvivesMigration).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ns/name_service.hpp"

namespace namecoh {

/// Driver phases, in order. kForwarding means the cutover is done and the
/// old owner is answering stragglers; kDone/kAborted are terminal.
enum class MigrationPhase : std::uint8_t {
  kIdle,
  kCopy,
  kCatchUp,
  kForwarding,
  kDone,
  kAborted,
};

[[nodiscard]] std::string_view migration_phase_name(MigrationPhase phase);

struct MigrationOptions {
  /// Contexts snapshotted per copy round; bounds the per-tick burst the
  /// copy adds on top of foreground traffic.
  std::size_t copy_batch = 512;
  /// Ticks between copy rounds.
  SimDuration copy_interval = 10;
  /// Ticks to wait after the copy (and between catch-up rounds) before
  /// probing convergence — snapshots in flight need time to land.
  SimDuration settle_delay = 100;
  /// Catch-up rounds before the driver declares the target unreachable
  /// and aborts (each round re-pushes only the still-divergent contexts).
  std::size_t max_catchup_rounds = 8;
  /// How long the old owner keeps forwarding tombstones after cutover.
  SimDuration forward_window = 20000;
};

struct MigrationReport {
  MigrationPhase phase = MigrationPhase::kIdle;
  EntityId root;
  ShardId from = AuthorityMap::kNoShard;
  ShardId to = AuthorityMap::kNoShard;
  std::size_t contexts = 0;         ///< subtree size at start
  std::size_t snapshots_pushed = 0; ///< copy + catch-up pushes sent
  std::size_t catchup_rounds = 0;
  std::size_t moved = 0;            ///< contexts the cutover reassigned
  SimTime cutover_at = 0;
  std::string error;                ///< non-empty iff kAborted
};

using MigrationCallback = std::function<void(const MigrationReport&)>;

/// Drives one subtree migration at a time on the simulator clock. All
/// phases run as scheduled events, so closed-loop traffic keeps flowing
/// between rounds — the whole point.
class MigrationDriver {
 public:
  /// `homes` must be the same AuthorityMap `service` resolves against
  /// (non-const here: the driver performs the cutover write).
  MigrationDriver(const NamingGraph& graph, AuthorityMap& homes,
                  NameService& service, Simulator& sim);

  /// Begin migrating the subtree rooted at `root` from its owning shard to
  /// `to`. Fails (without touching anything) when a migration is already
  /// active, the root is not shard-owned, the target shard is unknown, or
  /// the move is a no-op. `on_done` (optional) fires once, with the final
  /// report, when the migration reaches kDone or kAborted.
  Status start(EntityId root, ShardId to, MigrationOptions options = {},
               MigrationCallback on_done = {});

  /// True while copy or catch-up is in progress (the map not yet cut
  /// over). The forwarding window does not count: the move is complete,
  /// only the tombstones are still draining.
  [[nodiscard]] bool active() const {
    return report_.phase == MigrationPhase::kCopy ||
           report_.phase == MigrationPhase::kCatchUp;
  }
  [[nodiscard]] MigrationPhase phase() const { return report_.phase; }
  [[nodiscard]] const MigrationReport& report() const { return report_; }

  /// Drive the simulator until the current migration (including its
  /// forwarding window) reaches a terminal phase; returns the report.
  const MigrationReport& run_to_completion();

 private:
  void copy_round(std::uint64_t gen);
  void catchup_check(std::uint64_t gen);
  void cutover(std::uint64_t gen);
  void finish(MigrationPhase terminal, std::string error);
  void enter_phase(MigrationPhase phase);
  /// Snapshot `ctx` to every target-shard machine; counts the pushes.
  void push_to_targets(EntityId ctx);
  /// Every target machine holds `ctx` at (or past) the graph's epoch.
  [[nodiscard]] bool converged(EntityId ctx) const;

  const NamingGraph& graph_;
  AuthorityMap& homes_;
  NameService& service_;
  Simulator& sim_;
  MigrationOptions opts_;
  MigrationCallback on_done_;
  std::vector<EntityId> ctxs_;      ///< the subtree being moved
  std::vector<MachineId> targets_;  ///< target shard's replica machines
  std::size_t cursor_ = 0;          ///< copy progress into ctxs_
  /// Stamped into every scheduled continuation; a stale generation means
  /// the migration it belonged to is over.
  std::uint64_t gen_ = 0;
  MigrationReport report_;
  Counter* snapshots_pushed_;
  Counter* catchup_rounds_;
  Counter* completed_;
  Counter* aborted_;
};

/// One shard's load signals, summed over its replica machines.
struct ShardLoad {
  ShardId shard = AuthorityMap::kNoShard;
  std::uint64_t served = 0;
  std::uint64_t wait_ticks = 0;
  double mean_wait = 0.0;  ///< wait_ticks / served (0 when unserved)
};

struct RebalancePlan {
  bool rebalance = false;
  EntityId subtree;  ///< hottest tracked subtree on the hot shard
  ShardId from = AuthorityMap::kNoShard;
  ShardId to = AuthorityMap::kNoShard;
  std::string reason;  ///< human-readable: why this plan (or why none)
  std::vector<ShardLoad> loads;
};

/// Reads the load signals back out of the registry and proposes at most
/// one migration. Pure read-side: never mutates the map or the registry.
class RebalancePlanner {
 public:
  RebalancePlanner(const AuthorityMap& homes, const MetricsRegistry& metrics);

  /// Per-shard load, dense over every registered shard.
  [[nodiscard]] std::vector<ShardLoad> shard_loads() const;

  /// Propose splitting the hottest of `candidates` (roots registered with
  /// NameService::track_subtree_loads) off the dominating shard onto the
  /// least-loaded one. A shard dominates when its mean queue wait exceeds
  /// twice its peers' median; shards that served fewer than 16 requests
  /// are left out of that comparison. `plan.rebalance == false` (with
  /// `reason` set) when no shard dominates or no candidate lives on the
  /// hot shard.
  [[nodiscard]] RebalancePlan propose(
      std::span<const EntityId> candidates) const;

 private:
  const AuthorityMap& homes_;
  const MetricsRegistry& metrics_;
};

/// One subtree move a ring change calls for.
struct MigrationStep {
  EntityId root;
  ShardId from = AuthorityMap::kNoShard;
  ShardId to = AuthorityMap::kNoShard;
};

/// Diff current child ownership under `parent` against what `ring` now
/// says and return one step per child whose owning shard must change
/// (children the ring placement agrees with, and children never placed,
/// are skipped — delegate_children_by_hash handles the latter). Feed each
/// step to a MigrationDriver to act on the ring change.
[[nodiscard]] std::vector<MigrationStep> plan_ring_change(
    const NamingGraph& graph, const AuthorityMap& homes, EntityId parent,
    const ShardRing& ring);

}  // namespace namecoh
