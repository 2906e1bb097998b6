// Dynamic membership for the naming fabric (docs/MEMBERSHIP.md).
//
// Everything below PR 9 assumed the machine population was fixed at setup:
// authority moved (rebalancing), but the machines themselves never joined,
// left, crashed or — the paper's §6 stress — *renumbered*. This module
// makes machine lifecycle a first-class runtime event:
//
//   * MembershipDirectory — tracks each machine's lifecycle state and
//     incarnation, and turns membership events into authority movement:
//     a graceful leave hands the machine's delegated subtrees to the
//     surviving shards through the PR 9 MigrationDriver (copy → catch-up
//     → cutover → forwarding window); a crash-leave re-delegates the
//     orphaned subtrees immediately (the dead owner cannot be copied
//     from — the survivors' primaries serve from the shared graph); a
//     rejoin hands the machine's ring share back.
//
//   * Renumbering (rename) — the §6 event. The machine keeps its stable
//     MachineId and its server keeps working, but every *address* minted
//     for it goes stale: a fully qualified pid held anywhere, and any
//     (0,m,l) pid held outside the machine, now names nothing (or, with
//     address reuse, the wrong thing). The directory bumps the machine's
//     incarnation and keeps a bounded-window *rename tombstone* mapping
//     the old address to the machine — the membership analogue of the
//     migration forwarding window: inside it, a stale address maps back
//     to its machine; after it closes, the old address means nothing
//     again.
//
// Placement planning is the ring (docs/REBALANCING.md): manage_subtrees
// hands the directory a ShardRing over the delegated children of one
// parent context. Membership events mutate the ring (remove_shard on
// leave/crash, add_shard on rejoin) and plan_ring_change diffs ownership
// against it — the ring's stability property guarantees a leave moves
// exactly the leaver's subtrees and a rejoin moves exactly them back.
//
// The client side of the story — route healing when a cached
// (pid, machine) target has left or been renamed — lives in
// ResolverClient::attach_membership (name_service.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ns/name_service.hpp"
#include "ns/rebalance.hpp"
#include "sim/faults.hpp"

namespace namecoh {

/// Machine lifecycle states. kLeaving is the graceful-leave handoff in
/// progress: the machine still serves (its subtrees are being copied off
/// it), but it accepts no new delegations and is skipped as a handoff
/// target.
enum class MemberState : std::uint8_t {
  kUnknown,  ///< never announced
  kUp,
  kLeaving,
  kDown,
};

[[nodiscard]] std::string_view member_state_name(MemberState state);

struct MembershipOptions {
  /// MigrationDriver options for graceful handoffs and rejoin handbacks.
  MigrationOptions handoff;
  /// How long a rename tombstone (old address → machine) stays
  /// consultable after a renumbering. Mirrors the migration forwarding
  /// window: inside it, stale routes heal; after it, they are dead.
  SimDuration rename_window = 20000;
  /// Hand a rejoining machine its ring share back (live migrations
  /// through the driver). Off = survivors keep everything they inherited.
  bool rebalance_on_join = true;
};

/// One planned or completed authority movement caused by a membership
/// event; surfaced for tests and the bench report.
struct HandoffRecord {
  EntityId root;
  ShardId from = AuthorityMap::kNoShard;
  ShardId to = AuthorityMap::kNoShard;
  bool live = false;  ///< true = driver-migrated; false = direct cutover
};

class MembershipDirectory {
 public:
  /// `homes` must be the map `service` resolves against (the directory
  /// performs cutover writes through the driver and directly).
  MembershipDirectory(const NamingGraph& graph, Internetwork& net,
                      AuthorityMap& homes, NameService& service,
                      Simulator& sim, MembershipOptions options = {});

  /// Crash-leave/rejoin drive this injector (crash/restart) when set, so
  /// membership scripts and fault scripts stay one timeline.
  void attach_faults(FaultInjector* faults) { faults_ = faults; }

  /// Enable authority movement: the delegated children of `parent` are
  /// the managed subtrees, placed by `ring` (normally the very ring that
  /// delegate_children_by_hash placed them with — anything else makes the
  /// first membership event "correct" placement toward the ring). Without
  /// this call the directory tracks lifecycle only and moves nothing.
  void manage_subtrees(EntityId parent, ShardRing ring);

  // --- Lifecycle events ----------------------------------------------------

  /// Register `machine` as a member serving `shard` (kNoShard for a
  /// client-only member). Installs a name server when the machine lacks
  /// one. First incarnation is 1.
  Status announce(MachineId machine, ShardId shard = AuthorityMap::kNoShard);

  /// Graceful leave: migrate every managed subtree owned by the member's
  /// shard to the surviving shards (live, through the MigrationDriver —
  /// foreground lookups keep completing; stragglers hit the old owner's
  /// forwarding window), then tear the server down and mark the machine
  /// kDown. `on_down` fires once, after the last handoff settles. A step
  /// whose driver migration aborts (e.g. the copy target is unreachable)
  /// falls back to a direct cutover so the leave always completes
  /// ("handoffs_forced").
  Status graceful_leave(MachineId machine, std::function<void()> on_down = {});

  /// Crash-leave: the machine dies *now* (FaultInjector::crash when
  /// attached). Managed subtrees orphaned by the death — owned by a shard
  /// with no remaining up member — are re-delegated to the surviving
  /// shards by direct cutover: there is nobody left to copy from or to
  /// install forwarding on, and the new owners' primaries serve straight
  /// from the shared graph.
  Status crash_leave(MachineId machine);

  /// Bring a kDown machine back: restart it (when it crash-left), bump
  /// its incarnation, reinstall its server, and — with rebalance_on_join —
  /// hand its ring share back through the driver.
  Status rejoin(MachineId machine);

  /// Renumber the machine (§6): its maddr changes, its MachineId and
  /// server survive, every address minted for it elsewhere goes stale.
  /// Bumps the incarnation and arms a rename tombstone for
  /// options.rename_window ticks.
  Status rename(MachineId machine);

  // --- Queries (the client's healing surface) ------------------------------

  [[nodiscard]] MemberState state(MachineId machine) const;
  [[nodiscard]] bool is_up(MachineId machine) const {
    return state(machine) == MemberState::kUp ||
           state(machine) == MemberState::kLeaving;
  }
  /// Bumped on announce, rejoin and rename: a route stamped with an older
  /// incarnation was minted against addresses that may no longer exist.
  [[nodiscard]] std::uint64_t incarnation(MachineId machine) const;
  /// Rename-tombstone lookup: the machine whose server lived at
  /// `old_address` before a rename, while the tombstone window is open.
  /// nullopt once the window closes — the address is then meaningless.
  [[nodiscard]] std::optional<MachineId> renamed_machine_at(
      const Location& old_address) const;

  /// Members currently kUp or kLeaving.
  [[nodiscard]] std::size_t up_count() const;
  /// The shard `machine` was announced for (kNoShard when none).
  [[nodiscard]] ShardId shard_of(MachineId machine) const;
  /// Every authority movement executed so far, in execution order.
  [[nodiscard]] const std::vector<HandoffRecord>& handoffs() const {
    return handoffs_;
  }
  /// True while a graceful handoff / rejoin handback queue is draining.
  [[nodiscard]] bool handoff_active() const {
    return step_in_flight_ || !queue_.empty();
  }
  /// Drive the simulator until the handoff queue is empty and the driver
  /// idle. For tests and sequential scripts.
  void run_handoffs_to_completion();

  /// Point-in-time copy of the directory's counters ("ns.membership.*").
  [[nodiscard]] StatsSnapshot snapshot() const;

 private:
  struct Member {
    MemberState state = MemberState::kUnknown;
    ShardId shard = AuthorityMap::kNoShard;
    std::uint64_t incarnation = 0;
  };
  struct RenameTombstone {
    Location old_address;
    MachineId machine;
    SimTime expires = 0;
  };
  /// One queued driver migration plus the completion that runs when the
  /// whole batch it belongs to has settled.
  struct QueuedStep {
    MigrationStep step;
    std::function<void()> on_batch_done;  ///< set on the last step only
  };

  /// Append `steps` to the driver queue (live migrations, in order) and
  /// arrange `done` to run after the last one settles. Runs `done`
  /// immediately when `steps` is empty.
  void enqueue_live(const std::vector<MigrationStep>& steps,
                    std::function<void()> done);
  void pump_queue();
  /// Cut `step` over directly (no copy, no forwarding) — the crash path
  /// and the abort fallback.
  void direct_cutover(const MigrationStep& step, bool forced);
  /// plan_ring_change against the current ring; empty when unmanaged.
  [[nodiscard]] std::vector<MigrationStep> plan() const;
  /// Whether any member of `shard` is still kUp (kLeaving excluded).
  [[nodiscard]] bool shard_has_live_member(ShardId shard) const;
  void drop_expired_tombstones() const;

  const NamingGraph& graph_;
  Internetwork& net_;
  AuthorityMap& homes_;
  NameService& service_;
  Simulator& sim_;
  MembershipOptions options_;
  FaultInjector* faults_ = nullptr;
  MigrationDriver driver_;

  bool managed_ = false;
  EntityId parent_;
  ShardRing ring_{64};

  std::unordered_map<MachineId, Member> members_;
  mutable std::vector<RenameTombstone> tombstones_;
  std::deque<QueuedStep> queue_;
  bool step_in_flight_ = false;
  std::vector<HandoffRecord> handoffs_;

  Counter* joins_;
  Counter* leaves_;
  Counter* crashes_;
  Counter* renames_;
  Counter* handoffs_live_;
  Counter* handoffs_forced_;
  Counter* redelegations_;
  Counter* tombstones_armed_;
};

}  // namespace namecoh
