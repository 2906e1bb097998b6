// AuthorityMap: which machines are authoritative for each context object.
//
// Every authority is a *shard* (docs/SHARDING.md): a registered, ordered
// replica set that owns whole subtrees of the naming graph. A machine's
// own tree is a one-machine shard; a replicated shared space (§5's
// Andrew /vice, a DCE cell) is a multi-machine shard; a million-context
// fabric is many shards delegated outside-in. Ownership lives in one
// dense entity-indexed vector of shard ids (4 bytes per entity), so every
// authority query is one index plus one table lookup.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/naming_graph.hpp"
#include "net/topology.hpp"
#include "ns/shard_ring.hpp"
#include "util/status.hpp"

namespace namecoh {

/// Authority assignment: context object → owning shard → ordered replica
/// set of machines.
///
/// The first machine in a shard's replica set is its *primary* — the one
/// that stamps rebind epochs and originates update propagation; the rest
/// are *secondaries* that serve from epoch-stamped snapshots
/// (docs/REPLICATION.md). A one-machine shard is the single-authority
/// case, not a separate code path.
class AuthorityMap {
 public:
  /// "No shard owns this context" sentinel in shard_of().
  static constexpr ShardId kNoShard = ~static_cast<ShardId>(0);

  /// Register a shard: an ordered replica set (primary first, no
  /// duplicates) that can own whole delegated subtrees. Returns its dense
  /// id; ids are stable for the map's lifetime and travel on the wire in
  /// referrals.
  ShardId add_shard(std::vector<MachineId> replicas);
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The replica set registered for `shard`; empty for an unknown id.
  [[nodiscard]] std::span<const MachineId> shard_replicas(ShardId shard) const;

  /// Delegate the subtree rooted at `root` to `shard`. The root is always
  /// (re-)assigned, even if another shard owned it; the walk then claims
  /// every descendant directory (tree edges) that no shard owns yet and
  /// stops at owned ones, so shared subtrees keep their own authority.
  /// Refuses (kInvalidArgument) a self-delegation or any delegation that
  /// would close a cycle in the shard-level delegation graph — a client
  /// chasing referrals through a cyclic delegation would never terminate.
  Status install_delegation(const NamingGraph& graph, EntityId root,
                            ShardId shard);

  /// Hash placement for flat namespaces: delegate every child context of
  /// `parent` to the shard the ring names for it. The ring must only name
  /// shards registered here. Returns the first refusal, if any.
  ///
  /// Idempotent under re-runs: a child already on its ring shard is left
  /// alone, and a child the ring now maps *elsewhere* (the ring changed
  /// since placement) is **not** silently re-claimed — moving live
  /// ownership is a migration, not a map write (docs/REBALANCING.md).
  /// When `moved` is non-null, every such ring-moved child is appended to
  /// it so the caller can plan migrations (see plan_ring_change in
  /// src/ns/rebalance.hpp).
  Status delegate_children_by_hash(const NamingGraph& graph, EntityId parent,
                                   const ShardRing& ring,
                                   std::vector<EntityId>* moved = nullptr);

  /// Every context the shard owning `root` owns in the subtree under
  /// `root` (tree edges, skipping `.`/`..`, stopping at contexts another
  /// shard owns). Empty when no shard owns `root`. This is the unit a
  /// migration transfers. Reuses an internal mark vector, so concurrent
  /// calls on one map race (the name service drives it from the
  /// simulator's single thread).
  [[nodiscard]] std::vector<EntityId> shard_subtree(const NamingGraph& graph,
                                                    EntityId root) const;

  /// Atomic cutover of a migration (docs/REBALANCING.md): reassign the
  /// whole shard_subtree(root) from its owning shard to `to` in one map
  /// write. Returns the number of contexts moved. Unlike
  /// install_delegation this records no delegation edge — a migration
  /// transfers the *existing* record rather than layering a new one, so a
  /// later migration back (A→B→A) stays legal where a delegation cycle
  /// would be refused. Fails (kInvalidArgument) on an unknown target
  /// shard, a root no shard owns, or a self-migration.
  Result<std::size_t> migrate_subtree(const NamingGraph& graph, EntityId root,
                                      ShardId to);

  /// The shard owning `ctx`; kNoShard when none.
  [[nodiscard]] ShardId shard_of(EntityId ctx) const;

  /// The owning shard's ordered replica set; empty when no shard owns
  /// `ctx`.
  [[nodiscard]] std::span<const MachineId> replicas_of(EntityId ctx) const {
    return shard_replicas(shard_of(ctx));
  }
  [[nodiscard]] bool is_replica(EntityId ctx, MachineId machine) const;
  [[nodiscard]] bool is_primary(EntityId ctx, MachineId machine) const;
  /// Contexts owned by a shard of at least two replicas, in entity-id
  /// order. Introspection, tests and the anti-entropy seeding sweep only:
  /// this scans every owned context, so the anti-entropy steady state must
  /// never touch it (NameService keeps a dirty set instead;
  /// docs/REPLICATION.md).
  [[nodiscard]] std::vector<EntityId> replicated_contexts() const;

 private:
  /// True when `from` can reach `to` through recorded delegation edges.
  [[nodiscard]] bool delegation_reaches(ShardId from, ShardId to) const;
  void assign_shard(EntityId ctx, ShardId shard);

  /// Shard replica sets, indexed by ShardId.
  std::vector<std::vector<MachineId>> shards_;
  /// Dense ownership: entity id → owning shard (kNoShard = none). Sized
  /// on demand; 4 bytes per entity is what makes million-context maps fit.
  std::vector<ShardId> shard_of_;
  /// Shard-level delegation edges (owner at install time → delegate),
  /// for cycle refusal at install time.
  std::vector<std::vector<ShardId>> delegates_of_;
  /// shard_subtree's visited marks, entity-indexed like shard_of_ (one
  /// bit per entity). All clear between calls.
  mutable std::vector<bool> visited_;
};

}  // namespace namecoh
