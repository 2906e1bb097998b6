#include "ns/authority_map.hpp"

#include <algorithm>
#include <deque>
#include <utility>

namespace namecoh {

ShardId AuthorityMap::add_shard(std::vector<MachineId> replicas) {
  NAMECOH_CHECK(!replicas.empty(), "empty shard replica set");
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    NAMECOH_CHECK(replicas[i].valid(), "invalid shard replica machine");
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      NAMECOH_CHECK(replicas[i] != replicas[j],
                    "duplicate shard replica machine");
    }
  }
  shards_.push_back(std::move(replicas));
  delegates_of_.emplace_back();
  return static_cast<ShardId>(shards_.size() - 1);
}

std::span<const MachineId> AuthorityMap::shard_replicas(ShardId shard) const {
  if (shard >= shards_.size()) return {};
  return shards_[shard];
}

ShardId AuthorityMap::shard_of(EntityId ctx) const {
  if (!ctx.valid() || ctx.value() >= shard_of_.size()) return kNoShard;
  return shard_of_[ctx.value()];
}

void AuthorityMap::assign_shard(EntityId ctx, ShardId shard) {
  if (ctx.value() >= shard_of_.size()) {
    shard_of_.resize(ctx.value() + 1, kNoShard);
  }
  shard_of_[ctx.value()] = shard;
}

bool AuthorityMap::delegation_reaches(ShardId from, ShardId to) const {
  if (from == to) return true;
  std::vector<bool> visited(shards_.size(), false);
  std::vector<ShardId> stack{from};
  visited[from] = true;
  while (!stack.empty()) {
    const ShardId s = stack.back();
    stack.pop_back();
    for (ShardId d : delegates_of_[s]) {
      if (d == to) return true;
      if (!visited[d]) {
        visited[d] = true;
        stack.push_back(d);
      }
    }
  }
  return false;
}

Status AuthorityMap::install_delegation(const NamingGraph& graph,
                                        EntityId root, ShardId shard) {
  if (shard >= shards_.size()) {
    return invalid_argument_error("install_delegation: unknown shard");
  }
  if (!graph.is_context_object(root)) {
    return invalid_argument_error(
        "install_delegation: root is not a context object");
  }
  const ShardId owner = shard_of(root);
  if (owner == shard) {
    return invalid_argument_error(
        "install_delegation: shard already owns the root (self-delegation)");
  }
  // Cycle refusal: a client chasing referrals through a delegation chain
  // that re-enters an earlier shard would never terminate. If the new
  // delegate already reaches the owner through recorded edges, owner →
  // delegate would close the loop.
  if (owner != kNoShard && delegation_reaches(shard, owner)) {
    return invalid_argument_error(
        "install_delegation: delegation would close a cycle");
  }
  if (owner != kNoShard) {
    auto& edges = delegates_of_[owner];
    if (std::find(edges.begin(), edges.end(), shard) == edges.end()) {
      edges.push_back(shard);
    }
  }
  // The root is always re-assigned; descendants are claimed only while
  // unowned, so foreign regions keep their authority.
  assign_shard(root, shard);
  std::deque<EntityId> frontier{root};
  while (!frontier.empty()) {
    EntityId ctx = frontier.front();
    frontier.pop_front();
    for (const auto& [name, target] : graph.context(ctx).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      if (shard_of(target) != kNoShard) continue;
      assign_shard(target, shard);
      frontier.push_back(target);
    }
  }
  return Status::ok();
}

Status AuthorityMap::delegate_children_by_hash(const NamingGraph& graph,
                                               EntityId parent,
                                               const ShardRing& ring,
                                               std::vector<EntityId>* moved) {
  if (!graph.is_context_object(parent)) {
    return invalid_argument_error(
        "delegate_children_by_hash: parent is not a context object");
  }
  for (const auto& [name, target] : graph.context(parent).bindings()) {
    if (name.is_cwd() || name.is_parent()) continue;
    if (!graph.is_context_object(target)) continue;
    const ShardId shard = ring.shard_for(target);
    const ShardId owner = shard_of(target);
    if (owner == shard) continue;  // idempotent re-run: already placed
    if (owner != kNoShard) {
      // Already owned, but the ring now says elsewhere: a re-run must not
      // silently re-claim live ownership — that is a migration
      // (docs/REBALANCING.md). Report it and leave the map untouched.
      if (moved != nullptr) moved->push_back(target);
      continue;
    }
    Status placed = install_delegation(graph, target, shard);
    if (!placed.is_ok()) return placed;
  }
  return Status::ok();
}

std::vector<EntityId> AuthorityMap::shard_subtree(const NamingGraph& graph,
                                                  EntityId root) const {
  std::vector<EntityId> out;
  const ShardId owner = shard_of(root);
  if (owner == kNoShard || !graph.is_context_object(root)) return out;
  // The same walk shape as install_delegation, read-only: collect every
  // context the owning shard holds under `root`, stopping where another
  // shard's region begins. `out` is its own BFS frontier (out[next..] is
  // still to expand). Every member is owner-held, so its id indexes
  // shard_of_ and the marks; they are cleared from `out` on the way out,
  // keeping the walk O(subtree).
  visited_.resize(shard_of_.size());
  visited_[root.value()] = true;
  out.push_back(root);
  for (std::size_t next = 0; next < out.size(); ++next) {
    for (const auto& [name, target] : graph.context(out[next]).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      if (shard_of(target) != owner) continue;
      if (visited_[target.value()]) continue;
      visited_[target.value()] = true;
      out.push_back(target);
    }
  }
  for (EntityId ctx : out) visited_[ctx.value()] = false;
  return out;
}

Result<std::size_t> AuthorityMap::migrate_subtree(const NamingGraph& graph,
                                                  EntityId root, ShardId to) {
  if (to >= shards_.size()) {
    return invalid_argument_error("migrate_subtree: unknown target shard");
  }
  if (!graph.is_context_object(root)) {
    return invalid_argument_error(
        "migrate_subtree: root is not a context object");
  }
  const ShardId from = shard_of(root);
  if (from == kNoShard) {
    return invalid_argument_error("migrate_subtree: root is not shard-owned");
  }
  if (from == to) {
    return invalid_argument_error(
        "migrate_subtree: root already lives on the target shard");
  }
  const std::vector<EntityId> ctxs = shard_subtree(graph, root);
  for (EntityId ctx : ctxs) assign_shard(ctx, to);
  return ctxs.size();
}

bool AuthorityMap::is_replica(EntityId ctx, MachineId machine) const {
  auto replicas = replicas_of(ctx);
  return std::find(replicas.begin(), replicas.end(), machine) !=
         replicas.end();
}

bool AuthorityMap::is_primary(EntityId ctx, MachineId machine) const {
  auto replicas = replicas_of(ctx);
  return !replicas.empty() && replicas.front() == machine;
}

std::vector<EntityId> AuthorityMap::replicated_contexts() const {
  std::vector<EntityId> out;
  for (std::size_t id = 0; id < shard_of_.size(); ++id) {
    if (shard_replicas(shard_of_[id]).size() >= 2) out.push_back(EntityId(id));
  }
  return out;
}

}  // namespace namecoh
