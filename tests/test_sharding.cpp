// Sharded delegation fabric tests (docs/SHARDING.md): AuthorityMap shard
// registration and subtree delegation (walk contract, self-delegation and
// cycle refusal), consistent-hash placement for flat namespaces, glue
// chases across chained delegations, and lease invalidation after a
// context migrates across a delegation boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/graph_ops.hpp"
#include "net/wire.hpp"
#include "ns/name_service.hpp"
#include "ns/shard_ring.hpp"
#include "util/rng.hpp"

namespace namecoh {
namespace {

// --- AuthorityMap delegation --------------------------------------------------

class DelegationTest : public ::testing::Test {
 protected:
  DelegationTest() {
    NetworkId lan = net_.add_network("lan");
    ma_ = net_.add_machine(lan, "ma");
    mb_ = net_.add_machine(lan, "mb");
    mc_ = net_.add_machine(lan, "mc");
    root_ = graph_.add_context_object("root");
    tree_ = build_context_tree(graph_, root_, /*fanout=*/3, /*depth=*/3);
    s0_ = homes_.add_shard({ma_});
    s1_ = homes_.add_shard({mb_});
    s2_ = homes_.add_shard({mc_});
  }

  NamingGraph graph_;
  Internetwork net_;
  AuthorityMap homes_;
  MachineId ma_, mb_, mc_;
  EntityId root_;
  TreeBuildResult tree_;
  ShardId s0_, s1_, s2_;
};

TEST_F(DelegationTest, InstallDelegationClaimsUnownedSubtrees) {
  // Delegate one level-1 subtree while unowned, then the root: the
  // delegated region keeps its shard, the rest goes to the root's.
  const EntityId sub = tree_.levels[1][0];
  ASSERT_TRUE(homes_.install_delegation(graph_, sub, s1_).is_ok());
  ASSERT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
  EXPECT_EQ(homes_.shard_of(root_), s0_);
  EXPECT_EQ(homes_.shard_of(sub), s1_);
  EXPECT_EQ(homes_.shard_of(tree_.levels[1][1]), s0_);
  // A context deep inside the delegated subtree follows its shard.
  const EntityId inner = graph_.lookup(sub, Name("c0")).value();
  EXPECT_EQ(homes_.shard_of(inner), s1_);
  EXPECT_EQ(homes_.replicas_of(inner).front(), mb_);
  EXPECT_TRUE(homes_.is_primary(inner, mb_));
  EXPECT_FALSE(homes_.is_replica(inner, ma_));
}

TEST_F(DelegationTest, SelfDelegationIsRefused) {
  ASSERT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
  Status again = homes_.install_delegation(graph_, root_, s0_);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST_F(DelegationTest, DelegationCycleIsRefusedAtInstallTime) {
  // root -> s0, then the sub subtree s0 -> s1 and on to s1 -> s2: the
  // recorded shard-level edges form the chain s0 -> s1 -> s2. Handing sub
  // back to s0 (or to s1) would let a glue chase re-enter an earlier
  // shard, so both installs must be refused.
  ASSERT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
  const EntityId sub = tree_.levels[1][0];
  ASSERT_TRUE(homes_.install_delegation(graph_, sub, s1_).is_ok());
  ASSERT_TRUE(homes_.install_delegation(graph_, sub, s2_).is_ok());
  EXPECT_EQ(homes_.install_delegation(graph_, sub, s0_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(homes_.install_delegation(graph_, sub, s1_).code(),
            StatusCode::kInvalidArgument);
  // A sibling subtree of the chain stays delegable: s2 has no outgoing
  // delegation edges, so s0 -> s2 closes no loop.
  EXPECT_TRUE(
      homes_.install_delegation(graph_, tree_.levels[1][1], s2_).is_ok());
}

TEST_F(DelegationTest, HashDelegationPlacesEveryChildByRing) {
  ShardRing ring;
  ring.add_shard(s0_);
  ring.add_shard(s1_);
  ring.add_shard(s2_);
  ASSERT_TRUE(homes_.delegate_children_by_hash(graph_, root_, ring).is_ok());
  for (EntityId child : tree_.levels[1]) {
    EXPECT_EQ(homes_.shard_of(child), ring.shard_for(child));
  }
  // Idempotent: re-running places nothing new and refuses nothing.
  EXPECT_TRUE(homes_.delegate_children_by_hash(graph_, root_, ring).is_ok());
}

/// shard_subtree's contract spelled out the plain way: breadth-first over
/// tree edges from `root`, skipping `.`/`..`, staying on root's shard,
/// each context listed where the walk first meets it.
std::vector<EntityId> reference_subtree(const NamingGraph& graph,
                                        const AuthorityMap& homes,
                                        EntityId root) {
  const ShardId owner = homes.shard_of(root);
  if (owner == AuthorityMap::kNoShard || !graph.is_context_object(root)) {
    return {};
  }
  std::vector<EntityId> out{root};
  std::deque<EntityId> frontier{root};
  while (!frontier.empty()) {
    const EntityId ctx = frontier.front();
    frontier.pop_front();
    for (const auto& [name, target] : graph.context(ctx).bindings()) {
      if (name.is_cwd() || name.is_parent()) continue;
      if (!graph.is_context_object(target)) continue;
      if (homes.shard_of(target) != owner) continue;
      if (std::find(out.begin(), out.end(), target) != out.end()) continue;
      out.push_back(target);
      frontier.push_back(target);
    }
  }
  return out;
}

TEST(ShardSubtreeTest, ContextOnTwoTreeEdgesIsListedOnceInBfsOrder) {
  // root -> {a, b}; a -> {p, s}; b -> {q, s}: `s` is reachable by two
  // tree edges and must appear once, where breadth-first order first
  // meets it.
  NamingGraph graph;
  Internetwork net;
  const MachineId m = net.add_machine(net.add_network("lan"), "m");
  const EntityId root = graph.add_context_object("root");
  const EntityId a = graph.add_context_object("a");
  const EntityId b = graph.add_context_object("b");
  const EntityId p = graph.add_context_object("p");
  const EntityId q = graph.add_context_object("q");
  const EntityId s = graph.add_context_object("s");
  ASSERT_TRUE(graph.bind(root, Name("a"), a).is_ok());
  ASSERT_TRUE(graph.bind(root, Name("b"), b).is_ok());
  ASSERT_TRUE(graph.bind(a, Name("p"), p).is_ok());
  ASSERT_TRUE(graph.bind(a, Name("s"), s).is_ok());
  ASSERT_TRUE(graph.bind(b, Name("q"), q).is_ok());
  ASSERT_TRUE(graph.bind(b, Name("s"), s).is_ok());
  AuthorityMap homes;
  ASSERT_TRUE(
      homes.install_delegation(graph, root, homes.add_shard({m})).is_ok());

  const std::vector<EntityId> whole = homes.shard_subtree(graph, root);
  EXPECT_EQ(whole, (std::vector<EntityId>{root, a, b, p, s, q}));
  EXPECT_EQ(whole, reference_subtree(graph, homes, root));
  // A smaller walk in between leaves nothing behind for the next one.
  const std::vector<EntityId> under_b = homes.shard_subtree(graph, b);
  EXPECT_EQ(under_b.size(), 3u);
  EXPECT_EQ(under_b, reference_subtree(graph, homes, b));
  EXPECT_EQ(homes.shard_subtree(graph, root), whole);
}

// --- Ownership is a partition (randomized) ----------------------------------

/// Every context's shard, indexed by position in `ctxs`.
std::vector<ShardId> ownership(const AuthorityMap& homes,
                               const std::vector<EntityId>& ctxs) {
  std::vector<ShardId> out;
  out.reserve(ctxs.size());
  for (EntityId ctx : ctxs) out.push_back(homes.shard_of(ctx));
  return out;
}

/// The invariants that make ownership a partition: one shard (or none)
/// per context, and every authority query answers from that shard.
void expect_partition(const NamingGraph& graph, const AuthorityMap& homes,
                      const std::vector<EntityId>& ctxs) {
  std::vector<EntityId> replicated;
  for (EntityId ctx : ctxs) {
    const ShardId shard = homes.shard_of(ctx);
    ASSERT_TRUE(shard == AuthorityMap::kNoShard ||
                shard < homes.shard_count());
    auto replicas = homes.replicas_of(ctx);
    auto expected = homes.shard_replicas(shard);
    ASSERT_TRUE(std::equal(replicas.begin(), replicas.end(), expected.begin(),
                           expected.end()))
        << "context " << ctx.value();
    if (replicas.size() >= 2) replicated.push_back(ctx);
    const std::vector<EntityId> subtree = homes.shard_subtree(graph, ctx);
    for (EntityId member : subtree) {
      ASSERT_EQ(homes.shard_of(member), shard);
    }
    ASSERT_EQ(subtree, reference_subtree(graph, homes, ctx))
        << "context " << ctx.value();
  }
  EXPECT_EQ(homes.replicated_contexts(), replicated);
}

class OwnershipPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(OwnershipPartitionTest, RandomDelegationsMigrationsAndHashPlacement) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // A random tree of contexts, plus a few cross-links (shared subtrees
  // attached under a second name, and back edges), in entity-id order.
  NamingGraph graph;
  std::vector<EntityId> ctxs{graph.add_context_object("root")};
  const std::size_t n = 20 + rng.next_below(60);
  for (std::size_t i = 1; i < n; ++i) {
    const EntityId parent = ctxs[rng.next_below(ctxs.size())];
    const EntityId child = graph.add_context_object("d");
    ASSERT_TRUE(graph.bind(parent, Name("d" + std::to_string(i)), child)
                    .is_ok());
    ctxs.push_back(child);
    if (rng.bernoulli(0.1)) {
      const EntityId from = ctxs[rng.next_below(ctxs.size())];
      const EntityId to = ctxs[rng.next_below(ctxs.size())];
      ASSERT_TRUE(graph.bind(from, Name("x" + std::to_string(i)), to).is_ok());
    }
  }
  auto pick = [&] { return ctxs[rng.next_below(ctxs.size())]; };
  AuthorityMap homes;
  auto new_shard = [&] {
    std::vector<MachineId> replicas;
    const std::size_t size = 1 + rng.next_below(3);
    for (std::uint64_t m = rng.next_below(8); replicas.size() < size; ++m) {
      replicas.push_back(MachineId(m));
    }
    return homes.add_shard(std::move(replicas));
  };
  (void)new_shard();

  for (int step = 0; step < 60; ++step) {
    switch (rng.next_below(3)) {
      case 0: {
        // One-machine or replicated shard, fresh or already registered (so
        // self-delegations and cycles get tried too).
        const ShardId shard = rng.bernoulli(0.5)
                                  ? new_shard()
                                  : static_cast<ShardId>(
                                        rng.next_below(homes.shard_count()));
        const EntityId root = pick();
        const std::vector<ShardId> before = ownership(homes, ctxs);
        if (homes.install_delegation(graph, root, shard).is_ok()) {
          // The root is reassigned; everything else either kept its owner
          // or was unowned and is now claimed.
          EXPECT_EQ(homes.shard_of(root), shard);
          const std::vector<ShardId> after = ownership(homes, ctxs);
          for (std::size_t i = 0; i < ctxs.size(); ++i) {
            if (ctxs[i] == root || after[i] == before[i]) continue;
            EXPECT_EQ(before[i], AuthorityMap::kNoShard);
            EXPECT_EQ(after[i], shard);
          }
        } else {
          EXPECT_EQ(ownership(homes, ctxs), before);
        }
        break;
      }
      case 1: {
        const EntityId root = pick();
        const auto to =
            static_cast<ShardId>(rng.next_below(homes.shard_count()));
        const ShardId from = homes.shard_of(root);
        const std::vector<EntityId> moving = homes.shard_subtree(graph, root);
        const std::vector<ShardId> before = ownership(homes, ctxs);
        auto moved = homes.migrate_subtree(graph, root, to);
        if (from == AuthorityMap::kNoShard || from == to) {
          EXPECT_FALSE(moved.is_ok());
          EXPECT_EQ(ownership(homes, ctxs), before);
          break;
        }
        ASSERT_TRUE(moved.is_ok());
        EXPECT_EQ(moved.value(), moving.size());
        const std::vector<ShardId> after = ownership(homes, ctxs);
        for (std::size_t i = 0; i < ctxs.size(); ++i) {
          const bool in_subtree = std::find(moving.begin(), moving.end(),
                                            ctxs[i]) != moving.end();
          EXPECT_EQ(after[i], in_subtree ? to : before[i]);
        }
        break;
      }
      default: {
        ShardRing ring;
        ring.add_shard(0);
        for (ShardId s = 1; s < homes.shard_count(); ++s) {
          if (rng.bernoulli(0.5)) ring.add_shard(s);
        }
        const EntityId parent = pick();
        std::vector<EntityId> moved;
        ASSERT_TRUE(
            homes.delegate_children_by_hash(graph, parent, ring, &moved)
                .is_ok());
        for (EntityId child : moved) {
          EXPECT_NE(homes.shard_of(child), ring.shard_for(child));
        }
        break;
      }
    }
    expect_partition(graph, homes, ctxs);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OwnershipPartitionTest,
                         ::testing::Range(1, 26));

// --- ShardRing ----------------------------------------------------------------

TEST(ShardRingTest, SpreadsKeysRoughlyEvenly) {
  ShardRing ring;
  for (ShardId s = 0; s < 8; ++s) ring.add_shard(s);
  std::unordered_map<ShardId, std::size_t> counts;
  for (std::uint64_t id = 0; id < 8000; ++id) {
    counts[ring.shard_for(EntityId(id))]++;
  }
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, 300u) << "shard " << shard << " underloaded";
    EXPECT_LT(count, 2500u) << "shard " << shard << " overloaded";
  }
}

TEST(ShardRingTest, AddingAShardRemapsOnlyItsSlice) {
  ShardRing before;
  for (ShardId s = 0; s < 8; ++s) before.add_shard(s);
  ShardRing after;
  for (ShardId s = 0; s < 9; ++s) after.add_shard(s);
  std::size_t moved = 0;
  for (std::uint64_t id = 0; id < 9000; ++id) {
    const ShardId was = before.shard_for(EntityId(id));
    const ShardId now = after.shard_for(EntityId(id));
    if (was != now) {
      ++moved;
      // Every remapped key lands on the new shard, never between old ones.
      EXPECT_EQ(now, 8u);
    }
  }
  // ~1/9th of the keyspace, with generous slack for hash variance.
  EXPECT_GT(moved, 200u);
  EXPECT_LT(moved, 2500u);
}

TEST(ShardRingTest, AddShardIsIdempotent) {
  ShardRing ring;
  ring.add_shard(3);
  const std::size_t points = ring.point_count();
  ring.add_shard(3);
  EXPECT_EQ(ring.point_count(), points);
  EXPECT_EQ(ring.shard_count(), 1u);
}

// --- Glue chases and shard-aware routing --------------------------------------

class ShardedResolutionTest : public ::testing::Test {
 protected:
  ShardedResolutionTest()
      : transport_(sim_, net_), service_(graph_, net_, transport_, homes_) {
    NetworkId lan = net_.add_network("lan");
    ma_ = net_.add_machine(lan, "ma");
    mb_ = net_.add_machine(lan, "mb");
    mc_ = net_.add_machine(lan, "mc");
    mclient_ = net_.add_machine(lan, "mclient");
    root_ = graph_.add_context_object("root");
    tree_ = build_context_tree(graph_, root_, /*fanout=*/2, /*depth=*/3);
    s0_ = homes_.add_shard({ma_});
    s1_ = homes_.add_shard({mb_});
    s2_ = homes_.add_shard({mc_});
    // Chained delegation, installed while unowned (outside-in): root on
    // s0, the c0 subtree on s1, and c0/c0 — inside the already-delegated
    // region — on s2. A full-path resolve crosses two delegation
    // boundaries.
    x_ = tree_.levels[1][0];
    y_ = tree_.levels[2][0];
    EXPECT_TRUE(homes_.install_delegation(graph_, y_, s2_).is_ok());
    EXPECT_TRUE(homes_.install_delegation(graph_, x_, s1_).is_ok());
    EXPECT_TRUE(homes_.install_delegation(graph_, root_, s0_).is_ok());
    leaf_ = graph_.add_data_object("leaf");
    EXPECT_TRUE(graph_.bind(y_, Name("f"), leaf_).is_ok());
    service_.add_server(ma_);
    service_.add_server(mb_);
    service_.add_server(mc_);
    service_.add_server(mclient_);
  }

  std::uint64_t shard_counter(const std::string& what) const {
    return transport_.metrics().counter_value("ns.shard." + what);
  }

  NamingGraph graph_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  AuthorityMap homes_;
  NameService service_;
  MachineId ma_, mb_, mc_, mclient_;
  EntityId root_, x_, y_, leaf_;
  TreeBuildResult tree_;
  ShardId s0_, s1_, s2_;
};

TEST_F(ShardedResolutionTest, TwoHopGlueChaseAcrossChainedDelegations) {
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c", cfg);
  auto result = client.resolve(root_, CompoundName::relative("c0/c0/f"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), leaf_);
  // Two referrals, each carrying glue for a shard that is itself a
  // delegate: s0's referral for x (owned s1), then s1's referral for y
  // (owned s2). Both next hops were routed by the glue just learned, and
  // both crossed a shard boundary.
  EXPECT_EQ(shard_counter("delegations_chased"), 2u);
  EXPECT_EQ(shard_counter("glue_hits"), 2u);
  EXPECT_EQ(shard_counter("cross_shard_hops"), 2u);
  EXPECT_EQ(client.snapshot()["referrals_followed"], 2u);
}

TEST_F(ShardedResolutionTest, GlueOnTheWireIsIgnoredWithoutShardRouting) {
  // A client without shard_routing resolving the same name: both
  // referrals carry glue, but the client reads none of it and chases
  // through each referral's replica list instead.
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "old");
  auto result = client.resolve(root_, CompoundName::relative("c0/c0/f"));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), leaf_);
  EXPECT_EQ(shard_counter("delegations_chased"), 0u);
  EXPECT_EQ(shard_counter("glue_hits"), 0u);
}

TEST_F(ShardedResolutionTest, LeaseInvalidationSurvivesMigration) {
  service_.set_lease_policy(5000);
  ResolverClientConfig cfg;
  cfg.shard_routing = true;
  cfg.lease_coherence = true;
  cfg.cache_ttl = 100000;
  ResolverClient client(graph_, net_, transport_, sim_, service_, mclient_,
                        "c", cfg);
  const CompoundName target = CompoundName::relative("c0/c0/f");
  auto first = client.resolve(root_, target);
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first.value(), leaf_);

  // Migrate y across a delegation boundary: s2 hands it back to its
  // delegator-side neighbour s1. The lease the client holds was granted
  // by s2's machine; the rebind after the migration must still reach that
  // lease table and push the invalidation.
  ASSERT_TRUE(homes_.install_delegation(graph_, y_, s1_).is_ok());
  ASSERT_EQ(homes_.shard_of(y_), s1_);
  EntityId leaf2 = graph_.add_data_object("leaf2");
  ASSERT_TRUE(graph_.unbind(y_, Name("f")).is_ok());
  ASSERT_TRUE(graph_.bind(y_, Name("f"), leaf2).is_ok());
  service_.publish_update(y_);
  sim_.run();

  EXPECT_GE(client.snapshot()["invalidates_received"], 1u);
  auto second = client.resolve(root_, target);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value(), leaf2);
}

}  // namespace
}  // namespace namecoh
