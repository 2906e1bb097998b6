// The metrics catalogue check (docs/OBSERVABILITY.md, "Metric families"):
// drive a small cluster through leases, membership events, a fault and a
// live migration, dump every name its registry holds, fold numeric ids to
// `<id>`, and require each resulting family to have an entry in the doc.
// A component that starts registering a new family fails this test until
// the doc describes it.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/graph_ops.hpp"
#include "ns/membership.hpp"
#include "ns/rebalance.hpp"
#include "workload/scenario.hpp"

namespace namecoh {
namespace {

/// `ns.client.7.cache_hits` → `ns.client.<id>.cache_hits`; a component
/// that ends in digits after a letter prefix keeps the prefix
/// (`ns.server.m3.served` → `ns.server.m<id>.served`).
std::string fold_ids(const std::string& name) {
  std::string out;
  std::istringstream parts(name);
  std::string part;
  while (std::getline(parts, part, '.')) {
    std::size_t digits = part.size();
    while (digits > 0 &&
           std::isdigit(static_cast<unsigned char>(part[digits - 1]))) {
      --digits;
    }
    if (digits < part.size()) part = part.substr(0, digits) + "<id>";
    if (!out.empty()) out += '.';
    out += part;
  }
  return out;
}

/// The family a folded name belongs to: everything but its last
/// component, then `.*` (`ns.client.<id>.cache_hits` → `ns.client.<id>.*`).
std::string family_of(const std::string& folded) {
  return folded.substr(0, folded.rfind('.')) + ".*";
}

TEST(MetricDocs, FoldsIdsAndNamesFamilies) {
  EXPECT_EQ(fold_ids("ns.client.17.cache_hits"), "ns.client.<id>.cache_hits");
  EXPECT_EQ(fold_ids("ns.server.m3.served"), "ns.server.m<id>.served");
  EXPECT_EQ(fold_ids("transport.sent"), "transport.sent");
  EXPECT_EQ(family_of(fold_ids("ns.server.subtree.42.hits")),
            "ns.server.subtree.<id>.*");
  EXPECT_EQ(family_of("transport.fault.crashes"), "transport.fault.*");
}

std::set<std::string> registered_families(const MetricsRegistry& metrics) {
  std::set<std::string> names;
  for (const auto& [name, counter] : metrics.counters()) names.insert(name);
  for (const auto& [name, gauge] : metrics.gauges()) names.insert(name);
  for (const auto& [name, hist] : metrics.histograms()) names.insert(name);
  std::set<std::string> families;
  for (const std::string& name : names) {
    std::cout << name << '\n';  // the dump: every registered name
    families.insert(family_of(fold_ids(name)));
  }
  return families;
}

TEST(MetricDocs, EveryRegisteredFamilyIsDocumented) {
  NamingGraph graph;
  const EntityId root = graph.add_context_object("root");
  const TreeBuildResult tree =
      build_context_tree(graph, root, /*fanout=*/4, /*depth=*/3);
  const std::vector<EntityId>& subtrees = tree.levels[1];

  MembershipOptions members_options;
  members_options.handoff.copy_batch = 4;
  members_options.handoff.copy_interval = 10;
  members_options.handoff.settle_delay = 50;
  members_options.handoff.forward_window = 500;
  ResolverClientConfig client_config;
  client_config.cache_ttl = 1000;
  client_config.lease_coherence = true;
  client_config.shard_routing = true;
  auto cluster = ScenarioBuilder(graph)
                     .shards(3)
                     .service_time(5)
                     .lease_policy(2000)
                     .delegate_children_by_hash(root)
                     .delegate(root, 0)
                     .track_loads(subtrees)
                     .with_membership(members_options)
                     .client_config(client_config)
                     .build();
  Simulator& sim = cluster->sim();
  ResolverClient& client = cluster->client();
  auto lookups = [&] {
    for (EntityId sub : subtrees) {
      const Name& child = graph.context(sub).bindings().back().name;
      (void)client.resolve(sub, CompoundName::relative(child.text()));
    }
  };
  lookups();

  // One live migration of a subtree to another shard.
  const EntityId moved = subtrees.front();
  const ShardId from = cluster->homes().shard_of(moved);
  MigrationOptions migration;
  migration.copy_batch = 4;
  migration.copy_interval = 10;
  migration.settle_delay = 50;
  migration.forward_window = 500;
  MigrationDriver driver(graph, cluster->homes(), cluster->service(), sim);
  ASSERT_TRUE(driver.start(moved, (from + 1) % 3, migration).is_ok());
  driver.run_to_completion();
  lookups();

  // Membership: a rename (route healing), a graceful leave and rejoin, and
  // a crash, which the fault injector reports.
  MembershipDirectory& members = *cluster->membership();
  ASSERT_TRUE(members.rename(cluster->machine(1)).is_ok());
  lookups();
  ASSERT_TRUE(members.graceful_leave(cluster->machine(2)).is_ok());
  members.run_handoffs_to_completion();
  ASSERT_TRUE(members.rejoin(cluster->machine(2)).is_ok());
  members.run_handoffs_to_completion();
  ASSERT_TRUE(members.crash_leave(cluster->machine(1)).is_ok());
  members.run_handoffs_to_completion();
  lookups();
  sim.run();

  const MetricsRegistry& metrics = cluster->metrics();
  EXPECT_GT(metrics.counter_value("ns.server.leases_granted"), 0u);
  EXPECT_GE(metrics.counter_value("ns.rebalance.migrations_completed"), 1u);
  EXPECT_EQ(metrics.counter_value("ns.membership.renames"), 1u);
  EXPECT_EQ(metrics.counter_value("transport.fault.crashes"), 1u);
  const std::set<std::string> families = registered_families(metrics);
  // The scenario must reach every layer it claims to, or the check below
  // passes vacuously.
  for (const char* expected :
       {"transport.*", "transport.fault.*", "ns.server.*",
        "ns.server.m<id>.*", "ns.server.subtree.<id>.*", "ns.client.<id>.*",
        "ns.shard.*", "ns.member.*", "ns.membership.*", "ns.rebalance.*"}) {
    EXPECT_TRUE(families.contains(expected)) << expected;
  }

  std::ifstream in(NAMECOH_DOCS_DIR "/OBSERVABILITY.md");
  ASSERT_TRUE(in.good()) << "cannot read docs/OBSERVABILITY.md";
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  for (const std::string& family : families) {
    EXPECT_TRUE(doc.find('`' + family + '`') != std::string::npos)
        << "metric family `" << family
        << "` has no entry in docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace namecoh
