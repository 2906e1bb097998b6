// Capstone integration test: a distributed build farm, every layer at once.
//
// Topology: an Andrew-style shared naming graph with two client machines.
// The project lives in the shared tree; the compiler is a multi-file
// program replicated on both machines; a build coordinator on m1 locates a
// builder service via the registry, execs the compiler *by name* on m2,
// passes the project path as a message, and the remote child resolves it —
// coherently, because the path is a /vice name. Everything flows through
// the real messaging layer on the simulator.
#include <gtest/gtest.h>

#include "coherence/coherence.hpp"
#include "fs/snapshot.hpp"
#include "ns/name_service.hpp"
#include "os/program.hpp"
#include "os/service_registry.hpp"
#include "schemes/shared_graph.hpp"
#include "workload/tree_gen.hpp"

namespace namecoh {
namespace {

class BuildFarm : public ::testing::Test {
 protected:
  BuildFarm()
      : fs_(graph_), transport_(sim_, net_),
        pm_(graph_, fs_, net_, transport_), scheme_(fs_),
        service_(graph_, net_, transport_, homes_) {
    NetworkId lan = net_.add_network("lan");
    m1_ = net_.add_machine(lan, "m1");
    m2_ = net_.add_machine(lan, "m2");
    c1_ = scheme_.add_site("c1");
    c2_ = scheme_.add_site("c2");
  }

  void SetUp() override {
    // Machine-local skeletons.
    populate_unix_skeleton(fs_, scheme_.site_tree(c1_), "m1");
    populate_unix_skeleton(fs_, scheme_.site_tree(c2_), "m2");
    // The project lives in the SHARED tree: /vice/projects/app.
    ASSERT_TRUE(fs_.create_file_at(scheme_.shared_tree(),
                                   "projects/app/main.c",
                                   "int main(){}").is_ok());
    // The compiler is a multi-file program installed on BOTH machines at
    // the same local path, as the paper's replicated commands.
    for (SiteId site : {c1_, c2_}) {
      EntityId tree = scheme_.site_tree(site);
      auto cc_dir = fs_.mkdir_p(tree, "opt/cc");
      ASSERT_TRUE(cc_dir.is_ok());
      ASSERT_TRUE(
          fs_.create_file_at(cc_dir.value(), "lib/backend.o", "[backend]")
              .is_ok());
      auto image = make_program(fs_, cc_dir.value(), Name("cc"),
                                "[cc-driver]", {"lib/backend.o"});
      ASSERT_TRUE(image.is_ok());
    }
    scheme_.finalize();
  }

  NamingGraph graph_;
  FileSystem fs_;
  Simulator sim_;
  Internetwork net_;
  Transport transport_;
  ProcessManager pm_;
  SharedGraphScheme scheme_;
  AuthorityMap homes_;
  NameService service_;
  MachineId m1_, m2_;
  SiteId c1_, c2_;
};

TEST_F(BuildFarm, EndToEndDistributedBuild) {
  // --- Boot ----------------------------------------------------------------
  EntityId root1 = scheme_.site_root(c1_);
  EntityId root2 = scheme_.site_root(c2_);
  ProcessId coordinator = pm_.spawn(m1_, "coordinator", root1, root1);
  ProcessId builder_daemon = pm_.spawn(m2_, "builder", root2, root2);

  // Registry on m1; the builder announces itself.
  ServiceRegistry registry(net_, transport_, m1_);
  RegistryClient rc(net_, transport_, sim_, registry);
  ASSERT_TRUE(rc.announce(pm_.info(builder_daemon).endpoint, "builder",
                          pm_.info(builder_daemon).endpoint).is_ok());
  pm_.settle();

  // --- Locate the builder ----------------------------------------------------
  auto builder_pid =
      rc.locate(pm_.info(coordinator).endpoint, "builder");
  ASSERT_TRUE(builder_pid.is_ok());
  EXPECT_EQ(transport_.resolve_pid(pm_.info(coordinator).endpoint,
                                   builder_pid.value()).value(),
            pm_.info(builder_daemon).endpoint);

  // --- Exec the compiler on m2, by name -------------------------------------
  // The coordinator names the compiler by ITS local path /opt/cc/cc; on m2
  // the replicated image at the same path loads (weak coherence in
  // action), and R(file) finds the backend segment.
  auto worker = exec_program(pm_, builder_daemon, m2_, "/opt/cc/cc");
  ASSERT_TRUE(worker.is_ok());
  EXPECT_EQ(pm_.info(worker.value()).machine, m2_);

  // --- Pass the project path as a message -----------------------------------
  const std::string project = "/vice/projects/app/main.c";
  ASSERT_TRUE(
      pm_.send_name_to(coordinator, worker.value(), project).is_ok());
  pm_.settle();
  ASSERT_FALSE(pm_.received_names().empty());
  const ReceivedName& param = pm_.received_names().back();

  // The worker resolves the parameter in its own context (R(receiver)) —
  // and because it is a /vice name, that is already coherent with what the
  // coordinator meant (§5.2: only shared names can be passed).
  Resolution meant = pm_.resolve_internal(coordinator, param.path);
  Resolution got = pm_.resolve_received(param, ByReceiverRule{});
  ASSERT_TRUE(meant.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(meant.same_entity(got));
  EXPECT_EQ(graph_.data(got.entity), "int main(){}");

  // A machine-local parameter would NOT have been coherent — the §5.2
  // restriction, verified negatively.
  ASSERT_TRUE(
      pm_.send_name_to(coordinator, worker.value(), "/etc/passwd").is_ok());
  pm_.settle();
  const ReceivedName& local_param = pm_.received_names().back();
  Resolution meant_local =
      pm_.resolve_internal(coordinator, local_param.path);
  Resolution got_local = pm_.resolve_received(local_param, ByReceiverRule{});
  EXPECT_FALSE(meant_local.same_entity(got_local));
  // …but R(sender) repairs even that one.
  Resolution repaired = pm_.resolve_received(local_param, BySenderRule{});
  EXPECT_TRUE(meant_local.same_entity(repaired));
}

TEST_F(BuildFarm, RemoteResolutionAgreesWithSharedTreeSemantics) {
  // Stand up name servers with authority split: each machine owns its own
  // tree, m1 additionally owns the shared tree.
  ASSERT_TRUE(homes_.install_delegation(graph_, scheme_.shared_tree(),
                                        homes_.add_shard({m1_}))
                  .is_ok());
  ASSERT_TRUE(homes_.install_delegation(graph_, scheme_.site_tree(c1_),
                                        homes_.add_shard({m1_}))
                  .is_ok());
  ASSERT_TRUE(homes_.install_delegation(graph_, scheme_.site_tree(c2_),
                                        homes_.add_shard({m2_}))
                  .is_ok());
  service_.add_server(m1_);
  service_.add_server(m2_);

  // A client on m2 resolves the shared project — referral to m1.
  ResolverClient client(graph_, net_, transport_, sim_, service_, m2_,
                        "resolver");
  auto remote = client.resolve(scheme_.site_tree(c2_),
                               CompoundName::relative(
                                   "vice/projects/app/main.c"));
  ASSERT_TRUE(remote.is_ok());
  // It must equal the in-memory resolution — same function, different cost.
  Resolution local = resolve_from(
      graph_, scheme_.site_tree(c2_),
      CompoundName::relative("vice/projects/app/main.c"));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(remote.value(), local.entity);
  EXPECT_GE(client.snapshot()["referrals_followed"], 1u);

  // And the entity is the same one m1's clients see: spatial coherence of
  // the shared graph, verified through the distributed path.
  ResolverClient client1(graph_, net_, transport_, sim_, service_, m1_,
                         "resolver1");
  auto from_m1 = client1.resolve(scheme_.site_tree(c1_),
                                 CompoundName::relative(
                                     "vice/projects/app/main.c"));
  ASSERT_TRUE(from_m1.is_ok());
  EXPECT_EQ(from_m1.value(), remote.value());
}

TEST_F(BuildFarm, ExecutableSnapshotTravelsToNewMachine) {
  // Ship the compiler to a third, brand-new machine as a snapshot (it is
  // NOT in the shared tree) and run it there: Fig. 6 + §5.3 for programs.
  EntityId tree3 = fs_.make_root("c3");  // a machine outside the federation

  Context ctx1 = FileSystem::make_process_context(scheme_.site_tree(c1_),
                                                  scheme_.site_tree(c1_));
  EntityId cc_dir = fs_.resolve_path(ctx1, "/opt/cc").entity;
  // Cut the shared tree at the boundary (not inside /opt/cc, but safe).
  auto snapshot = export_subtree(graph_, cc_dir, {scheme_.shared_tree()});
  ASSERT_TRUE(snapshot.is_ok());
  auto opt3 = fs_.mkdir_p(tree3, "opt");
  ASSERT_TRUE(opt3.is_ok());
  auto imported =
      import_snapshot(fs_, opt3.value(), Name("cc"), snapshot.value());
  ASSERT_TRUE(imported.is_ok());

  Context ctx3 = FileSystem::make_process_context(tree3, tree3);
  Resolution image = fs_.resolve_path(ctx3, "/opt/cc/cc");
  ASSERT_TRUE(image.ok());
  ProgramLoader loader(graph_);
  LoadedProgram program = loader.load(image.entity, image.trail.back());
  EXPECT_TRUE(program.complete());
  EXPECT_EQ(program.text, "[cc-driver][backend]");
}

}  // namespace
}  // namespace namecoh
