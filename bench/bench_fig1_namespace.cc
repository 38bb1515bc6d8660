// Figure 1 reproduction: a namespace distributed over a cluster of four
// metadata servers.  Builds a realistic tree through the actual commit
// machinery (hash partitioning, hybrid protocol selection) and prints the
// per-server metadata placement, including parent/child splits like the
// paper's file1-vs-dir2 example.
#include <cstdio>

#include "cluster/cluster.h"
#include "mds/namespace.h"
#include "smoke.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace opc;
  // Smoke keeps the same machinery (4 servers, hybrid protocol selection)
  // over a smaller tree.
  const bool smoke = benchutil::smoke_mode(argc, argv);
  const int n_dirs = smoke ? 2 : 6;
  const int n_files = smoke ? 2 : 8;
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cc;
  cc.n_nodes = 4;
  cc.protocol = ProtocolKind::kOnePC;
  Cluster cluster(sim, cc, stats, trace);

  IdAllocator ids;
  HashPartitioner part(4);
  NamespacePlanner planner(part, OpCosts{});

  const ObjectId root = ids.next();
  cluster.bootstrap_directory(root, part.home_of(root));

  // Build /dirN/fileM: 6 directories, 8 files each.
  std::vector<ObjectId> dirs;
  std::uint64_t committed = 0, distributed = 0, local = 0;
  auto submit = [&](Transaction txn) {
    (txn.is_local() ? local : distributed)++;
    cluster.submit(std::move(txn), [&](TxnId, TxnOutcome o) {
      if (o == TxnOutcome::kCommitted) ++committed;
    });
    sim.run();
  };
  for (int d = 0; d < n_dirs; ++d) {
    const ObjectId dir = ids.next();
    dirs.push_back(dir);
    submit(planner.plan_create(root, "dir" + std::to_string(d), dir,
                               /*is_dir=*/true));
    for (int f = 0; f < n_files; ++f) {
      submit(planner.plan_create(dir, "file" + std::to_string(f), ids.next(),
                                 false));
    }
  }

  std::printf("=== Figure 1: distributed namespace over 4 metadata servers "
              "===\n\n");
  TextTable table({"server", "inodes", "dentries", "sample objects"});
  for (std::uint32_t n = 0; n < 4; ++n) {
    const MetaStore& store = cluster.store(NodeId(n));
    std::string sample;
    int shown = 0;
    for (const auto& [dir, name, child] : store.stable_dentries()) {
      (void)child;
      if (shown++ == 3) break;
      sample += (sample.empty() ? "" : ", ") + name + "@dir" +
                std::to_string(dir.value());
    }
    table.add_row({NodeId(n).str(), std::to_string(store.stable_inode_count()),
                   std::to_string(store.stable_dentry_count()), sample});
  }
  std::fputs(table.render().c_str(), stdout);

  // The paper's point: a file and its parent directory can live on
  // different MDSs, which is what makes CREATE/DELETE distributed.
  std::printf("\ncommitted namespace operations: %llu (distributed: %llu, "
              "local: %llu)\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(distributed),
              static_cast<unsigned long long>(local));
  const auto violations = cluster.check_invariants({root});
  std::printf("namespace invariants: %s\n",
              violations.empty() ? "clean" : render_violations(violations).c_str());
  return violations.empty() &&
                 committed == static_cast<std::uint64_t>(n_dirs +
                                                         n_dirs * n_files)
             ? 0
             : 1;
}
