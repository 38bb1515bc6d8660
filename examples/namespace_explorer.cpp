// Namespace explorer: a four-MDS cluster serving a mixed CREATE / DELETE /
// RENAME workload over a hash-partitioned tree — the paper's Figure 1
// world, exercised end to end.  Shows how operations split across servers
// and how the hybrid protocol selector dispatches them: local fast path
// for co-located ops, 1PC for two-server ops, PrN fallback for renames
// touching up to four servers.
//
//   $ ./namespace_explorer [ops] [seed]
#include <cstdio>
#include <cstdlib>

#include "stats/table.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace opc;
  const std::uint64_t total_ops =
      argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  const std::uint64_t seed =
      argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 7;

  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cfg;
  cfg.n_nodes = 4;
  cfg.protocol = ProtocolKind::kOnePC;
  cfg.record_history = true;
  cfg.seed = seed;
  Cluster cluster(sim, cfg, stats, trace);

  ThroughputMeter meter;
  Workload workload(cluster,
                    WorkloadSpec{.shape = WorkloadShape::kMixed,
                                 .n_dirs = 8,
                                 .mix = {0.55, 0.30}},
                    SourceConfig{.concurrency = 8, .max_ops = total_ops},
                    meter, stats);
  workload.start();
  sim.run();

  std::printf("=== namespace explorer: %llu mixed operations over 4 MDSs "
              "===\n\n",
              static_cast<unsigned long long>(total_ops));

  TextTable placement({"server", "inodes", "dentries", "log device busy"});
  for (std::uint32_t n = 0; n < 4; ++n) {
    placement.add_row(
        {NodeId(n).str(),
         std::to_string(cluster.store(NodeId(n)).stable_inode_count()),
         std::to_string(cluster.store(NodeId(n)).stable_dentry_count()),
         to_string(cluster.storage().partition(NodeId(n)).device()
                       .busy_time())});
  }
  std::fputs(placement.render().c_str(), stdout);

  std::printf("\noperation mix submitted:  CREATE=%lld DELETE=%lld "
              "RENAME=%lld\n",
              static_cast<long long>(stats.get("acp.submitted.CREATE")),
              static_cast<long long>(stats.get("acp.submitted.DELETE")),
              static_cast<long long>(stats.get("acp.submitted.RENAME")));
  std::printf("dispatch:  local fast-path=%lld  distributed=%lld "
              "(renames wider than two MDSs ran as PrN)\n",
              static_cast<long long>(stats.get("acp.local")),
              static_cast<long long>(stats.get("acp.submitted") -
                                     stats.get("acp.local")));
  std::printf("committed=%llu aborted=%llu   elapsed(sim)=%s   %.1f ops/s\n",
              static_cast<unsigned long long>(workload.committed()),
              static_cast<unsigned long long>(workload.aborted()),
              to_string(sim.now()).c_str(),
              static_cast<double>(workload.committed()) /
                  sim.now().to_seconds_f());

  const auto violations = cluster.check_invariants(workload.dirs());
  std::printf("invariants: %s\n",
              violations.empty() ? "clean" : render_violations(violations).c_str());
  const bool serializable = cluster.history()->serializable();
  std::printf("committed history conflict-serializable: %s\n",
              serializable ? "yes" : "NO");
  return (violations.empty() && serializable) ? 0 : 1;
}
