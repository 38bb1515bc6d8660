// Differential backend test: the same pre-planned create storm runs on the
// simulator (SimEnv) and on real threads (RtEnv), per protocol, and must
// land in the same place — identical commit/abort/fence totals and an
// identical stable namespace.  The plan fixes every ObjectId, name, and
// participant set up front (storm_plan.h), so the final state is a pure
// function of the plan, not of timing; only timing-dependent measurements
// (latency, wall clock, retry counters) are excluded from the comparison
// (docs/RUNTIME.md §5).  Both legs drive the plan through the same closed
// loop, PlannedSource (src/workload/source.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "rt/rt_cluster.h"
#include "rt/storm_plan.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace opc {
namespace {

constexpr std::uint32_t kNodes = 2;
constexpr std::uint32_t kOpsPerNode = 30;
constexpr std::uint32_t kConcurrency = 4;

using Dentry = std::tuple<ObjectId, std::string, ObjectId>;

struct Outcome {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::int64_t fences = 0;
  std::vector<Dentry> dentries;  // sorted
  std::size_t invariant_violations = 0;
};

std::vector<Dentry> collect_dentries(
    const std::vector<const MetaStore*>& stores) {
  std::vector<Dentry> out;
  for (const MetaStore* s : stores) {
    auto d = s->stable_dentries();
    out.insert(out.end(), d.begin(), d.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Outcome run_on_sim(ProtocolKind proto, const StormPlan& plan) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cfg;
  cfg.n_nodes = plan.n_nodes;
  cfg.protocol = proto;
  Cluster cluster(sim, cfg, stats, trace);
  for (std::uint32_t i = 0; i < plan.n_nodes; ++i) {
    cluster.bootstrap_directory(plan.dirs[i], NodeId(i));
  }

  // The closed loop RtCluster runs, on virtual time: one PlannedSource per
  // node with `kConcurrency` outstanding.
  ThroughputMeter meter;
  std::vector<std::unique_ptr<PlannedSource>> sources;
  for (std::uint32_t i = 0; i < plan.n_nodes; ++i) {
    sources.push_back(std::make_unique<PlannedSource>(
        cluster.env(), cluster, kConcurrency, meter, stats,
        plan.per_node[i]));
    sources.back()->start();
  }
  sim.run();

  Outcome out;
  for (std::uint32_t i = 0; i < plan.n_nodes; ++i) {
    out.committed += cluster.engine(NodeId(i)).committed_count();
    out.aborted += cluster.engine(NodeId(i)).aborted_count();
  }
  out.fences = stats.get("fencing.requests");
  out.dentries = collect_dentries(cluster.stores());
  out.invariant_violations = cluster.check_invariants(plan.dirs).size();
  return out;
}

Outcome run_on_rt(ProtocolKind proto, const StormPlan& plan) {
  RtClusterConfig cfg;
  cfg.n_nodes = plan.n_nodes;
  cfg.protocol = proto;
  // Faster-than-paper disk keeps the live run short; equivalence is about
  // final state, which the plan makes timing-independent.
  cfg.disk.bytes_per_second = 4.0 * 1024.0 * 1024.0;
  RtCluster cluster(cfg);
  for (std::uint32_t i = 0; i < plan.n_nodes; ++i) {
    cluster.bootstrap_directory(plan.dirs[i], NodeId(i));
  }
  RtCluster::StormResult res = cluster.run_storm(plan, kConcurrency);

  Outcome out;
  out.committed = res.committed;
  out.aborted = res.aborted;
  out.fences = res.stats.get("fencing.requests");
  out.dentries = collect_dentries(cluster.stores());
  out.invariant_violations = cluster.check_invariants(plan.dirs).size();
  return out;
}

void expect_equivalent(ProtocolKind proto, std::uint32_t nodes = kNodes,
                       std::uint32_t participants = 2) {
  const StormPlan plan = make_storm_plan(nodes, kOpsPerNode, participants);
  const Outcome sim = run_on_sim(proto, plan);
  const Outcome rt = run_on_rt(proto, plan);

  // Every planned create commits exactly once on both backends.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(nodes) * kOpsPerNode;
  EXPECT_EQ(sim.committed, expected);
  EXPECT_EQ(rt.committed, sim.committed);
  EXPECT_EQ(sim.aborted, 0u);
  EXPECT_EQ(rt.aborted, sim.aborted);

  // Quiescent runs never fence (heartbeats are off on both backends).
  EXPECT_EQ(sim.fences, 0);
  EXPECT_EQ(rt.fences, sim.fences);

  EXPECT_EQ(sim.invariant_violations, 0u);
  EXPECT_EQ(rt.invariant_violations, 0u);

  // The stable namespace — every (dir, name, inode) edge — matches.
  ASSERT_EQ(rt.dentries.size(), sim.dentries.size());
  EXPECT_EQ(rt.dentries, sim.dentries);
}

TEST(RtEquivalenceTest, PresumedNothing) {
  expect_equivalent(ProtocolKind::kPrN);
}

TEST(RtEquivalenceTest, PresumedCommit) {
  expect_equivalent(ProtocolKind::kPrC);
}

TEST(RtEquivalenceTest, EarlyPrepare) {
  expect_equivalent(ProtocolKind::kEP);
}

TEST(RtEquivalenceTest, OnePhaseCommit) {
  expect_equivalent(ProtocolKind::kOnePC);
}

// Three-participant storms (ISSUE 10): every transaction spans the
// coordinator plus two distinct worker nodes on a 3-node cluster.  Same
// contract — identical totals and an identical stable namespace across the
// two backends.  1PC is the interesting case: every wide submission takes
// the presumed-abort degrade path (src/acp/protocol.h) on both backends.
TEST(RtEquivalenceTest, PresumedNothingThreeParticipants) {
  expect_equivalent(ProtocolKind::kPrN, /*nodes=*/3, /*participants=*/3);
}

TEST(RtEquivalenceTest, PresumedCommitThreeParticipants) {
  expect_equivalent(ProtocolKind::kPrC, /*nodes=*/3, /*participants=*/3);
}

TEST(RtEquivalenceTest, EarlyPrepareThreeParticipants) {
  expect_equivalent(ProtocolKind::kEP, /*nodes=*/3, /*participants=*/3);
}

TEST(RtEquivalenceTest, OnePhaseCommitThreeParticipants) {
  expect_equivalent(ProtocolKind::kOnePC, /*nodes=*/3, /*participants=*/3);
}

}  // namespace
}  // namespace opc
