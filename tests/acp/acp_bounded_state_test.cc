// Bounded per-transaction state: a long create/remove churn must leave
// every engine and store holding state for the work in flight, not for the
// transactions run (ROADMAP item 2).  The gate samples the tables while the
// churn runs and again at quiescence:
//   * AcpEngine::finished_count() — only aborts are remembered, so it stays
//     at most the aborts so far plus the transactions in flight;
//   * MetaStore::stable_applied_count() — an id is forgotten at the
//     checkpoint that truncates its log records, so for PrN, 1PC and PrA it
//     stays at most the node's in-flight work.  PrC/EP workers write their
//     COMMITTED lazily and never checkpoint, so there the set is bounded by
//     the node's live log records instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/experiment.h"
#include "workload/workload.h"

namespace opc {
namespace {

constexpr std::uint64_t kTxns = 100000;

struct ChurnCase {
  const char* name;
  ProtocolKind proto;
  std::uint32_t participants;
};

// Names the case in gtest's listing instead of dumping its bytes (the name
// pointer would change the listed test name from build to build).
void PrintTo(const ChurnCase& c, std::ostream* os) { *os << c.name; }

const ChurnCase kCases[] = {
    {"PrN", ProtocolKind::kPrN, 2},   {"PrC", ProtocolKind::kPrC, 2},
    {"EP", ProtocolKind::kEP, 2},     {"OnePC", ProtocolKind::kOnePC, 2},
    {"PrA", ProtocolKind::kPrA, 2},   {"OnePC_3p", ProtocolKind::kOnePC, 3},
};

class BoundedState : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(BoundedState, ChurnKeepsTablesAtInFlightSize) {
  const ChurnCase& c = GetParam();
  const bool checkpoints_workers =
      !traits(c.proto).presume_commit || traits(c.proto).commit_on_update;

  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cc;
  cc.n_nodes = 3;
  cc.protocol = c.proto;
  cc.net.latency = Duration::micros(100);
  cc.disk.bytes_per_second = 1024.0 * 1024.0 * 1024.0;
  Cluster cluster(sim, cc, stats, trace);

  WorkloadSpec spec;
  spec.shape = WorkloadShape::kMixed;
  spec.n_dirs = 8;
  spec.participants = c.participants;
  // A create adds participants-1 names and a remove drops one, so this
  // split keeps the directories at a steady size (and the source's
  // remove-candidate scan short).
  spec.mix.create = 1.0 / c.participants;
  spec.mix.remove = 1.0 - spec.mix.create;
  SourceConfig source;
  source.concurrency = 32;
  source.max_ops = kTxns;
  ThroughputMeter meter;
  Workload workload(cluster, spec, source, meter, stats);
  workload.start();

  std::size_t peak_finished = 0;
  std::size_t peak_applied = 0;
  auto check = [&] {
    std::uint64_t aborted = 0;
    std::size_t in_flight = 0;
    for (std::uint32_t n = 0; n < cluster.size(); ++n) {
      const AcpEngine& e = cluster.engine(NodeId(n));
      aborted += e.aborted_count();
      in_flight += e.active_coordinations() + e.active_participations();
    }
    for (std::uint32_t n = 0; n < cluster.size(); ++n) {
      const AcpEngine& e = cluster.engine(NodeId(n));
      const std::size_t node_in_flight =
          e.active_coordinations() + e.active_participations();
      const std::size_t applied =
          cluster.store(NodeId(n)).stable_applied_count();
      peak_finished = std::max(peak_finished, e.finished_count());
      peak_applied = std::max(peak_applied, applied);
      ASSERT_LE(e.finished_count(), aborted + in_flight) << "node " << n;
      if (checkpoints_workers) {
        ASSERT_LE(applied, node_in_flight) << "node " << n;
      } else {
        ASSERT_LE(applied,
                  node_in_flight + cluster.storage()
                                       .partition(NodeId(n))
                                       .records()
                                       .size())
            << "node " << n;
      }
    }
  };

  // 10^5 transactions take a few simulated seconds; the cap only stops a
  // stall from hanging the suite.
  for (int step = 0; step < 100000 && !sim.idle(); ++step) {
    sim.run_for(Duration::millis(20));
    check();
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(sim.idle()) << "the churn did not drain";
  check();

  EXPECT_GE(workload.committed() + workload.aborted(), kTxns);
  EXPECT_EQ(workload.lost(), 0u);
  EXPECT_TRUE(cluster.check_invariants(workload.dirs()).empty());
  // Quiescent: nothing in flight, so only aborts are remembered and the
  // checkpointing protocols keep no applied id at all.
  std::uint64_t aborted = 0;
  for (std::uint32_t n = 0; n < cluster.size(); ++n) {
    aborted += cluster.engine(NodeId(n)).aborted_count();
  }
  for (std::uint32_t n = 0; n < cluster.size(); ++n) {
    EXPECT_LE(cluster.engine(NodeId(n)).finished_count(), aborted);
    if (checkpoints_workers) {
      EXPECT_EQ(cluster.store(NodeId(n)).stable_applied_count(), 0u);
    }
  }
  RecordProperty("peak_finished", static_cast<int>(peak_finished));
  RecordProperty("peak_stable_applied", static_cast<int>(peak_applied));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BoundedState,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace opc
