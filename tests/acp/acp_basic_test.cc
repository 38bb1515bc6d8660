// Failure-free behaviour of all four protocols: a distributed CREATE
// commits, both stores converge, and the per-protocol cost counters match
// the paper's Table I exactly.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/timeline.h"
#include "mds/namespace.h"

namespace opc {
namespace {

struct Fixture {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{true};
  ClusterConfig cc;
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  std::unique_ptr<PinnedPartitioner> part;
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId dir;

  explicit Fixture(ProtocolKind proto, std::uint32_t nodes = 2) {
    cc.n_nodes = nodes;
    cc.protocol = proto;
    cc.record_history = true;
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    dir = ids.next();
    part = std::make_unique<PinnedPartitioner>(nodes, NodeId(1));
    part->assign(dir, NodeId(0));
    cluster->bootstrap_directory(dir, NodeId(0));
    planner = std::make_unique<NamespacePlanner>(*part, OpCosts{});
  }
};

class ProtocolParamTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolParamTest, DistributedCreateCommits) {
  Fixture f(GetParam());
  const ObjectId inode = f.ids.next();
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "a.txt", inode, false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();

  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  // Dentry on mds0, inode on mds1, both stable.
  EXPECT_EQ(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "a.txt"), inode);
  const auto ino = f.cluster->store(NodeId(1)).stable_inode(inode);
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(ino->nlink, 1u);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  // No unfinished protocol state anywhere.
  EXPECT_EQ(f.cluster->engine(NodeId(0)).active_coordinations(), 0u);
  EXPECT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 0u);
}

TEST_P(ProtocolParamTest, DistributedDeleteCommits) {
  Fixture f(GetParam());
  const ObjectId inode = f.ids.next();
  int replies = 0;
  f.cluster->submit(f.planner->plan_create(f.dir, "victim", inode, false),
                    [&](TxnId, TxnOutcome o) {
                      ++replies;
                      ASSERT_EQ(o, TxnOutcome::kCommitted);
                    });
  f.sim.run();
  f.cluster->submit(f.planner->plan_delete(f.dir, "victim", inode),
                    [&](TxnId, TxnOutcome o) {
                      ++replies;
                      ASSERT_EQ(o, TxnOutcome::kCommitted);
                    });
  f.sim.run();

  EXPECT_EQ(replies, 2);
  EXPECT_FALSE(
      f.cluster->store(NodeId(0)).stable_lookup(f.dir, "victim").has_value());
  EXPECT_FALSE(f.cluster->store(NodeId(1)).stable_inode(inode).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST_P(ProtocolParamTest, SequentialCreatesAllCommitAndAreSerializable) {
  Fixture f(GetParam());
  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    f.cluster->submit(
        f.planner->plan_create(f.dir, "f" + std::to_string(i), f.ids.next(),
                               false),
        [&](TxnId, TxnOutcome o) {
          if (o == TxnOutcome::kCommitted) ++committed;
        });
  }
  f.sim.run();
  EXPECT_EQ(committed, 10);
  EXPECT_EQ(f.cluster->store(NodeId(0)).stable_dentry_count(), 10u);
  EXPECT_EQ(f.cluster->store(NodeId(1)).stable_inode_count(), 10u);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  ASSERT_NE(f.cluster->history(), nullptr);
  EXPECT_TRUE(f.cluster->history()->serializable());
}

TEST_P(ProtocolParamTest, DuplicateNameIsRejectedAtomically) {
  Fixture f(GetParam());
  TxnOutcome first = TxnOutcome::kPending;
  TxnOutcome second = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "same", f.ids.next(), false),
                    [&](TxnId, TxnOutcome o) { first = o; });
  f.sim.run();
  const ObjectId dup_inode = f.ids.next();
  f.cluster->submit(f.planner->plan_create(f.dir, "same", dup_inode, false),
                    [&](TxnId, TxnOutcome o) { second = o; });
  f.sim.run();

  EXPECT_EQ(first, TxnOutcome::kCommitted);
  EXPECT_EQ(second, TxnOutcome::kAborted);
  // The duplicate's inode must not leak on the worker.
  EXPECT_FALSE(f.cluster->store(NodeId(1)).stable_inode(dup_inode).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolParamTest,
                         ::testing::ValuesIn(kAllProtocolsExt),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

// --- Table I ---------------------------------------------------------------

struct TableRow {
  ProtocolKind proto;
  int sync_total, async_total, sync_crit, async_crit, msgs, msgs_crit;
};

class TableOneTest : public ::testing::TestWithParam<TableRow> {};

TEST_P(TableOneTest, CountsMatchPaper) {
  const TableRow row = GetParam();
  const TimelineResult r = run_single_create(row.proto);
  EXPECT_EQ(r.sync_writes, row.sync_total) << "total sync log writes";
  EXPECT_EQ(r.async_writes, row.async_total) << "total async log writes";
  EXPECT_EQ(r.sync_writes_critical, row.sync_crit) << "critical sync writes";
  EXPECT_EQ(r.async_writes_critical, row.async_crit)
      << "critical async writes";
  EXPECT_EQ(r.extra_msgs, row.msgs) << "total extra messages";
  EXPECT_EQ(r.extra_msgs_critical, row.msgs_crit) << "critical extra messages";
}

// Static storage: the padding after `proto` is zero, so gtest's byte dump
// of each row (part of the ctest name) is the same in every run.
const TableRow kTableOne[] = {
    {ProtocolKind::kPrN, 5, 1, 4, 1, 4, 4},
    {ProtocolKind::kPrC, 4, 1, 3, 0, 3, 2},
    {ProtocolKind::kEP, 4, 1, 3, 0, 1, 0},
    {ProtocolKind::kOnePC, 3, 1, 2, 0, 1, 0},
};

INSTANTIATE_TEST_SUITE_P(
    PaperTableOne, TableOneTest, ::testing::ValuesIn(kTableOne),
    [](const auto& info) {
      return std::string(protocol_name(info.param.proto));
    });

// 1PC's headline: the client reply precedes the coordinator's commit force,
// so its latency beats every 2PC variant's.
TEST(LatencyShape, OnePcRepliesFastest) {
  const auto prn = run_single_create(ProtocolKind::kPrN);
  const auto prc = run_single_create(ProtocolKind::kPrC);
  const auto ep = run_single_create(ProtocolKind::kEP);
  const auto onepc = run_single_create(ProtocolKind::kOnePC);
  EXPECT_LT(onepc.client_latency, ep.client_latency);
  EXPECT_LT(ep.client_latency, prn.client_latency);   // EP saves a round trip
  EXPECT_LE(prc.client_latency, prn.client_latency);  // PrC skips the ACK wait
  // And the 1PC coordinator still finishes durably after the reply.
  EXPECT_GT(onepc.txn_complete, onepc.client_latency);
}

}  // namespace
}  // namespace opc
