// Abort paths and isolation: worker vetoes, lock timeouts, decision
// retries, concurrency control across protocols.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "mds/namespace.h"

namespace opc {
namespace {

struct AbortFixture {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{false};
  ClusterConfig cc;
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  std::unique_ptr<PinnedPartitioner> part;
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId dir;

  explicit AbortFixture(ProtocolKind proto, Duration lock_timeout = {}) {
    cc.n_nodes = 2;
    cc.protocol = proto;
    cc.acp.lock_timeout = lock_timeout;
    cc.record_history = true;
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    dir = ids.next();
    part = std::make_unique<PinnedPartitioner>(2, NodeId(1));
    part->assign(dir, NodeId(0));
    cluster->bootstrap_directory(dir, NodeId(0));
    planner = std::make_unique<NamespacePlanner>(*part, OpCosts{});
  }
};

class AbortParamTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AbortParamTest, WorkerValidationVetoAborts) {
  AbortFixture f(GetParam());
  // Seed an inode so a duplicate CreateInode fails AT THE WORKER while the
  // coordinator's dentry op is fine.
  f.cluster->store(NodeId(1)).bootstrap_inode(
      Inode{ObjectId(777), false, 1, 0});
  // Keep the invariant checker quiet about the seeded inode.
  f.cluster->store(NodeId(0)).bootstrap_dentry(f.dir, "seed", ObjectId(777));

  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(
      f.planner->plan_create(f.dir, "clash", ObjectId(777), false),
      [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();

  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  EXPECT_FALSE(
      f.cluster->store(NodeId(0)).stable_lookup(f.dir, "clash").has_value())
      << "coordinator undid its dentry";
  EXPECT_GT(f.stats.get("acp.worker.validation_vetoes"), 0);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  // The directory lock is free again.
  TxnOutcome second = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "ok", f.ids.next(), false),
                    [&](TxnId, TxnOutcome o) { second = o; });
  f.sim.run();
  EXPECT_EQ(second, TxnOutcome::kCommitted);
}

TEST_P(AbortParamTest, CoordinatorValidationFailureAborts) {
  AbortFixture f(GetParam());
  // Delete a name that does not exist: the coordinator's RemoveDentry fails
  // locally before any worker is involved in the decision.
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_delete(f.dir, "ghost", ObjectId(404)),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();
  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  EXPECT_EQ(f.cluster->engine(NodeId(0)).active_coordinations(), 0u);
  EXPECT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 0u);
}

TEST_P(AbortParamTest, AbortedInodeNeverLeaks) {
  AbortFixture f(GetParam());
  // Two creates race for the same name; one must abort and its inode must
  // not survive anywhere.
  // Keyed by submission: reply order differs per protocol (PrN answers the
  // winner only after the full ACK round, i.e. after the loser's abort).
  TxnOutcome first = TxnOutcome::kPending;
  TxnOutcome second = TxnOutcome::kPending;
  const ObjectId ino_a = f.ids.next();
  const ObjectId ino_b = f.ids.next();
  f.cluster->submit(f.planner->plan_create(f.dir, "race", ino_a, false),
                    [&](TxnId, TxnOutcome o) { first = o; });
  f.cluster->submit(f.planner->plan_create(f.dir, "race", ino_b, false),
                    [&](TxnId, TxnOutcome o) { second = o; });
  f.sim.run();
  EXPECT_EQ(first, TxnOutcome::kCommitted) << "FIFO: first submission wins";
  EXPECT_EQ(second, TxnOutcome::kAborted);
  EXPECT_EQ(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "race"), ino_a);
  EXPECT_FALSE(f.cluster->store(NodeId(1)).stable_inode(ino_b).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  ASSERT_NE(f.cluster->history(), nullptr);
  EXPECT_TRUE(f.cluster->history()->serializable());
}

TEST_P(AbortParamTest, ConcurrentStormSerializesOnDirectoryLock) {
  AbortFixture f(GetParam());
  int committed = 0;
  for (int i = 0; i < 25; ++i) {
    f.cluster->submit(
        f.planner->plan_create(f.dir, "c" + std::to_string(i), f.ids.next(),
                               false),
        [&](TxnId, TxnOutcome o) {
          if (o == TxnOutcome::kCommitted) ++committed;
        });
  }
  f.sim.run();
  EXPECT_EQ(committed, 25);
  EXPECT_EQ(f.cluster->store(NodeId(0)).stable_dentry_count(), 25u);
  EXPECT_TRUE(f.cluster->history()->serializable());
  EXPECT_GT(f.stats.get("lock.grants.queued"), 0)
      << "contention actually exercised the queue";
}

TEST_P(AbortParamTest, NonEmptyDirectoryDeleteAbortsUntilEmptied) {
  AbortFixture f(GetParam());
  auto run = [&](Transaction txn) {
    TxnOutcome outcome = TxnOutcome::kPending;
    f.cluster->submit(std::move(txn),
                      [&](TxnId, TxnOutcome o) { outcome = o; });
    f.sim.run();
    return outcome;
  };
  // The subdirectory's inode lands on node 1 (the pinned default); the file
  // inside it is pinned back to node 0, so the nested create is distributed
  // as well.
  const ObjectId sub = f.ids.next();
  const ObjectId file = f.ids.next();
  f.part->assign(file, NodeId(0));
  ASSERT_EQ(run(f.planner->plan_create(f.dir, "sub", sub, /*is_dir=*/true)),
            TxnOutcome::kCommitted);
  ASSERT_EQ(run(f.planner->plan_create(sub, "file", file, false)),
            TxnOutcome::kCommitted);

  // Dropping the directory's last link while it holds "file" is vetoed at
  // its home, so the whole delete aborts and the child survives.
  EXPECT_EQ(run(f.planner->plan_delete(f.dir, "sub", sub)),
            TxnOutcome::kAborted);
  EXPECT_EQ(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "sub"), sub);
  EXPECT_EQ(f.cluster->store(NodeId(1)).stable_lookup(sub, "file"), file);
  EXPECT_TRUE(f.cluster->store(NodeId(0)).stable_inode(file).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());

  // Emptied, the same delete commits.
  ASSERT_EQ(run(f.planner->plan_delete(sub, "file", file)),
            TxnOutcome::kCommitted);
  EXPECT_EQ(run(f.planner->plan_delete(f.dir, "sub", sub)),
            TxnOutcome::kCommitted);
  EXPECT_FALSE(
      f.cluster->store(NodeId(0)).stable_lookup(f.dir, "sub").has_value());
  EXPECT_FALSE(f.cluster->store(NodeId(1)).stable_inode(sub).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  EXPECT_TRUE(f.cluster->history()->serializable());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, AbortParamTest,
                         ::testing::ValuesIn(kAllProtocolsExt),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

TEST(LockTimeoutAbort, StarvedTransactionAbortsAndRetriesCanSucceed) {
  // Tight lock timeout: with a deep queue, later arrivals time out (the
  // paper's deadlock-avoidance behaviour) instead of waiting forever.
  AbortFixture f(ProtocolKind::kOnePC, /*lock_timeout=*/Duration::millis(50));
  int committed = 0, aborted = 0;
  for (int i = 0; i < 10; ++i) {
    f.cluster->submit(
        f.planner->plan_create(f.dir, "t" + std::to_string(i), f.ids.next(),
                               false),
        [&](TxnId, TxnOutcome o) {
          (o == TxnOutcome::kCommitted ? committed : aborted)++;
        });
  }
  f.sim.run();
  EXPECT_GT(committed, 0);
  EXPECT_GT(aborted, 0) << "50ms budget cannot drain a 10-deep 20ms queue";
  EXPECT_EQ(committed + aborted, 10);
  EXPECT_GT(f.stats.get("lock.timeouts"), 0);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(UpdateTimeout, TwoPcFamilyAbortsWhenWorkerIsDown) {
  for (ProtocolKind proto :
       {ProtocolKind::kPrN, ProtocolKind::kPrC, ProtocolKind::kEP}) {
    AbortFixture f(proto);
    f.cc.acp.response_timeout = Duration::millis(200);
    // Rebuild with timeouts enabled.
    Simulator sim;
    StatsRegistry stats;
    TraceRecorder trace(false);
    ClusterConfig cc = f.cc;
    cc.acp.response_timeout = Duration::millis(200);
    cc.acp.retry_interval = Duration::millis(100);
    Cluster cluster(sim, cc, stats, trace);
    IdAllocator ids;
    const ObjectId dir = ids.next();
    PinnedPartitioner part(2, NodeId(1));
    part.assign(dir, NodeId(0));
    cluster.bootstrap_directory(dir, NodeId(0));
    NamespacePlanner planner(part, OpCosts{});

    cluster.crash_node(NodeId(1));  // worker down from the start
    TxnOutcome outcome = TxnOutcome::kPending;
    cluster.submit(planner.plan_create(dir, "x", ids.next(), false),
                   [&](TxnId, TxnOutcome o) { outcome = o; });
    sim.schedule_after(Duration::seconds(1),
                       [&] { cluster.reboot_node(NodeId(1)); });
    sim.run_until(SimTime::zero() + Duration::seconds(30));
    ASSERT_TRUE(sim.idle()) << protocol_name(proto);
    EXPECT_EQ(outcome, TxnOutcome::kAborted) << protocol_name(proto);
    EXPECT_TRUE(cluster.check_invariants({dir}).empty());
  }
}

}  // namespace
}  // namespace opc
