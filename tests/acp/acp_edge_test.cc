// Protocol edge cases: read-only fast path, shared-lock concurrency,
// duplicate and stale messages, PrC's presumption, recovery ordering of
// queued submissions.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "mds/namespace.h"

namespace opc {
namespace {

struct EdgeFixture {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{false};
  ClusterConfig cc;
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  std::unique_ptr<PinnedPartitioner> part;
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId dir;

  explicit EdgeFixture(ProtocolKind proto = ProtocolKind::kOnePC,
                       std::uint32_t nodes = 2, bool traced = false)
      : trace(traced) {
    cc.n_nodes = nodes;
    cc.protocol = proto;
    cc.acp.response_timeout = Duration::millis(300);
    cc.acp.retry_interval = Duration::millis(100);
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    dir = ids.next();
    part = std::make_unique<PinnedPartitioner>(nodes, NodeId(1));
    part->assign(dir, NodeId(0));
    cluster->bootstrap_directory(dir, NodeId(0));
    planner = std::make_unique<NamespacePlanner>(*part, OpCosts{});
  }
};

TEST(ReadFastPath, StatWritesNothingToTheLog) {
  EdgeFixture f;
  const ObjectId inode = f.ids.next();
  f.cluster->submit(f.planner->plan_create(f.dir, "s", inode, false),
                    [](TxnId, TxnOutcome) {});
  f.sim.run();
  const auto forces_before = f.stats.get("wal.force.count");

  TxnOutcome outcome = TxnOutcome::kPending;
  SimTime replied;
  f.cluster->submit(f.planner->plan_stat(inode), [&](TxnId, TxnOutcome o) {
    outcome = o;
    replied = f.sim.now();
  });
  const SimTime started = f.sim.now();
  f.sim.run();

  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(f.stats.get("wal.force.count"), forces_before)
      << "a stat must not touch the log";
  EXPECT_EQ(f.stats.get("acp.local.read_only"), 1);
  // Just the 1 us method compute, no disk, no network.
  EXPECT_LT(replied - started, Duration::micros(10));
}

TEST(ReadFastPath, ConcurrentStatsShareTheLock) {
  EdgeFixture f;
  const ObjectId inode = f.ids.next();
  f.cluster->submit(f.planner->plan_create(f.dir, "s", inode, false),
                    [](TxnId, TxnOutcome) {});
  f.sim.run();

  int done = 0;
  for (int i = 0; i < 10; ++i) {
    f.cluster->submit(f.planner->plan_stat(inode), [&](TxnId, TxnOutcome o) {
      if (o == TxnOutcome::kCommitted) ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(f.stats.get("lock.grants.queued"), 0)
      << "shared locks must not queue behind each other";
}

TEST(ReadFastPath, StatOfMissingInodeAborts) {
  EdgeFixture f;
  // The inode is on the worker node per the pinned partitioner, so route a
  // stat at an id that does not exist anywhere.
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_stat(ObjectId(424242)),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();
  EXPECT_EQ(outcome, TxnOutcome::kAborted);
}

TEST(PresumedCommit, WorkerLearnsCommitFromFinalizedLog) {
  // PrC's defining behaviour: the coordinator finalizes (truncates) its log
  // right after deciding commit; a worker that later asks and finds nothing
  // must presume COMMIT.  Force that path by dropping the COMMIT message.
  EdgeFixture f(ProtocolKind::kPrC);
  const ObjectId inode = f.ids.next();
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "p", inode, false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  // The COMMIT leaves the coordinator at ~60.5 ms.  Sever just before, heal
  // after: only that one message is lost.
  f.sim.schedule_after(Duration::millis(60), [&] {
    f.cluster->partition_pair(NodeId(0), NodeId(1));
  });
  f.sim.schedule_after(Duration::millis(80), [&] {
    f.cluster->heal_pair(NodeId(0), NodeId(1));
  });
  // Additionally crash+reboot the coordinator so even its in-memory
  // outcome map is gone — the worker's answer can only come from the
  // presumption.
  f.cluster->schedule_crash(NodeId(0), Duration::millis(100),
                            Duration::millis(200));
  f.sim.run_until(SimTime::zero() + Duration::seconds(30));
  ASSERT_TRUE(f.sim.idle());

  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  EXPECT_GT(f.stats.get("acp.decision.presumed"), 0)
      << "the worker resolved via the presumption, not via state";
  EXPECT_TRUE(f.cluster->store(NodeId(1)).stable_inode(inode).has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(RecoveryOrdering, QueuedSubmissionsDrainInOrderAfterRecovery) {
  EdgeFixture f;
  // Prime one transaction, crash mid-flight so recovery has work.
  f.cluster->submit(f.planner->plan_create(f.dir, "pre", f.ids.next(), false),
                    [](TxnId, TxnOutcome) {});
  f.cluster->schedule_crash(NodeId(0), Duration::millis(25));
  f.sim.run_until(SimTime::zero() + Duration::millis(100));

  // Reboot; while the engine is recovering, submit three more.
  f.cluster->reboot_node(NodeId(0));
  std::vector<std::string> commit_order;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "q" + std::to_string(i);
    f.cluster->submit(
        f.planner->plan_create(f.dir, name, f.ids.next(), false),
        [&, name](TxnId, TxnOutcome o) {
          if (o == TxnOutcome::kCommitted) commit_order.push_back(name);
        });
  }
  EXPECT_GT(f.stats.get("acp.submit.queued_behind_recovery"), 0)
      << "submissions were actually gated by recovery";
  f.sim.run_until(SimTime::zero() + Duration::seconds(30));

  ASSERT_EQ(commit_order.size(), 3u);
  EXPECT_EQ(commit_order, (std::vector<std::string>{"q0", "q1", "q2"}));
  // The re-driven "pre" create also landed (1PC redo).
  EXPECT_TRUE(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "pre")
                  .has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(DuplicateMessages, RedrivenUpdateReqIsIdempotentAtTheWorker) {
  EdgeFixture f;
  const ObjectId inode = f.ids.next();
  f.cluster->submit(f.planner->plan_create(f.dir, "dup", inode, false),
                    [](TxnId, TxnOutcome) {});
  // Crash the coordinator after the worker committed (>= 40.3 ms) but
  // before the coordinator processed UPDATED; the redo re-sends UPDATE_REQ
  // to a worker that already committed the transaction.
  f.cluster->schedule_crash(NodeId(0), Duration::millis(41),
                            Duration::millis(300));
  f.sim.run_until(SimTime::zero() + Duration::seconds(30));
  ASSERT_TRUE(f.sim.idle());

  const auto ino = f.cluster->store(NodeId(1)).stable_inode(inode);
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(ino->nlink, 1u) << "replay must not double-apply IncLink";
  EXPECT_TRUE(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "dup")
                  .has_value());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

// EP folds the vote into UPDATED, but a worker rebuilt from its PREPARED
// record is a plain voter: a duplicate UPDATE_REQ must get PREPARED back,
// not a second UPDATED the coordinator would read as a fresh update.
TEST(DuplicateMessages, RecoveredEpWorkerAnswersUpdateReqWithPrepared) {
  EdgeFixture f(ProtocolKind::kEP, 2, /*traced=*/true);
  const TxnId txn = f.cluster->submit(
      f.planner->plan_create(f.dir, "ep", f.ids.next(), false),
      [](TxnId, TxnOutcome) {});
  // The worker's UPDATED (its vote) leaves at ~40.3 ms; the coordinator's
  // commit force would land ~20 ms later.  Take both down in between and
  // bring only the worker back, so it waits prepared for a decision.
  f.sim.run_until(SimTime::zero() + Duration::millis(41));
  f.cluster->crash_node(NodeId(0));
  f.sim.run_until(SimTime::zero() + Duration::millis(45));
  f.cluster->crash_node(NodeId(1));
  f.cluster->reboot_node(NodeId(1));
  f.sim.run_until(SimTime::zero() + Duration::millis(500));
  ASSERT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 1u);

  const std::size_t mark = f.trace.events().size();
  Msg m;
  m.type = MsgType::kUpdateReq;
  m.txn = txn;
  m.proto = ProtocolKind::kEP;
  m.from = NodeId(0);
  Envelope env;
  env.from = NodeId(0);
  env.to = NodeId(1);
  env.txn = txn;
  env.payload.emplace<Msg>(m);
  f.cluster->engine(NodeId(1)).on_message(std::move(env));

  std::vector<std::string> replies;
  for (std::size_t i = mark; i < f.trace.events().size(); ++i) {
    const TraceEvent& e = f.trace.events()[i];
    if (e.kind == TraceKind::kMessageSend && e.actor == "mds1") {
      replies.push_back(e.detail);
    }
  }
  EXPECT_EQ(replies, std::vector<std::string>{"PREPARED -> mds0"});
}

TEST(StaleMessages, LateAcksAndCommitsForFinishedTxnsAreHarmless) {
  // Drive a commit normally, then replay stale COMMIT/ACK/DECISION_REQ
  // envelopes at both engines; nothing may change or crash.
  EdgeFixture f(ProtocolKind::kPrN);
  const ObjectId inode = f.ids.next();
  TxnId txn = 0;
  f.cluster->submit(f.planner->plan_create(f.dir, "z", inode, false),
                    [&](TxnId id, TxnOutcome) { txn = id; });
  f.sim.run();

  auto stale = [&](MsgType type, NodeId from, NodeId to) {
    Msg m;
    m.type = type;
    m.txn = txn;
    m.proto = ProtocolKind::kPrN;
    m.from = from;
    Envelope env;
    env.from = from;
    env.to = to;
    env.kind = std::string(msg_type_name(type));
    env.txn = txn;
    env.payload.emplace<Msg>(m);
    f.cluster->network().send(std::move(env));
  };
  stale(MsgType::kCommit, NodeId(0), NodeId(1));
  stale(MsgType::kAck, NodeId(1), NodeId(0));
  stale(MsgType::kPrepared, NodeId(1), NodeId(0));
  stale(MsgType::kDecisionReq, NodeId(1), NodeId(0));
  f.sim.run();

  EXPECT_TRUE(f.cluster->store(NodeId(0)).stable_lookup(f.dir, "z")
                  .has_value());
  EXPECT_EQ(f.cluster->store(NodeId(1)).stable_inode(inode)->nlink, 1u);
  EXPECT_EQ(f.cluster->engine(NodeId(0)).active_coordinations(), 0u);
  EXPECT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 0u);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(HybridProtocol, ProtocolChoiceIsPerTransaction) {
  // Under a 1PC cluster, two-party ops run 1PC while a wide rename runs
  // PrN — concurrently, against overlapping objects, without interference.
  EdgeFixture f(ProtocolKind::kOnePC, 4);
  // dirs on 0 and 1; inodes pinned to 1 by default.
  const ObjectId dir2 = f.ids.next();
  f.part->assign(dir2, NodeId(2));
  f.cluster->bootstrap_directory(dir2, NodeId(2));

  const ObjectId a = f.ids.next();
  const ObjectId b = f.ids.next();
  f.part->assign(b, NodeId(3));
  int committed = 0;
  f.cluster->submit(f.planner->plan_create(f.dir, "a", a, false),
                    [&](TxnId, TxnOutcome o) {
                      if (o == TxnOutcome::kCommitted) ++committed;
                    });
  f.sim.run();
  f.cluster->submit(f.planner->plan_create(dir2, "b", b, false),
                    [&](TxnId, TxnOutcome o) {
                      if (o == TxnOutcome::kCommitted) ++committed;
                    });
  f.sim.run();
  // Wide rename (4 nodes) concurrent with a 2-party create in f.dir.
  f.cluster->submit(
      f.planner->plan_rename(f.dir, "a", dir2, "moved", a, std::nullopt),
      [&](TxnId, TxnOutcome o) {
        if (o == TxnOutcome::kCommitted) ++committed;
      });
  f.cluster->submit(f.planner->plan_create(f.dir, "c", f.ids.next(), false),
                    [&](TxnId, TxnOutcome o) {
                      if (o == TxnOutcome::kCommitted) ++committed;
                    });
  f.sim.run();

  EXPECT_EQ(committed, 4);
  EXPECT_EQ(f.cluster->store(NodeId(2)).stable_lookup(dir2, "moved"), a);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir, dir2}).empty());
}

}  // namespace
}  // namespace opc
