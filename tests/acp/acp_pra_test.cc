// Presumed Abort (extension protocol) specifics: aborts are free of log
// records and acknowledgements; absence of information means abort; the
// commit path costs exactly what PrN costs.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "cluster/cluster.h"
#include "core/timeline.h"
#include "mds/namespace.h"

namespace opc {
namespace {

struct PraFixture {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{false};
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  std::unique_ptr<PinnedPartitioner> part;
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId dir;

  PraFixture() {
    ClusterConfig cc;
    cc.n_nodes = 2;
    cc.protocol = ProtocolKind::kPrA;
    cc.acp.response_timeout = Duration::millis(300);
    cc.acp.retry_interval = Duration::millis(100);
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    dir = ids.next();
    part = std::make_unique<PinnedPartitioner>(2, NodeId(1));
    part->assign(dir, NodeId(0));
    cluster->bootstrap_directory(dir, NodeId(0));
    planner = std::make_unique<NamespacePlanner>(*part, OpCosts{});
  }
};

TEST(PresumedAbort, CommitCostsMatchPrN) {
  const TimelineResult pra = run_single_create(ProtocolKind::kPrA);
  const TimelineResult prn = run_single_create(ProtocolKind::kPrN);
  EXPECT_EQ(pra.sync_writes, prn.sync_writes);
  EXPECT_EQ(pra.async_writes, prn.async_writes);
  EXPECT_EQ(pra.extra_msgs, prn.extra_msgs);
  EXPECT_EQ(pra.client_latency, prn.client_latency);
}

TEST(PresumedAbort, AbortWritesNoRecordsAndNeedsNoAcks) {
  PraFixture f;
  // Force a worker veto: the inode id already exists there.
  f.cluster->store(NodeId(1)).bootstrap_inode(Inode{ObjectId(99), false, 1, 0});
  f.cluster->store(NodeId(0)).bootstrap_dentry(f.dir, "seed", ObjectId(99));
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "x", ObjectId(99), false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();
  ASSERT_TRUE(f.sim.idle());

  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  // No ABORTED records anywhere and no ACK traffic: the decisive PrA saving.
  EXPECT_EQ(f.stats.get("wal.lazy.count"), 0)
      << "PrA must not write abort records";
  EXPECT_EQ(f.stats.get("acp.msg.total"), 2)
      << "UPDATE_REQ + NOT_UPDATED and nothing else";
  // Both logs are empty again (coordinator truncated STARTED on abort).
  EXPECT_TRUE(
      f.cluster->storage().partition(NodeId(0)).records().empty());
  EXPECT_TRUE(
      f.cluster->storage().partition(NodeId(1)).records().empty());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(PresumedAbort, AbsenceOfInformationMeansAbort) {
  PraFixture f;
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "y", f.ids.next(), false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  // Crash the coordinator after sending PREPARE (20.3 ms) but before its
  // own prepare is durable (40.3 ms): the log holds only STARTED while the
  // worker prepares into the void.  Recovery presumes abort with no abort
  // record ever written.
  f.cluster->schedule_crash(NodeId(0), Duration::millis(30),
                            /*reboot_after=*/Duration::millis(400));
  f.sim.run_until(SimTime::zero() + Duration::seconds(30));
  ASSERT_TRUE(f.sim.idle());

  // The coordinator rebooted with STARTED in its log -> presumed abort,
  // truncated.  The worker's DECISION_REQ got "aborted" either from the
  // rebuilt state or from pure absence.
  EXPECT_FALSE(
      f.cluster->store(NodeId(0)).stable_lookup(f.dir, "y").has_value());
  EXPECT_EQ(f.cluster->store(NodeId(1)).stable_inode_count(), 0u);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  EXPECT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 0u)
      << "the prepared worker resolved via presumption";
}

TEST(PresumedAbort, MultiWorkerAbortIsCheaperThanPrN) {
  // A three-participant RENAME where one worker vetoes: the innocent
  // bystander worker still needs the ABORT, but under PrA it sends no ACK
  // and the coordinator logs nothing — strictly fewer messages than PrN.
  auto run_abort = [](ProtocolKind proto) {
    Simulator sim;
    StatsRegistry stats;
    TraceRecorder trace(false);
    ClusterConfig cc;
    cc.n_nodes = 3;
    cc.protocol = proto;
    Cluster cluster(sim, cc, stats, trace);
    IdAllocator ids;
    PinnedPartitioner part(3, NodeId(2));
    const ObjectId src_dir = ids.next();   // mds0 (coordinator)
    const ObjectId dst_dir = ids.next();   // mds1 (will veto)
    const ObjectId moved = ids.next();     // mds2 (innocent SetAttr)
    part.assign(src_dir, NodeId(0));
    part.assign(dst_dir, NodeId(1));
    part.assign(moved, NodeId(2));
    cluster.bootstrap_directory(src_dir, NodeId(0));
    cluster.bootstrap_directory(dst_dir, NodeId(1));
    cluster.store(NodeId(0)).bootstrap_dentry(src_dir, "a", moved);
    cluster.store(NodeId(2)).bootstrap_inode(Inode{moved, false, 1, 0});
    // The destination name already exists -> AddDentry vetoes at mds1.
    const ObjectId squatter = ids.next();
    part.assign(squatter, NodeId(2));
    cluster.store(NodeId(1)).bootstrap_dentry(dst_dir, "b", squatter);
    cluster.store(NodeId(2)).bootstrap_inode(Inode{squatter, false, 1, 0});

    NamespacePlanner planner(part, OpCosts{});
    TxnOutcome outcome = TxnOutcome::kPending;
    cluster.submit(
        planner.plan_rename(src_dir, "a", dst_dir, "b", moved, std::nullopt),
        [&](TxnId, TxnOutcome o) { outcome = o; });
    sim.run();
    EXPECT_EQ(outcome, TxnOutcome::kAborted) << protocol_name(proto);
    EXPECT_TRUE(
        cluster.check_invariants({src_dir, dst_dir}).empty());
    return stats.get("acp.msg.total");
  };
  const std::int64_t pra_msgs = run_abort(ProtocolKind::kPrA);
  const std::int64_t prn_msgs = run_abort(ProtocolKind::kPrN);
  EXPECT_LT(pra_msgs, prn_msgs)
      << "PrA abort must save the ACK round (PrA=" << pra_msgs
      << " PrN=" << prn_msgs << ")";
}

// A presumed-abort worker told ABORT drops its state with no log record
// and no ACK, and must still park its pooled WorkTxn for reuse.  Twenty
// sequential aborts keep one participation in flight at a time, so the
// worker's pool may never hold more than one object.
void expect_aborts_recycle_work(Simulator& sim, Cluster& cluster,
                                NodeId worker,
                                const std::function<Transaction(int)>& plan) {
  for (int i = 0; i < 20; ++i) {
    TxnOutcome outcome = TxnOutcome::kPending;
    cluster.submit(plan(i), [&](TxnId, TxnOutcome o) { outcome = o; });
    sim.run();
    ASSERT_EQ(outcome, TxnOutcome::kAborted) << "round " << i;
  }
  const AcpEngine& e = cluster.engine(worker);
  EXPECT_EQ(e.active_participations(), 0u);
  EXPECT_EQ(e.work_pool_created(), 1u);
  EXPECT_EQ(e.work_pool_parked(), 1u);
}

TEST(PresumedAbort, RepeatedAbortsRecycleWorkerState) {
  PraFixture f;
  // A 100x slower worker disk stretches its PREPARE force past the
  // coordinator's response timeout, so the prepared worker gets the ABORT.
  f.cluster->storage().partition(NodeId(1)).device().set_degrade_factor(
      100.0);
  expect_aborts_recycle_work(f.sim, *f.cluster, NodeId(1), [&](int i) {
    return f.planner->plan_create(f.dir, "t" + std::to_string(i),
                                  f.ids.next(), false);
  });
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

// 1PC wider than two participants degrades to presumed abort: here node 2
// vetoes every three-participant create (its inode already exists) and the
// bystander node 1 receives the silent ABORT.
TEST(PresumedAbort, DegradedOnePcAbortsRecycleWorkerState) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cc;
  cc.n_nodes = 3;
  cc.protocol = ProtocolKind::kOnePC;
  Cluster cluster(sim, cc, stats, trace);
  IdAllocator ids;
  PinnedPartitioner part(3, NodeId(1));
  const ObjectId dir = ids.next();
  part.assign(dir, NodeId(0));
  cluster.bootstrap_directory(dir, NodeId(0));
  const ObjectId squatter = ids.next();
  cluster.store(NodeId(2)).bootstrap_inode(Inode{squatter, false, 1, 0});
  cluster.store(NodeId(0)).bootstrap_dentry(dir, "seed", squatter);
  NamespacePlanner planner(part, OpCosts{});
  expect_aborts_recycle_work(sim, cluster, NodeId(1), [&](int i) {
    const std::string n = std::to_string(i);
    return planner.plan_create_batch(
        dir, {{"a" + n, ids.next()}, {"b" + n, squatter}},
        {NodeId(1), NodeId(2)});
  });
  EXPECT_EQ(stats.get("acp.onepc.degraded"), 20);
  EXPECT_TRUE(cluster.check_invariants({dir}).empty());
}

}  // namespace
}  // namespace opc
