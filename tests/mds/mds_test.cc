// Metadata substrate: store lifecycle (cache/mem/stable), validation,
// replay idempotence, planners, partitioners, invariant checker.
#include <gtest/gtest.h>

#include "mds/invariants.h"
#include "mds/namespace.h"
#include "mds/partition.h"
#include "mds/store.h"

namespace opc {
namespace {

Operation op(OpType t, std::uint64_t target, std::string name = "",
             std::uint64_t child = 0) {
  Operation o;
  o.type = t;
  o.target = ObjectId(target);
  o.child = ObjectId(child);
  o.name = std::move(name);
  return o;
}

struct StoreFixture {
  MetaStore store{NodeId(0)};
  StoreFixture() {
    store.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});  // root dir
  }
};

TEST(StoreTest, PendingIsInvisibleUntilCommitMem) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(10, op(OpType::kAddDentry, 1, "a", 5)),
            StoreStatus::kOk);
  EXPECT_FALSE(f.store.mem_lookup(ObjectId(1), "a").has_value());
  EXPECT_TRUE(f.store.effective_lookup(10, ObjectId(1), "a").has_value());
  // Another transaction does not see it either.
  EXPECT_FALSE(f.store.effective_lookup(11, ObjectId(1), "a").has_value());
  f.store.commit_mem(10);
  EXPECT_EQ(f.store.mem_lookup(ObjectId(1), "a"), ObjectId(5));
  EXPECT_FALSE(f.store.stable_lookup(ObjectId(1), "a").has_value())
      << "mem runs ahead of stable";
  f.store.commit_stable(10);
  EXPECT_EQ(f.store.stable_lookup(ObjectId(1), "a"), ObjectId(5));
}

TEST(StoreTest, CrashDropsMemAheadOfStable) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(10, op(OpType::kAddDentry, 1, "a", 5)),
            StoreStatus::kOk);
  f.store.commit_mem(10);
  f.store.crash();
  EXPECT_FALSE(f.store.mem_lookup(ObjectId(1), "a").has_value())
      << "unflushed commit lost with the cache";
  EXPECT_EQ(f.store.unflushed_txns(), 0u);
}

TEST(StoreTest, AbortDropsPending) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(10, op(OpType::kAddDentry, 1, "a", 5)),
            StoreStatus::kOk);
  f.store.abort_txn(10);
  EXPECT_TRUE(f.store.pending_ops(10).empty());
  ASSERT_EQ(f.store.apply(11, op(OpType::kAddDentry, 1, "a", 6)),
            StoreStatus::kOk)
      << "name free again after abort";
}

TEST(StoreTest, ValidationErrors) {
  StoreFixture f;
  EXPECT_EQ(f.store.apply(1, op(OpType::kAddDentry, 99, "x", 5)),
            StoreStatus::kInodeNotFound);
  f.store.bootstrap_inode(Inode{ObjectId(2), false, 1, 0});
  EXPECT_EQ(f.store.apply(1, op(OpType::kAddDentry, 2, "x", 5)),
            StoreStatus::kNotADirectory);
  EXPECT_EQ(f.store.apply(1, op(OpType::kRemoveDentry, 1, "nope")),
            StoreStatus::kDentryNotFound);
  EXPECT_EQ(f.store.apply(1, op(OpType::kCreateInode, 2)),
            StoreStatus::kInodeExists);
  EXPECT_EQ(f.store.apply(1, op(OpType::kDecLink, 42)),
            StoreStatus::kInodeNotFound);
  // A directory that still holds an entry may not lose its last link.
  f.store.bootstrap_inode(Inode{ObjectId(3), true, 1, 0});
  f.store.bootstrap_dentry(ObjectId(3), "child", ObjectId(4));
  EXPECT_EQ(f.store.apply(1, op(OpType::kDecLink, 3)),
            StoreStatus::kDirNotEmpty);
}

TEST(StoreTest, ChildMismatchGuard) {
  StoreFixture f;
  f.store.bootstrap_inode(Inode{ObjectId(5), false, 1, 0});
  f.store.bootstrap_dentry(ObjectId(1), "a", ObjectId(5));
  Operation rm = op(OpType::kRemoveDentry, 1, "a", 6);  // wrong child
  EXPECT_EQ(f.store.apply(1, rm), StoreStatus::kChildMismatch);
  rm.child = ObjectId(5);
  EXPECT_EQ(f.store.apply(1, rm), StoreStatus::kOk);
}

TEST(StoreTest, DecLinkToZeroRemovesInode) {
  StoreFixture f;
  f.store.bootstrap_inode(Inode{ObjectId(7), false, 1, 0});
  ASSERT_EQ(f.store.apply(1, op(OpType::kDecLink, 7)), StoreStatus::kOk);
  f.store.commit_txn(1);
  EXPECT_FALSE(f.store.stable_inode(ObjectId(7)).has_value());
}

TEST(StoreTest, EffectiveViewChainsOwnPendingOps) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(1, op(OpType::kCreateInode, 9)), StoreStatus::kOk);
  ASSERT_EQ(f.store.apply(1, op(OpType::kIncLink, 9)), StoreStatus::kOk);
  const auto ino = f.store.effective_inode(1, ObjectId(9));
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(ino->nlink, 1u);
  ASSERT_EQ(f.store.apply(1, op(OpType::kDecLink, 9)), StoreStatus::kOk);
  EXPECT_FALSE(f.store.effective_inode(1, ObjectId(9)).has_value());
}

TEST(StoreTest, ReplayIsIdempotent) {
  StoreFixture f;
  std::vector<Operation> ops{op(OpType::kAddDentry, 1, "r", 5),
                             op(OpType::kCreateInode, 5),
                             op(OpType::kIncLink, 5)};
  EXPECT_TRUE(f.store.replay_committed(42, ops));
  EXPECT_FALSE(f.store.replay_committed(42, ops)) << "second replay skipped";
  const auto ino = f.store.stable_inode(ObjectId(5));
  ASSERT_TRUE(ino.has_value());
  EXPECT_EQ(ino->nlink, 1u) << "links not double-counted";
}

TEST(StoreTest, ReplaySkippedWhenCommittedNormally) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(42, op(OpType::kAddDentry, 1, "n", 5)),
            StoreStatus::kOk);
  f.store.commit_txn(42);
  EXPECT_TRUE(f.store.stable_applied(42));
  EXPECT_FALSE(
      f.store.replay_committed(42, {op(OpType::kAddDentry, 1, "n", 5)}));
}

TEST(StoreTest, DirectoryConventionInCreateInode) {
  StoreFixture f;
  Operation mkdir_op = op(OpType::kCreateInode, 8, "", 8);  // child==target
  ASSERT_EQ(f.store.apply(1, mkdir_op), StoreStatus::kOk);
  f.store.commit_txn(1);
  EXPECT_TRUE(f.store.stable_inode(ObjectId(8))->is_dir);
}

// ---------------------------------------------------------------------------

// --- Undo records: conflicting unflushed 1PC transactions ----------------
//
// The 1PC coordinator makes a transaction visible (commit_mem) before its
// commit force, so later transactions may overwrite the same key while the
// earlier one is still unflushed.  Each undo record keeps the pre-image its
// own transaction overwrote; a crash at any point must land exactly on the
// flushed prefix, with mem and stable agreeing.

/// Runs `chain` as unflushed transactions 10, 11, ... on a fresh store: for
/// every prefix, optionally flushes the oldest, checks the stable view
/// mid-flight, crashes, and checks that mem == stable == `after[flushed]`.
/// `after[i]` is the observed state once the first i transactions applied;
/// `view` reads it from the store (mem or stable).
template <class State, class View>
void crash_through_chain(const std::vector<std::vector<Operation>>& chain,
                         const std::vector<State>& after, View view) {
  for (std::size_t steps = 1; steps <= chain.size(); ++steps) {
    for (std::size_t flushed = 0; flushed <= 1; ++flushed) {
      SCOPED_TRACE("steps " + std::to_string(steps) + ", flushed " +
                   std::to_string(flushed));
      StoreFixture f;
      f.store.bootstrap_inode(Inode{ObjectId(7), false, 0, 0});
      for (std::size_t i = 0; i < steps; ++i) {
        for (const Operation& o : chain[i]) {
          ASSERT_EQ(f.store.apply(10 + i, o), StoreStatus::kOk);
        }
        f.store.commit_mem(10 + i);
      }
      if (flushed == 1) f.store.commit_stable(10);
      EXPECT_EQ(view(f.store, /*stable=*/false), after[steps]);
      EXPECT_EQ(view(f.store, /*stable=*/true), after[flushed]);
      EXPECT_EQ(f.store.unflushed_txns(), steps - flushed);
      f.store.crash();
      EXPECT_EQ(f.store.unflushed_txns(), 0u);
      EXPECT_EQ(view(f.store, /*stable=*/false), after[flushed]);
      EXPECT_EQ(view(f.store, /*stable=*/true), after[flushed]);
    }
  }
}

TEST(StoreTest, CrashUndoesConflictingChainOnOneName) {
  // A adds x, B removes it, C re-adds it with another child.
  const std::vector<std::vector<Operation>> chain{
      {op(OpType::kAddDentry, 1, "x", 5)},
      {op(OpType::kRemoveDentry, 1, "x", 5)},
      {op(OpType::kAddDentry, 1, "x", 6)}};
  const std::vector<std::optional<ObjectId>> after{
      std::nullopt, ObjectId(5), std::nullopt, ObjectId(6)};
  crash_through_chain(chain, after, [](const MetaStore& s, bool stable) {
    const auto child = stable ? s.stable_lookup(ObjectId(1), "x")
                              : s.mem_lookup(ObjectId(1), "x");
    if (stable) {
      // The dump agrees with the point read.
      const auto dump = s.stable_dentries();
      EXPECT_EQ(s.stable_dentry_count(), dump.size());
      EXPECT_EQ(dump.size(), child.has_value() ? 1u : 0u);
      if (child.has_value() && dump.size() == 1) {
        EXPECT_EQ(std::get<2>(dump.front()), *child);
      }
    } else {
      EXPECT_EQ(s.mem_list_dir(ObjectId(1)).size(),
                child.has_value() ? 1u : 0u);
    }
    return child;
  });
}

TEST(StoreTest, CrashUndoesConflictingChainOnOneInode) {
  // One transaction links and touches inode 7, the next drops its last
  // link (removing it).
  const std::vector<std::vector<Operation>> chain{
      {op(OpType::kIncLink, 7), op(OpType::kSetAttr, 7)},
      {op(OpType::kDecLink, 7)}};
  const std::vector<std::optional<Inode>> after{
      Inode{ObjectId(7), false, 0, 0}, Inode{ObjectId(7), false, 1, 1},
      std::nullopt};
  crash_through_chain(chain, after, [](const MetaStore& s, bool stable) {
    const auto ino =
        stable ? s.stable_inode(ObjectId(7)) : s.mem_inode(ObjectId(7));
    if (stable) {
      // The dump agrees with the point read: root plus inode 7, if any.
      const std::vector<Inode> dump = s.stable_inodes();
      EXPECT_EQ(s.stable_inode_count(), dump.size());
      EXPECT_EQ(dump.size(), ino.has_value() ? 2u : 1u);
      if (ino.has_value() && dump.size() == 2) {
        EXPECT_EQ(dump.back(), *ino);
      }
    }
    return ino;
  });
}

TEST(StoreTest, CommitTxnAlongsideUnrelatedUnflushedRecord) {
  StoreFixture f;
  ASSERT_EQ(f.store.apply(10, op(OpType::kAddDentry, 1, "x", 5)),
            StoreStatus::kOk);
  f.store.commit_mem(10);  // 1PC: visible, force still pending
  ASSERT_EQ(f.store.apply(11, op(OpType::kCreateInode, 9)), StoreStatus::kOk);
  ASSERT_EQ(f.store.apply(11, op(OpType::kAddDentry, 1, "y", 9)),
            StoreStatus::kOk);
  f.store.commit_txn(11);  // durable already: stable at once
  EXPECT_EQ(f.store.mem_lookup(ObjectId(1), "x"), ObjectId(5));
  EXPECT_EQ(f.store.mem_lookup(ObjectId(1), "y"), ObjectId(9));
  EXPECT_FALSE(f.store.stable_lookup(ObjectId(1), "x").has_value());
  EXPECT_EQ(f.store.stable_lookup(ObjectId(1), "y"), ObjectId(9));
  EXPECT_TRUE(f.store.stable_inode(ObjectId(9)).has_value());
  EXPECT_EQ(f.store.stable_dentry_count(), 1u);
  EXPECT_EQ(f.store.stable_inode_count(), 2u);
  EXPECT_TRUE(f.store.stable_applied(11));
  EXPECT_FALSE(f.store.stable_applied(10));
  f.store.crash();
  EXPECT_FALSE(f.store.mem_lookup(ObjectId(1), "x").has_value());
  EXPECT_EQ(f.store.mem_lookup(ObjectId(1), "y"), ObjectId(9));
  EXPECT_EQ(f.store.mem_inode(ObjectId(9)), f.store.stable_inode(ObjectId(9)));
  EXPECT_EQ(f.store.stable_dentries().size(), 1u);
}

TEST(StoreTest, StableOutOfCommitOrderOnOneKeyFailsLoudly) {
  // B overwrites A's key while A is unflushed; B becoming stable first
  // would leave an undo record that no longer describes the table.
  StoreFixture f;
  ASSERT_EQ(f.store.apply(10, op(OpType::kAddDentry, 1, "x", 5)),
            StoreStatus::kOk);
  f.store.commit_mem(10);
  ASSERT_EQ(f.store.apply(11, op(OpType::kRemoveDentry, 1, "x", 5)),
            StoreStatus::kOk);
  f.store.commit_mem(11);
  EXPECT_DEATH(f.store.commit_stable(11), "older unflushed write");
  // Unrelated keys may become stable in any order.
  ASSERT_EQ(f.store.apply(12, op(OpType::kAddDentry, 1, "z", 6)),
            StoreStatus::kOk);
  f.store.commit_mem(12);
  f.store.commit_stable(12);
  EXPECT_EQ(f.store.stable_lookup(ObjectId(1), "z"), ObjectId(6));
  EXPECT_FALSE(f.store.stable_lookup(ObjectId(1), "x").has_value());
}

TEST(PlannerTest, CreateSplitsAcrossTwoNodes) {
  PinnedPartitioner part(2, NodeId(1));
  part.assign(ObjectId(1), NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  const Transaction txn =
      planner.plan_create(ObjectId(1), "f", ObjectId(2), false);
  ASSERT_EQ(txn.n_participants(), 2u);
  EXPECT_EQ(txn.coordinator(), NodeId(0));
  EXPECT_EQ(txn.sole_worker(), NodeId(1));
  ASSERT_EQ(txn.participants[0].ops.size(), 1u);
  EXPECT_EQ(txn.participants[0].ops[0].type, OpType::kAddDentry);
  ASSERT_EQ(txn.participants[1].ops.size(), 2u);
  EXPECT_EQ(txn.participants[1].ops[0].type, OpType::kCreateInode);
  EXPECT_EQ(txn.participants[1].ops[1].type, OpType::kIncLink);
}

TEST(PlannerTest, ColocatedCreateIsLocal) {
  PinnedPartitioner part(2, NodeId(0));
  part.assign(ObjectId(1), NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  const Transaction txn =
      planner.plan_create(ObjectId(1), "f", ObjectId(2), false);
  EXPECT_TRUE(txn.is_local());
  EXPECT_EQ(txn.participants[0].ops.size(), 3u);
}

TEST(PlannerTest, RenameWithOverwriteSpansFourNodes) {
  PinnedPartitioner part(4, NodeId(0));
  part.assign(ObjectId(1), NodeId(0));  // src dir
  part.assign(ObjectId(2), NodeId(1));  // dst dir
  part.assign(ObjectId(3), NodeId(2));  // moved inode
  part.assign(ObjectId(4), NodeId(3));  // clobbered inode
  NamespacePlanner planner(part, OpCosts{});
  const Transaction txn = planner.plan_rename(
      ObjectId(1), "a", ObjectId(2), "b", ObjectId(3), ObjectId(4));
  EXPECT_EQ(txn.n_participants(), 4u);
  EXPECT_EQ(txn.coordinator(), NodeId(0));
  EXPECT_EQ(txn.kind, NamespaceOpKind::kRename);
}

TEST(PlannerTest, BatchCreateSharesOneTransaction) {
  PinnedPartitioner part(2, NodeId(1));
  part.assign(ObjectId(1), NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  const Transaction txn = planner.plan_create_batch(
      ObjectId(1),
      {{"a", ObjectId(2)}, {"b", ObjectId(3)}, {"c", ObjectId(4)}});
  ASSERT_EQ(txn.n_participants(), 2u);
  EXPECT_EQ(txn.participants[0].ops.size(), 3u);  // 3 dentries
  EXPECT_EQ(txn.participants[1].ops.size(), 6u);  // 3 x (create + inclink)
}

TEST(PlannerTest, SpreadCreateSpansNParticipants) {
  PinnedPartitioner part(4, NodeId(1));
  part.assign(ObjectId(1), NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  const Transaction txn = planner.plan_create_batch(
      ObjectId(1),
      {{"a", ObjectId(2)}, {"b", ObjectId(3)}, {"c", ObjectId(4)}},
      {NodeId(1), NodeId(2), NodeId(3)});
  ASSERT_EQ(txn.n_participants(), 4u);
  EXPECT_EQ(txn.coordinator(), NodeId(0));
  EXPECT_EQ(txn.sole_worker(), kNoNode);
  // Coordinator holds the three dentries; each worker creates one inode.
  EXPECT_EQ(txn.participants[0].ops.size(), 3u);
  for (std::size_t w = 1; w < 4; ++w) {
    ASSERT_EQ(txn.participant(w).ops.size(), 2u);
    EXPECT_EQ(txn.participant(w).ops[0].type, OpType::kCreateInode);
    EXPECT_EQ(txn.participant(w).ops[1].type, OpType::kIncLink);
  }
  EXPECT_EQ(txn.participant(2).node, NodeId(2));
  EXPECT_EQ(txn.participant(2).ops[0].target, ObjectId(3));
}

TEST(PlannerTest, SpreadCreateWithSingleOffHomeEntryMatchesPlanCreate) {
  PinnedPartitioner part(2, NodeId(1));
  part.assign(ObjectId(1), NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  const Transaction classic =
      planner.plan_create(ObjectId(1), "f", ObjectId(2), false);
  const Transaction spread = planner.plan_create_batch(
      ObjectId(1), {{"f", ObjectId(2)}}, {NodeId(1)});
  ASSERT_EQ(spread.n_participants(), classic.n_participants());
  for (std::size_t i = 0; i < classic.participants.size(); ++i) {
    EXPECT_EQ(spread.participants[i].node, classic.participants[i].node);
    EXPECT_EQ(spread.participants[i].ops, classic.participants[i].ops);
  }
}

TEST(PartitionerTest, HashIsDeterministicAndBalanced) {
  HashPartitioner p(4);
  std::vector<int> counts(4, 0);
  for (std::uint64_t i = 1; i <= 4000; ++i) {
    const NodeId a = p.home_of(ObjectId(i));
    EXPECT_EQ(a, p.home_of(ObjectId(i)));
    ++counts[a.value()];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

// ---------------------------------------------------------------------------

TEST(InvariantsTest, CleanTreePasses) {
  MetaStore a(NodeId(0)), b(NodeId(1));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  a.bootstrap_dentry(ObjectId(1), "f", ObjectId(2));
  b.bootstrap_inode(Inode{ObjectId(2), false, 1, 0});
  EXPECT_TRUE(check_invariants({&a, &b}, {ObjectId(1)}).empty());
}

TEST(InvariantsTest, DetectsDanglingDentry) {
  MetaStore a(NodeId(0));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  a.bootstrap_dentry(ObjectId(1), "ghost", ObjectId(99));
  const auto v = check_invariants({&a}, {ObjectId(1)});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantViolation::Kind::kDanglingDentry);
}

TEST(InvariantsTest, DetectsOrphanedInode) {
  MetaStore a(NodeId(0)), b(NodeId(1));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  b.bootstrap_inode(Inode{ObjectId(2), false, 1, 0});  // nobody references it
  const auto v = check_invariants({&a, &b}, {ObjectId(1)});
  ASSERT_GE(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantViolation::Kind::kOrphanedInode);
}

TEST(InvariantsTest, DetectsLinkCountMismatch) {
  MetaStore a(NodeId(0));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  a.bootstrap_inode(Inode{ObjectId(2), false, 2, 0});  // claims 2 links
  a.bootstrap_dentry(ObjectId(1), "one", ObjectId(2));
  const auto v = check_invariants({&a}, {ObjectId(1)});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantViolation::Kind::kLinkCountMismatch);
}

TEST(InvariantsTest, DetectsDuplicateInode) {
  MetaStore a(NodeId(0)), b(NodeId(1));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  a.bootstrap_inode(Inode{ObjectId(5), false, 1, 0});
  b.bootstrap_inode(Inode{ObjectId(5), false, 1, 0});
  a.bootstrap_dentry(ObjectId(1), "x", ObjectId(5));
  const auto v = check_invariants({&a, &b}, {ObjectId(1)});
  ASSERT_GE(v.size(), 1u);
  EXPECT_EQ(v[0].kind, InvariantViolation::Kind::kDuplicateInode);
}

TEST(InvariantsTest, RootsAreExemptFromReferenceRules) {
  MetaStore a(NodeId(0));
  a.bootstrap_inode(Inode{ObjectId(1), true, 1, 0});
  EXPECT_TRUE(check_invariants({&a}, {ObjectId(1)}).empty());
  // Without the exemption the unrooted directory trips both rules: orphaned
  // (no referencing dentry) and link-count mismatch (nlink=1 vs 0 refs).
  EXPECT_EQ(check_invariants({&a}, {}).size(), 2u);
}

}  // namespace
}  // namespace opc
