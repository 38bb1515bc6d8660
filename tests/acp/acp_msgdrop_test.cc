// Message-drop matrix: for every protocol and every protocol message type,
// deterministically lose the FIRST occurrence of that message (and, in a
// second sweep, the first two) during a distributed CREATE.  With timeouts
// enabled the system must always converge to an atomic outcome, and a
// client that heard "committed" must find its file.
//
// This complements the probabilistic LossTest: instead of hoping the RNG
// hits an interesting message, every single message type gets its turn.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "mds/namespace.h"

namespace opc {
namespace {

const char* kDroppableKinds[] = {
    "UPDATE_REQ", "UPDATED", "PREPARE", "PREPARED", "COMMIT",
    "ABORT",      "ACK",     "DECISION_REQ", "DECISION", "ACK_REQ",
};

class MsgDropTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(MsgDropTest, EveryLostMessageStillConvergesAtomically) {
  for (const char* kind : kDroppableKinds) {
    for (int drops : {1, 2}) {
      Simulator sim;
      StatsRegistry stats;
      TraceRecorder trace(false);
      ClusterConfig cc;
      cc.n_nodes = 2;
      cc.protocol = GetParam();
      cc.acp.response_timeout = Duration::millis(300);
      cc.acp.retry_interval = Duration::millis(100);
      Cluster cluster(sim, cc, stats, trace);

      int remaining = drops;
      cluster.network().set_drop_filter([&](const Envelope& env) {
        if (remaining > 0 && env.kind == kind) {
          --remaining;
          return true;
        }
        return false;
      });

      IdAllocator ids;
      const ObjectId dir = ids.next();
      PinnedPartitioner part(2, NodeId(1));
      part.assign(dir, NodeId(0));
      cluster.bootstrap_directory(dir, NodeId(0));
      NamespacePlanner planner(part, OpCosts{});
      const ObjectId inode = ids.next();

      TxnOutcome outcome = TxnOutcome::kPending;
      cluster.submit(planner.plan_create(dir, "m", inode, false),
                     [&](TxnId, TxnOutcome o) { outcome = o; });
      sim.run_until(SimTime::zero() + Duration::seconds(60));
      ASSERT_TRUE(sim.idle())
          << protocol_name(GetParam()) << " never quiesced after losing "
          << drops << "x " << kind;

      const bool dentry =
          cluster.store(NodeId(0)).stable_lookup(dir, "m").has_value();
      const bool ino =
          cluster.store(NodeId(1)).stable_inode(inode).has_value();
      EXPECT_EQ(dentry, ino)
          << protocol_name(GetParam()) << " torn after losing " << drops
          << "x " << kind;
      EXPECT_TRUE(cluster.check_invariants({dir}).empty())
          << protocol_name(GetParam()) << " losing " << kind;
      EXPECT_NE(outcome, TxnOutcome::kPending)
          << protocol_name(GetParam()) << " client never answered after "
          << drops << "x " << kind
          << " (acceptable only for coordinator-side losses)";
      if (outcome == TxnOutcome::kCommitted) {
        EXPECT_TRUE(dentry && ino)
            << protocol_name(GetParam()) << " losing " << kind;
      }
      if (outcome == TxnOutcome::kAborted) {
        EXPECT_FALSE(dentry || ino)
            << protocol_name(GetParam()) << " losing " << kind;
      }
      // Both engines fully clean.
      EXPECT_EQ(cluster.engine(NodeId(0)).active_coordinations(), 0u);
      EXPECT_EQ(cluster.engine(NodeId(1)).active_participations(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, MsgDropTest,
                         ::testing::ValuesIn(kAllProtocolsExt),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

}  // namespace
}  // namespace opc
