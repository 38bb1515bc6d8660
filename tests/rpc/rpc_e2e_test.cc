// Loopback end-to-end (the tentpole's tier-1 gate): serve a 3-node 1PC
// cluster over a Unix domain socket, drive 10k namespace operations
// through the real client, and assert zero lost replies plus a clean
// namespace invariant check.  TSan runs this in CI (`ctest -L rt`).
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "rpc/client.h"
#include "rpc/server.h"
#include "rt/rt_cluster.h"

namespace opc::rpc {
namespace {

TEST(RpcE2E, TenThousandOpsOverUdsZeroLost) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint64_t kOps = 10000;
  constexpr std::uint64_t kWindow = 64;  // outstanding cap per client

  RtClusterConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.protocol = ProtocolKind::kOnePC;
  cfg.net.latency = Duration::zero();
  cfg.disk.bytes_per_second = 2.0 * 1024 * 1024 * 1024;
  cfg.seed = 20260807;
  RtCluster cluster(cfg);
  std::vector<ObjectId> dirs;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    dirs.push_back(ObjectId(i + 1));
    cluster.bootstrap_directory(ObjectId(i + 1), NodeId(i));
  }

  RpcServerConfig scfg;
  scfg.uds_path =
      "/tmp/opc-e2e-" + std::to_string(::getpid()) + ".sock";
  scfg.max_inflight = 4096;  // the window keeps us far below this
  RpcServer server(cluster, scfg);
  ASSERT_TRUE(server.start());

  RpcClient client;
  ASSERT_TRUE(client.connect_uds(scfg.uds_path));

  std::uint64_t sent = 0, ok = 0, failed = 0;
  auto drain_one = [&]() -> bool {
    Reply r;
    if (!client.recv_reply(r, 60.0)) return false;
    if (r.status == Status::kOk) ++ok;
    else ++failed;
    return true;
  };
  while (sent < kOps) {
    if (client.outstanding() >= kWindow) {
      ASSERT_TRUE(drain_one()) << client.error();
    }
    // Round-robin the hot directories; every third create is a mkdir so
    // the mix exercises both inode kinds.
    const std::uint64_t dir = sent % kNodes + 1;
    client.send_create(dir, "e2e_" + std::to_string(sent),
                       /*is_dir=*/sent % 3 == 0);
    ++sent;
    ASSERT_TRUE(client.flush(60.0)) << client.error();
  }
  // Drain on the consumed count, not client.outstanding(): replies can sit
  // decoded-but-unread in the client's ready queue after a flush.
  while (ok + failed < kOps) {
    ASSERT_TRUE(drain_one()) << client.error();
  }

  // Zero lost replies: every request got an answer, and every answer was a
  // commit — creates of unique names in bootstrapped directories have no
  // legitimate abort path in a quiescent cluster.
  EXPECT_EQ(sent, kOps);
  EXPECT_EQ(ok, kOps);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(server.committed(), kOps);

  server.stop();
  cluster.env().wait_idle();

  // The served namespace passes the same invariant oracle the storms use.
  EXPECT_TRUE(cluster.check_invariants(dirs).empty());
  std::uint64_t dentries = 0;
  for (const MetaStore* s : cluster.stores()) {
    dentries += s->stable_dentry_count();
  }
  EXPECT_EQ(dentries, kOps);

  // Host-independent served counts, so a timing change that adds a hidden
  // message or force fails here.  A 1PC create is local (inode minted on
  // the directory's node: no message, one force) or distributed (three
  // messages; two critical forces and one lazy).  Inode ids are minted per
  // coordinator worker, and the homes of one worker's successive creates
  // cycle over the ring, so exactly one create in three is local whatever
  // the interleaving: the workers of directories 1, 2, 3 coordinate 3334,
  // 3333 and 3333 creates, 1111 of each local.
  const RtCluster::StormResult folded = cluster.fold_results();
  ASSERT_EQ(folded.committed, kOps);
  const std::int64_t txns = static_cast<std::int64_t>(folded.committed);
  const std::int64_t local = folded.stats.get("acp.local");
  const std::int64_t msgs = folded.stats.get("acp.msg.total");
  const std::int64_t forces = folded.stats.get("wal.force.count");
  EXPECT_EQ(local, 3333);
  EXPECT_EQ(msgs, 3 * (txns - local));  // 20001: 2.0001 per txn
  EXPECT_EQ(forces, txns + 2 * (txns - local));  // 23334: 2.3334 per txn
  EXPECT_EQ(msgs, 20001);
  EXPECT_EQ(forces, 23334);
  EXPECT_EQ(folded.aborted, 0u) << "fail share must stay 0";

  // Per-transaction table gauges: quiescent, so every 1PC commit force has
  // completed and no undo record is left, every transaction has been
  // checkpointed (no log record and no applied id left), and with no abort
  // no outcome is remembered.  Each table is bounded by the work in
  // flight, not by the txns run.
  for (const char* gauge : {"mds.unflushed", "mds.stable_applied",
                            "acp.finished", "wal.live_records"}) {
    EXPECT_TRUE(folded.stats.all().contains(gauge)) << gauge;
    EXPECT_EQ(folded.stats.get(gauge), 0) << gauge;
  }
}

// Wide creates over the wire (ISSUE 10): kCreateSpread requests plan one
// atomic create spanning `width` MDSs.  Every reply commits, the namespace
// stays invariant-clean with width-1 entries per request (primary name plus
// .sK siblings), and a width beyond the cluster is answered kBadRequest
// without disturbing the connection.
TEST(RpcE2E, SpreadCreatesCommitAtomicallyAcrossThreeNodes) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint64_t kOps = 500;
  constexpr std::uint8_t kWidth = 3;

  RtClusterConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.protocol = ProtocolKind::kOnePC;  // degrades wide txns to PrA
  cfg.net.latency = Duration::zero();
  cfg.disk.bytes_per_second = 2.0 * 1024 * 1024 * 1024;
  cfg.seed = 20260807;
  RtCluster cluster(cfg);
  std::vector<ObjectId> dirs;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    dirs.push_back(ObjectId(i + 1));
    cluster.bootstrap_directory(ObjectId(i + 1), NodeId(i));
  }

  RpcServerConfig scfg;
  scfg.uds_path =
      "/tmp/opc-e2e-spread-" + std::to_string(::getpid()) + ".sock";
  RpcServer server(cluster, scfg);
  ASSERT_TRUE(server.start());

  RpcClient client;
  ASSERT_TRUE(client.connect_uds(scfg.uds_path));

  std::uint64_t ok = 0, failed = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    client.send_create_spread(i % kNodes + 1, "w" + std::to_string(i),
                              kWidth);
    ASSERT_TRUE(client.flush(60.0)) << client.error();
    if (client.outstanding() >= 64) {
      Reply r;
      ASSERT_TRUE(client.recv_reply(r, 60.0)) << client.error();
      r.status == Status::kOk ? ++ok : ++failed;
    }
  }
  while (ok + failed < kOps) {
    Reply r;
    ASSERT_TRUE(client.recv_reply(r, 60.0)) << client.error();
    r.status == Status::kOk ? ++ok : ++failed;
  }
  EXPECT_EQ(ok, kOps);
  EXPECT_EQ(failed, 0u);

  // Width beyond the cluster: semantic rejection, connection stays usable.
  client.send_create_spread(1, "too_wide", kNodes + 1);
  ASSERT_TRUE(client.flush(60.0)) << client.error();
  Reply bad;
  ASSERT_TRUE(client.recv_reply(bad, 60.0)) << client.error();
  EXPECT_EQ(bad.status, Status::kBadRequest);
  client.send_create(1, "still_alive", false);
  ASSERT_TRUE(client.flush(60.0)) << client.error();
  Reply alive;
  ASSERT_TRUE(client.recv_reply(alive, 60.0)) << client.error();
  EXPECT_EQ(alive.status, Status::kOk);

  server.stop();
  cluster.env().wait_idle();

  EXPECT_TRUE(cluster.check_invariants(dirs).empty());
  std::uint64_t dentries = 0;
  for (const MetaStore* s : cluster.stores()) {
    dentries += s->stable_dentry_count();
  }
  // Atomicity at the namespace level: all width-1 entries of each wide
  // create landed (plus the one recovery probe above) — never a partial
  // subset.
  EXPECT_EQ(dentries, kOps * (kWidth - 1) + 1);
}

}  // namespace
}  // namespace opc::rpc
