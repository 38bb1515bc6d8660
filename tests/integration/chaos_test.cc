// Property-based system tests: randomized mixed workloads under randomized
// crash/reboot schedules, for every protocol and a sweep of seeds.  The
// properties (the ACID obligations from DESIGN.md §6):
//   * namespace invariants hold in stable state after the dust settles,
//   * the committed history is conflict-serializable,
//   * the cluster quiesces (no transaction is stuck forever),
// plus codec robustness against arbitrary byte soup.
#include <gtest/gtest.h>

#include <array>

#include "cluster/cluster.h"
#include "mds/namespace.h"
#include "wal/record.h"
#include "workload/source.h"

namespace opc {
namespace {

struct ChaosCase {
  ProtocolKind proto;
  std::uint64_t seed;
};

class ChaosTest : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosTest, MixedWorkloadSurvivesRandomCrashes) {
  const ChaosCase cp = GetParam();
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);

  ClusterConfig cc;
  cc.n_nodes = 3;
  cc.protocol = cp.proto;
  cc.seed = cp.seed;
  cc.record_history = true;
  cc.acp.response_timeout = Duration::millis(300);
  cc.acp.retry_interval = Duration::millis(100);
  cc.heartbeat.enabled = true;
  cc.heartbeat.interval = Duration::millis(50);
  cc.heartbeat.suspicion_timeout = Duration::millis(250);
  Cluster cluster(sim, cc, stats, trace);

  IdAllocator ids;
  HashPartitioner part(3);
  NamespacePlanner planner(part, OpCosts{});
  std::vector<ObjectId> dirs;
  for (int i = 0; i < 4; ++i) {
    const ObjectId dir = ids.next();
    dirs.push_back(dir);
    cluster.bootstrap_directory(dir, part.home_of(dir));
  }

  ThroughputMeter meter;
  SourceConfig scfg;
  scfg.concurrency = 6;
  scfg.client_timeout = Duration::seconds(1);
  MixedSource source(cluster.env(), cluster, scfg, meter, stats, planner, ids, dirs,
                     MixedSource::Mix{0.6, 0.25}, cp.seed);
  source.start();

  // Random crash schedule: ~6 crashes over 15 simulated seconds, random
  // victims, 400 ms repair time.
  Rng chaos(cp.seed, /*stream=*/0xBAD);
  Duration at = Duration::zero();
  for (int i = 0; i < 6; ++i) {
    at += Duration::millis(500) + chaos.exponential(Duration::millis(2000));
    if (at > Duration::seconds(15)) break;
    const NodeId victim(static_cast<std::uint32_t>(chaos.index(3)));
    cluster.schedule_crash(victim, at, Duration::millis(400));
  }

  sim.run_until(SimTime::zero() + Duration::seconds(15));
  source.stop();
  // Make sure everything is repaired, then drain completely.
  sim.run_until(SimTime::zero() + Duration::seconds(18));
  for (std::uint32_t n = 0; n < 3; ++n) cluster.reboot_node(NodeId(n));
  sim.run_until(SimTime::zero() + Duration::seconds(60));

  // Quiescence: only heartbeat timers remain.
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(cluster.engine(NodeId(n)).active_coordinations(), 0u)
        << "node " << n << " proto " << protocol_name(cp.proto) << " seed "
        << cp.seed;
    EXPECT_EQ(cluster.engine(NodeId(n)).active_participations(), 0u);
    EXPECT_TRUE(cluster.node(NodeId(n)).alive());
  }

  const auto violations = cluster.check_invariants(dirs);
  EXPECT_TRUE(violations.empty())
      << protocol_name(cp.proto) << " seed " << cp.seed << "\n"
      << render_violations(violations);
  ASSERT_NE(cluster.history(), nullptr);
  EXPECT_TRUE(cluster.history()->serializable())
      << protocol_name(cp.proto) << " seed " << cp.seed;
  EXPECT_GT(source.committed(), 50u) << "progress was made despite crashes";
}

// gtest names each case after a byte dump of its parameter, padding
// included.  A constant-initialised table has zero padding, so the names
// are the same in every run (cases built on the stack carried garbage).
constexpr std::array<ChaosCase, 25> chaos_cases() {
  std::array<ChaosCase, 25> cases{};
  std::size_t i = 0;
  for (ProtocolKind p : kAllProtocolsExt) {
    for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
      cases[i++] = ChaosCase{p, seed};
    }
  }
  return cases;
}
constexpr std::array<ChaosCase, 25> kChaosCases = chaos_cases();

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosTest, ::testing::ValuesIn(kChaosCases),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param.proto)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

// Network-loss chaos (no crashes): retries must mask a lossy fabric.
class LossTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(LossTest, RetriesMaskMessageLoss) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cc;
  cc.n_nodes = 2;
  cc.protocol = GetParam();
  cc.net.loss_probability = 0.05;
  cc.acp.response_timeout = Duration::millis(250);
  cc.acp.retry_interval = Duration::millis(100);
  cc.record_history = true;
  Cluster cluster(sim, cc, stats, trace);

  IdAllocator ids;
  const ObjectId dir = ids.next();
  PinnedPartitioner part(2, NodeId(1));
  part.assign(dir, NodeId(0));
  cluster.bootstrap_directory(dir, NodeId(0));
  NamespacePlanner planner(part, OpCosts{});

  ThroughputMeter meter;
  SourceConfig scfg;
  scfg.concurrency = 4;
  scfg.max_ops = 60;
  scfg.client_timeout = Duration::seconds(2);
  CreateStormSource source(cluster.env(), cluster, scfg, meter, stats, planner, ids,
                           dir);
  source.start();
  sim.run_until(SimTime::zero() + Duration::seconds(120));

  EXPECT_TRUE(cluster.check_invariants({dir}).empty());
  EXPECT_TRUE(cluster.history()->serializable());
  // Commits must dominate; a dropped UPDATE_REQ surfaces as an abort
  // (2PC-family timeout) or a full STONITH fencing round (1PC — the paper's
  // recovery is deliberately heavy-handed, so its floor is lower).
  const std::uint64_t floor =
      GetParam() == ProtocolKind::kOnePC ? 20u : 40u;
  EXPECT_GT(source.committed(), floor) << protocol_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, LossTest,
                         ::testing::ValuesIn(kAllProtocolsExt),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

// Codec fuzz: random bytes never decode into nonsense (they fail cleanly),
// and random valid records always round-trip.
TEST(CodecFuzz, RandomBytesNeverDecode) {
  Rng rng(123);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.index(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.index(256));
    std::size_t off = 0;
    // Overwhelmingly these must fail; if one "decodes" (magic+CRC collision
    // is astronomically unlikely), offset discipline must still hold.
    const auto rec = decode_record(junk, off);
    if (rec.has_value()) {
      EXPECT_LE(off, junk.size());
    } else {
      EXPECT_EQ(off, 0u);
    }
  }
}

TEST(CodecFuzz, RandomRecordsRoundTrip) {
  Rng rng(321);
  for (int round = 0; round < 2000; ++round) {
    LogRecord rec;
    rec.type = static_cast<RecordType>(1 + rng.index(8));
    rec.txn = rng.next_u64();
    rec.writer = NodeId(static_cast<std::uint32_t>(rng.index(1000)));
    rec.modeled_bytes = rng.next_u64() % 100000;
    rec.payload.resize(rng.index(300));
    for (auto& b : rec.payload) b = static_cast<std::uint8_t>(rng.index(256));
    std::vector<std::uint8_t> buf;
    encode_record(rec, buf);
    std::size_t off = 0;
    const auto got = decode_record(buf, off);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, rec);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(CodecFuzz, RandomOpsRoundTrip) {
  Rng rng(456);
  for (int round = 0; round < 500; ++round) {
    std::vector<Operation> ops(rng.index(8));
    for (auto& op : ops) {
      op.type = static_cast<OpType>(1 + rng.index(8));
      op.target = ObjectId(rng.next_u64() | 1);
      op.child = ObjectId(rng.next_u64());
      op.name.resize(rng.index(40));
      for (auto& c : op.name) {
        c = static_cast<char>('a' + rng.index(26));
      }
      op.log_bytes = rng.index(100000);
      op.compute = Duration::nanos(static_cast<std::int64_t>(rng.index(1000)));
    }
    std::vector<std::uint8_t> buf;
    encode_ops(ops, buf);
    std::vector<Operation> got;
    ASSERT_TRUE(decode_ops(buf, got));
    EXPECT_EQ(got, ops);
  }
}

}  // namespace
}  // namespace opc
