// The single-transaction instrumentation (timeline/Table-I extraction) and
// the paper-parameter presets.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep.h"
#include "core/timeline.h"

namespace opc {
namespace {

TEST(TimelineTest, ChartContainsTheProtocolChoreography) {
  const TimelineResult prn = run_single_create(ProtocolKind::kPrN);
  EXPECT_NE(prn.chart.find("UPDATE_REQ"), std::string::npos);
  EXPECT_NE(prn.chart.find("PREPARE"), std::string::npos);
  EXPECT_NE(prn.chart.find("COMMIT"), std::string::npos);
  EXPECT_NE(prn.chart.find("ACK"), std::string::npos);
  EXPECT_NE(prn.chart.find("STARTED"), std::string::npos);

  const TimelineResult onepc = run_single_create(ProtocolKind::kOnePC);
  EXPECT_EQ(onepc.chart.find("PREPARE "), std::string::npos)
      << "1PC has no voting phase";
  EXPECT_NE(onepc.chart.find("REDO"), std::string::npos)
      << "the redo record is 1PC's signature";
}

TEST(TimelineTest, SingleCreateLatenciesMatchTheCostModel) {
  // With 20 ms forced blocks and 100 us links, the client latencies are
  // fully determined (see EXPERIMENTS.md Figures 2-5 table).
  const auto tol = Duration::millis(1);
  auto near = [&](Duration got, std::int64_t want_ms) {
    return got > Duration::millis(want_ms) - tol &&
           got < Duration::millis(want_ms) + tol;
  };
  EXPECT_TRUE(near(run_single_create(ProtocolKind::kPrN).client_latency, 81));
  EXPECT_TRUE(near(run_single_create(ProtocolKind::kPrC).client_latency, 60));
  EXPECT_TRUE(near(run_single_create(ProtocolKind::kEP).client_latency, 60));
  EXPECT_TRUE(
      near(run_single_create(ProtocolKind::kOnePC).client_latency, 40));
}

TEST(TimelineTest, RepeatedRunsAreIdentical) {
  const TimelineResult a = run_single_create(ProtocolKind::kEP);
  const TimelineResult b = run_single_create(ProtocolKind::kEP);
  EXPECT_EQ(a.chart, b.chart);
  EXPECT_EQ(a.client_latency, b.client_latency);
  EXPECT_EQ(a.txn_complete, b.txn_complete);
}

TEST(PresetTest, PaperFig6ConfigMatchesThePaper) {
  const ExperimentConfig cfg = paper_fig6_config(ProtocolKind::kOnePC);
  EXPECT_EQ(cfg.cluster.n_nodes, 2u);
  EXPECT_EQ(cfg.cluster.net.latency, Duration::micros(100));
  EXPECT_DOUBLE_EQ(cfg.cluster.disk.bytes_per_second, 400.0 * 1024.0);
  EXPECT_EQ(cfg.source.concurrency, 100u);
  EXPECT_EQ(cfg.cluster.protocol, ProtocolKind::kOnePC);
}

TEST(SweepTest, MapPreservesInputOrderAcrossThreadCounts) {
  std::vector<int> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back(i);
  for (unsigned threads : {1u, 2u, 8u}) {
    const auto out = ParallelSweep::map<int, int>(
        inputs, [](const int& x) { return x * x; }, threads);
    ASSERT_EQ(out.size(), inputs.size());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepTest, EmptyAndSingleJobEdgeCases) {
  ParallelSweep::run({});  // no-op
  int ran = 0;
  ParallelSweep::run({[&] { ++ran; }}, 4);
  EXPECT_EQ(ran, 1);
}

TEST(MultiDirectoryStorm, ThroughputScalesUntilTheDeviceSaturates) {
  // With independent hot directories the lock stops being the limit and
  // the coordinator's log device takes over (Ablation F's premise).
  ExperimentConfig cfg = paper_fig6_config(ProtocolKind::kOnePC);
  cfg.run_for = Duration::seconds(10);
  cfg.warmup = Duration::seconds(2);
  const double one_dir = run_experiment(cfg).ops_per_second;
  cfg.n_dirs = 4;
  const double four_dirs = run_experiment(cfg).ops_per_second;
  EXPECT_GT(four_dirs, one_dir * 0.95);
  // Device-bound ceiling: 2 forced blocks per txn at 20 ms each = 25/s.
  EXPECT_LT(four_dirs, 27.0);
}

}  // namespace
}  // namespace opc
