// Experiment-driver behaviour: the Figure 6 throughput shape, run
// determinism, and the parallel sweep runner.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/sweep.h"

namespace opc {
namespace {

ExperimentConfig short_fig6(ProtocolKind proto) {
  ExperimentConfig cfg = paper_fig6_config(proto);
  cfg.run_for = Duration::seconds(12);
  cfg.warmup = Duration::seconds(2);
  return cfg;
}

TEST(Fig6Shape, OnePcBeatsTwoPcFamilyByPaperMargin) {
  double ops[4] = {};  // kAllProtocols order: PrN, PrC, EP, 1PC
  int i = 0;
  for (ProtocolKind p : kAllProtocols) {
    const ExperimentResult r = run_experiment(short_fig6(p));
    // Every protocol's storm must be clean, not only the winner's.
    EXPECT_EQ(r.invariant_violations, 0u)
        << protocol_name(p) << ": " << r.violation_report;
    EXPECT_EQ(r.aborted, 0u) << protocol_name(p);
    EXPECT_EQ(r.lost, 0u) << protocol_name(p);
    ops[i++] = r.ops_per_second;
  }
  const double prn = ops[0], prc = ops[1], ep = ops[2], onepc = ops[3];

  // Paper: PrN 15, PrC ~15, EP 16, 1PC 24 (+>50 %).  We require the shape:
  // absolute values in the same band, ordering preserved, 1PC's win > 40 %.
  EXPECT_GT(prn, 10.0);
  EXPECT_LT(prn, 22.0);
  EXPECT_GT(onepc, 19.0);
  EXPECT_LT(onepc, 32.0);
  EXPECT_NEAR(prc, prn, prn * 0.10);
  EXPECT_GE(ep, prn * 0.99);
  EXPECT_GT(onepc, prn * 1.4) << "1PC must win by the paper's >50% margin "
                              << "(we accept >=40%)";
}

TEST(Fig6Shape, RunsAreCleanAndConsistent) {
  const ExperimentResult r = run_experiment(short_fig6(ProtocolKind::kOnePC));
  EXPECT_EQ(r.invariant_violations, 0u) << r.violation_report;
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_GT(r.committed, 100u);
}

TEST(Determinism, SameSeedSameHistory) {
  ExperimentConfig cfg = short_fig6(ProtocolKind::kOnePC);
  cfg.run_for = Duration::seconds(4);
  cfg.warmup = Duration::seconds(1);
  cfg.trace = true;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_DOUBLE_EQ(a.ops_per_second, b.ops_per_second);
}

TEST(Determinism, EqualSeedsEqualTraceHashAcrossProtocols) {
  // The property `opc storm --trace-hash` exposes for scripts: the history
  // hash is a pure function of (config, seed) — equal for equal inputs.
  // The create storm is a closed deterministic loop (the seed never enters
  // it), so every protocol must hash identically across reruns; seed
  // sensitivity is asserted on the mixed workload, whose generator is the
  // one consumer of cluster.seed.
  for (ProtocolKind p : kAllProtocols) {
    ExperimentConfig cfg = paper_fig6_config(p);
    cfg.run_for = Duration::seconds(3);
    cfg.warmup = Duration::seconds(1);
    cfg.trace = true;
    const std::uint64_t first = run_experiment(cfg).trace_hash;
    EXPECT_EQ(run_experiment(cfg).trace_hash, first) << protocol_name(p);
  }
  ExperimentConfig cfg = paper_fig6_config(ProtocolKind::kOnePC);
  cfg.run_for = Duration::seconds(3);
  cfg.warmup = Duration::seconds(1);
  cfg.trace = true;
  cfg.shape = WorkloadShape::kMixed;
  cfg.n_dirs = 4;
  const std::uint64_t first = run_experiment(cfg).trace_hash;
  EXPECT_EQ(run_experiment(cfg).trace_hash, first);
  cfg.cluster.seed += 1;
  EXPECT_NE(run_experiment(cfg).trace_hash, first)
      << "a different seed must change the mixed-workload history";
}

TEST(Determinism, ParallelSweepMatchesSequential) {
  std::vector<ProtocolKind> protos = {ProtocolKind::kPrN, ProtocolKind::kPrC,
                                      ProtocolKind::kEP, ProtocolKind::kOnePC};
  auto make_cfg = [](ProtocolKind p) {
    ExperimentConfig cfg = paper_fig6_config(p);
    cfg.run_for = Duration::seconds(3);
    cfg.warmup = Duration::seconds(1);
    cfg.trace = true;
    return cfg;
  };
  std::vector<std::uint64_t> sequential;
  for (ProtocolKind p : protos) {
    sequential.push_back(run_experiment(make_cfg(p)).trace_hash);
  }
  const auto parallel = ParallelSweep::map<ProtocolKind, std::uint64_t>(
      protos,
      [&](const ProtocolKind& p) {
        return run_experiment(make_cfg(p)).trace_hash;
      },
      /*threads=*/4);
  EXPECT_EQ(parallel, sequential);
}

TEST(Batching, AggregationMultipliesThroughput) {
  // Paper §VI: aggregating ops into one transaction amortizes locks and
  // forced writes.  Batch 8 must beat batch 1 by a wide margin.
  ExperimentConfig cfg = short_fig6(ProtocolKind::kOnePC);
  cfg.run_for = Duration::seconds(8);
  const double b1 = run_experiment(cfg).ops_per_second;
  cfg.batch = 8;
  const double b8 = run_experiment(cfg).ops_per_second;
  EXPECT_GT(b8, b1 * 3.0);
}

TEST(MixedWorkload, CommitsCleanlyWithRenames) {
  ExperimentConfig cfg;
  cfg.cluster.n_nodes = 4;
  cfg.cluster.protocol = ProtocolKind::kOnePC;
  cfg.cluster.record_history = true;
  cfg.source.concurrency = 8;
  cfg.source.max_ops = 300;
  cfg.run_for = Duration::seconds(60);
  cfg.warmup = Duration::zero();
  cfg.shape = WorkloadShape::kMixed;
  cfg.n_dirs = 6;
  cfg.mix = MixedSource::Mix{0.6, 0.25};
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.committed, 250u);
  EXPECT_EQ(r.invariant_violations, 0u) << r.violation_report;
  EXPECT_TRUE(r.serializable);
}

}  // namespace
}  // namespace opc
