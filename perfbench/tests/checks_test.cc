// The benchmark's output checks must pass on a correct output and fail on
// a planted wrong one: an expected namespace missing one acknowledged
// create, an expected namespace with one extra live name, and a perturbed
// pinned simulator count or hash.
#include <gtest/gtest.h>

#include "checks.h"
#include "core/experiment.h"
#include "workloads.h"

namespace opcbench {
namespace {

using Kind = AckedOp::Kind;

std::vector<AckedOp> sample_acks() {
  return {
      {Kind::kCreate, 1, "t0_1", {}},  {Kind::kCreate, 2, "t0_2", {}},
      {Kind::kCreate, 1, "t0_10", {}}, {Kind::kRename, 1, "t0_1", "t0_r3"},
      {Kind::kCreate, 3, "t0_4", {}},  {Kind::kRemove, 3, "t0_4", {}},
  };
}

TEST(ExpectedNamespace, AppliesAcknowledgedOpsInOrder) {
  const DirEntries ns = expected_namespace({1, 2, 3}, sample_acks());
  EXPECT_EQ(ns.at(1), (std::vector<std::string>{"t0_10", "t0_r3"}));
  EXPECT_EQ(ns.at(2), (std::vector<std::string>{"t0_2"}));
  EXPECT_TRUE(ns.at(3).empty());
}

TEST(DiffNamespace, PassesOnMatchAndFailsOnPlantedErrors) {
  const DirEntries served = expected_namespace({1, 2, 3}, sample_acks());
  EXPECT_TRUE(diff_namespace(served, served).empty());

  auto acks = sample_acks();
  acks.erase(acks.begin() + 1);  // drop the acknowledged create of t0_2
  const DirEntries missing_create = expected_namespace({1, 2, 3}, acks);
  const auto d1 = diff_namespace(missing_create, served);
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_NE(d1[0].find("t0_2"), std::string::npos);

  DirEntries extra_live = served;
  extra_live[3].push_back("t0_99");
  const auto d2 = diff_namespace(extra_live, served);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_NE(d2[0].find("missing"), std::string::npos);
}

TEST(ServeChurnCheck, RealRoundPassesAndPlantedErrorsFail) {
  Options opt;
  opt.seed = 3;
  opt.out_dir = ".";
  ChurnParams p;
  p.ops = 3000;
  p.window = 16;
  p.live = 32;
  const ServedCheck c = churn_round_for_test(opt, p);
  EXPECT_EQ(c.invariant_violations, 0u) << c.violation_report;
  EXPECT_TRUE(diff_namespace(c.expected, c.actual).empty());
  for (const auto& [dir, names] : c.actual) EXPECT_EQ(names.size(), 32u);

  DirEntries missing_create = c.expected;
  missing_create[2].erase(missing_create[2].begin());
  EXPECT_FALSE(diff_namespace(missing_create, c.actual).empty());

  DirEntries extra_live = c.expected;
  extra_live[1].push_back("never_created");
  std::sort(extra_live[1].begin(), extra_live[1].end());
  EXPECT_FALSE(diff_namespace(extra_live, c.actual).empty());
}

TEST(SimFig6Check, PinsHoldAndPerturbedPinsFail) {
  const std::vector<SimPoint> got = sim_points_for_test(/*seed=*/1);
  ASSERT_EQ(got.size(), sim_fig6_pins().size());
  EXPECT_TRUE(diff_sim_points(sim_fig6_pins(), got).empty());

  std::vector<SimPoint> bad_count = sim_fig6_pins();
  bad_count[3].committed += 1;
  EXPECT_EQ(diff_sim_points(bad_count, got).size(), 1u);

  std::vector<SimPoint> bad_hash = sim_fig6_pins();
  bad_hash[6].state_hash ^= 1;
  EXPECT_EQ(diff_sim_points(bad_hash, got).size(), 1u);

  std::vector<SimPoint> missing = got;
  missing.pop_back();
  EXPECT_EQ(diff_sim_points(sim_fig6_pins(), missing).size(), 1u);
}

// The benchmark's own storm fixture must reproduce run_create_storm.
TEST(SimFig6Check, FixtureMatchesRunCreateStorm) {
  for (const SimPoint& pin : sim_fig6_pins()) {
    opc::ProtocolKind proto = opc::ProtocolKind::kPrN;
    for (auto k : {opc::ProtocolKind::kPrN, opc::ProtocolKind::kPrC,
                   opc::ProtocolKind::kEP, opc::ProtocolKind::kOnePC}) {
      if (opc::protocol_name(k) == pin.protocol) proto = k;
    }
    opc::ExperimentConfig cfg = opc::paper_fig6_config(proto);
    cfg.cluster.n_nodes = pin.width;
    cfg.participants = pin.width;
    cfg.run_for = opc::Duration::from_seconds_f(kSimRunSeconds);
    cfg.warmup = opc::Duration::from_seconds_f(kSimWarmupSeconds);
    const opc::ExperimentResult r = opc::run_create_storm(cfg);
    EXPECT_EQ(r.committed, pin.committed) << pin.protocol << pin.width;
    EXPECT_EQ(r.aborted, pin.aborted) << pin.protocol << pin.width;
    EXPECT_EQ(r.ops_per_second, pin.sim_ops_s) << pin.protocol << pin.width;
  }
}

}  // namespace
}  // namespace opcbench
