// Schedule exploration: generation determinism, report reproducibility,
// systematic crash-point enumeration, and the protocol smoke — 50 random
// schedules per protocol (PrA included) at two and at three participants,
// every checker green and each exploration's combined hash pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "chaos/explorer.h"

namespace opc {
namespace {

ExplorerConfig smoke_cfg(ProtocolKind proto, std::uint32_t n_schedules,
                         std::uint64_t seed) {
  ExplorerConfig cfg;
  cfg.base.protocol = proto;
  cfg.n_schedules = n_schedules;
  cfg.seed = seed;
  return cfg;
}

TEST(RandomSchedules, GenerationIsSeedDeterministicAndBounded) {
  ChaosRunConfig base;
  Rng a(7, 0xC4A05);
  Rng b(7, 0xC4A05);
  for (int i = 0; i < 32; ++i) {
    const FaultSchedule sa = random_schedule(a, base, 4);
    const FaultSchedule sb = random_schedule(b, base, 4);
    EXPECT_EQ(sa, sb);
    EXPECT_GE(sa.size(), 1u);
    // Up to max_faults timed events, plus at most one trace trigger.
    EXPECT_LE(sa.events.size(), 4u);
    EXPECT_LE(sa.triggers.size(), 1u);
  }
}

TEST(Exploration, ReportIsByteIdenticalAcrossReruns) {
  const ExplorerConfig cfg = smoke_cfg(ProtocolKind::kOnePC, 10, 42);
  const ExplorationReport a = explore(cfg);
  const ExplorationReport b = explore(cfg);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.combined_hash, b.combined_hash);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.failed, b.failed);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].schedule, b.outcomes[i].schedule);
    EXPECT_EQ(a.outcomes[i].result.trace_hash, b.outcomes[i].result.trace_hash);
  }
}

TEST(Exploration, SystematicModeEnumeratesCrashPoints) {
  ExplorerConfig cfg = smoke_cfg(ProtocolKind::kOnePC, 2, 11);
  cfg.systematic = true;
  cfg.max_systematic = 8;
  const ExplorationReport r = explore(cfg);
  ASSERT_GT(r.outcomes.size(), 2u) << "systematic schedules must be appended";
  std::size_t systematic = 0;
  for (const ScheduleOutcome& o : r.outcomes) {
    if (!o.systematic) continue;
    ++systematic;
    EXPECT_EQ(o.schedule.events.size(), 0u);
    EXPECT_EQ(o.schedule.triggers.size(), 1u);
  }
  EXPECT_GT(systematic, 0u);
  EXPECT_LE(systematic, 8u);
  EXPECT_EQ(r.failed, 0u);
}

// The crash-point probe runs the same workload as the schedules it seeds,
// so wider transactions give different crash points.  Each row hashes the
// concatenated render_schedule outputs (FNV-1a) of one 1PC seed-42 probe;
// the two-party lists are the ones the probe gave before it ran the
// scheduled width, which also left the wider lists equal to them.
TEST(Exploration, CrashPointProbeRunsTheScheduledWorkload) {
  constexpr struct {
    std::uint32_t nodes, participants;
    std::uint64_t hash;
  } kRows[] = {{3, 2, 0xc14ebd72b8029625ull}, {3, 3, 0xda14f6a11fcb4bdfull},
               {4, 2, 0x7858a1eb9b5f2b3full}, {4, 3, 0xcff9ddcc84be1c95ull},
               {4, 4, 0x9f8ac82fe1b03511ull}};
  for (const auto& row : kRows) {
    ChaosRunConfig base;
    base.seed = 42;
    base.n_nodes = row.nodes;
    base.participants = row.participants;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const FaultSchedule& s : enumerate_crash_points(base, 64)) {
      for (const char c : render_schedule(s)) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
    }
    EXPECT_EQ(h, row.hash) << row.nodes << " nodes, " << row.participants
                           << " participants: got 0x" << std::hex << h;
  }
}

// combined_hash of smoke_cfg(proto, 50, 7) at each width.  The smoke's
// schedules crash, partition and reboot nodes, so these pin the recovery,
// fencing and decision-retry paths byte for byte, not only the failure-free
// storm that TraceGoldenTest covers.  A failure prints the new value; only
// an intentional protocol change may move one, and the PR must say so.
struct SmokePin {
  ProtocolKind proto;
  std::uint32_t participants;
  std::uint64_t combined_hash;
};

constexpr SmokePin kSmokePins[] = {
    {ProtocolKind::kPrN, 2, 0x2b445652d9c96e5bull},
    {ProtocolKind::kPrC, 2, 0x7ce2022c849be4d2ull},
    {ProtocolKind::kEP, 2, 0xf3810b8be399c0f1ull},
    {ProtocolKind::kOnePC, 2, 0x081a2a6bca0a6475ull},
    {ProtocolKind::kPrA, 2, 0x2309c0090fe1de92ull},
    {ProtocolKind::kPrN, 3, 0x1cb5b931d970fd8eull},
    {ProtocolKind::kPrC, 3, 0x0be601f1a429cff4ull},
    {ProtocolKind::kEP, 3, 0x0005d1095d9bae65ull},
    {ProtocolKind::kOnePC, 3, 0xccd286c4bd0c8a8cull},
    {ProtocolKind::kPrA, 3, 0x1976693b8c118bdaull},
};

void expect_smoke_green_and_pinned(ProtocolKind proto,
                                   std::uint32_t participants) {
  ExplorerConfig cfg = smoke_cfg(proto, 50, 7);
  cfg.base.participants = participants;
  const ExplorationReport r = explore(cfg);
  EXPECT_EQ(r.passed, 50u);
  if (r.failed != 0) {
    const ScheduleOutcome* f = r.first_failure();
    ASSERT_NE(f, nullptr);
    std::string detail;
    for (const CheckFailure& cf : f->result.failures) {
      detail += "  [" + cf.oracle + "] " + cf.detail + "\n";
    }
    ADD_FAILURE() << "schedule #" << f->index << " (seed " << f->seed
                  << ") failed:\n"
                  << detail << render_schedule(f->schedule);
  }
  const auto pin =
      std::find_if(std::begin(kSmokePins), std::end(kSmokePins),
                   [&](const SmokePin& p) {
                     return p.proto == proto && p.participants == participants;
                   });
  ASSERT_NE(pin, std::end(kSmokePins));
  EXPECT_EQ(r.combined_hash, pin->combined_hash)
      << protocol_name(proto) << " at " << participants
      << " participants: combined hash moved (got 0x" << std::hex
      << r.combined_hash << ")";
}

class ProtocolSmoke : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolSmoke, FiftyRandomSchedulesAllCheckersGreen) {
  expect_smoke_green_and_pinned(GetParam(), 2);
}

// Three participants: 1PC degrades to PrA, every protocol runs N-way votes.
TEST_P(ProtocolSmoke, FiftyWideSchedulesAllCheckersGreen) {
  expect_smoke_green_and_pinned(GetParam(), 3);
}

std::string smoke_name(const ::testing::TestParamInfo<ProtocolKind>& i) {
  return std::string(protocol_name(i.param));
}

INSTANTIATE_TEST_SUITE_P(AllPaperProtocols, ProtocolSmoke,
                         ::testing::ValuesIn(kAllProtocols), smoke_name);
INSTANTIATE_TEST_SUITE_P(Extensions, ProtocolSmoke,
                         ::testing::Values(ProtocolKind::kPrA), smoke_name);

}  // namespace
}  // namespace opc
