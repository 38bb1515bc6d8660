// Golden end-to-end history hashes for the Figure 6 storm.
//
// The FNV hash over a run's full trace is the repo's determinism
// fingerprint: it covers every message send/recv, log force and commit
// decision in time order.  Pinning one hash per protocol turns "the kernel
// refactor changed no observable behavior" from a claim into a test — any
// change to event ordering, RNG consumption, timer scheduling or protocol
// logic moves at least one of these values.
//
// The values equal `opc storm --proto all+ --seconds 2 --trace-hash
// [--participants 3]` (seed 1) and were verified identical across the seed
// simulator kernel and the indexed-heap rewrite.  The three-participant
// rows cover the wide-transaction path, where 1PC degrades to PrA.  If a PR changes them INTENTIONALLY
// (a protocol or workload change), regenerate with that command and say so
// in the PR; an unexplained diff here is a determinism regression.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"

namespace opc {
namespace {

struct Golden {
  ProtocolKind proto;
  std::uint32_t participants;
  std::uint64_t hash;
};

constexpr Golden kGolden[] = {
    {ProtocolKind::kPrN, 2, 0x099585997bc6becbull},
    {ProtocolKind::kPrC, 2, 0x312f4a08f0387a2dull},
    {ProtocolKind::kEP, 2, 0x82ac54bbea6ae422ull},
    {ProtocolKind::kOnePC, 2, 0x8dfd0cada559dc1dull},
    {ProtocolKind::kPrA, 2, 0x138aee1f51113083ull},
    {ProtocolKind::kPrN, 3, 0xb6dc5f9e9f2a2468ull},
    {ProtocolKind::kPrC, 3, 0xb1b205ecf437693cull},
    {ProtocolKind::kEP, 3, 0x99c7cf18c587bc11ull},
    {ProtocolKind::kOnePC, 3, 0xf5dada0f1815de9aull},
    {ProtocolKind::kPrA, 3, 0xf5dada0f1815de9aull},
};

TEST(TraceGoldenTest, StormHistoryHashesMatchPinnedValues) {
  for (const Golden& g : kGolden) {
    ExperimentConfig cfg = paper_fig6_config(g.proto);
    cfg.cluster.seed = 1;
    cfg.participants = g.participants;
    cfg.cluster.n_nodes = std::max(cfg.cluster.n_nodes, g.participants);
    cfg.run_for = Duration::seconds(2);
    cfg.warmup = Duration::seconds(1);
    cfg.trace = true;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_EQ(r.trace_hash, g.hash)
        << protocol_name(g.proto) << " at " << g.participants
        << " participants: history hash moved (got 0x"
        << std::hex << r.trace_hash
        << ") — event order, RNG draws or protocol behavior changed";
    EXPECT_EQ(r.invariant_violations, 0u);
  }
}

// The same config twice must hash identically — run_experiment is a pure
// function of (config, seed).  Guards the golden values above against
// within-build nondeterminism (which would make their failures noisy).
TEST(TraceGoldenTest, RepeatedRunsHashIdentically) {
  auto run_once = [] {
    ExperimentConfig cfg = paper_fig6_config(ProtocolKind::kOnePC);
    cfg.cluster.seed = 7;
    cfg.run_for = Duration::millis(500);
    cfg.warmup = Duration::millis(100);
    cfg.trace = true;
    return run_experiment(cfg).trace_hash;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace opc
