// Hard allocation floor under the bench_diff soft gate.
//
// bench_diff.py compares allocs/event against the committed baseline with a
// fractional threshold — useful for drift, but a refreshed baseline could
// quietly ratchet the number up.  This test pins an absolute ceiling: the
// steady-state Figure-6 1PC storm must stay in single-digit allocations per
// simulator event.  It reuses the global operator-new counting hook from
// bench/report (linking that library replaces the new/delete family with
// counting shims), so the measurement is the same one `opc bench` reports.
//
// Methodology: run one simulated second as warm-up — table growth,
// first-touch pool fills and lazy counter binding all land there — then
// count allocations across the next simulated seconds and divide by the
// kernel events dispatched in that window.  The workload is deterministic,
// so the measured ratio is stable run to run (wall-clock speed is not, and
// is deliberately not asserted here).
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "cluster/cluster.h"
#include "mds/namespace.h"
#include "report/alloc_hook.h"
#include "sim/simulator.h"
#include "workload/source.h"

namespace opc {
namespace {

// ISSUE 9 acceptance: fig6_storm_1pc at <= 9 allocs/event.  Measured at
// ~8.4 after the memory-architecture pass; the gap to 9.0 is headroom for
// legitimate drift, not an invitation.
constexpr double kAllocsPerEventCeiling = 9.0;

TEST(AllocGate, StormSteadyStateStaysUnderCeiling) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(false);
  ClusterConfig cc;
  cc.n_nodes = 2;
  cc.protocol = ProtocolKind::kOnePC;
  Cluster cluster(sim, cc, stats, trace);
  IdAllocator ids;
  const ObjectId dir = ids.next();
  PinnedPartitioner part(2, NodeId(1));
  part.assign(dir, NodeId(0));
  cluster.bootstrap_directory(dir, NodeId(0));
  NamespacePlanner planner(part, OpCosts{});
  ThroughputMeter meter;
  SourceConfig scfg;
  scfg.concurrency = 100;
  CreateStormSource source(cluster.env(), cluster, scfg, meter, stats,
                           planner, ids, dir);
  source.start();

  // Warm-up: one simulated second absorbs all one-time growth.
  sim.run_until(SimTime::zero() + Duration::seconds(1));

  const std::uint64_t events0 = sim.dispatched_events();
  const std::uint64_t allocs0 = benchreport::allocation_count();
  sim.run_until(SimTime::zero() + Duration::seconds(3));
  const std::uint64_t events = sim.dispatched_events() - events0;
  const std::uint64_t allocs = benchreport::allocation_count() - allocs0;

  ASSERT_GT(events, 0u);
  const double per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  RecordProperty("allocs_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, kAllocsPerEventCeiling)
      << "storm hot path regressed to " << per_event
      << " allocs/event (" << allocs << " allocations over " << events
      << " events); the memory-architecture pass holds this under "
      << kAllocsPerEventCeiling;
}

// Transparent-comparator audit, enforced: every StatsRegistry entry point
// that takes a name must resolve an existing counter without constructing
// a temporary std::string (CounterMap uses std::less<>, so string_view
// probes hit the tree directly).  The obs-side string-keyed maps
// (report/assembler/export) are offline aggregation and deliberately out
// of scope — nothing there runs per simulated event.
TEST(AllocGate, CounterLookupsNeverBuildTemporaryKeys) {
  StatsRegistry stats;
  constexpr std::string_view kNames[] = {
      "acp.msg.total", "wal.force.count", "lock.grants.immediate",
      "net.delivered", "disk.log.mds0.writes"};
  for (const std::string_view n : kNames) stats.add(n, 0);
  Counter handle(stats, "acp.msg.total");
  handle.add();  // first add binds the slot

  const std::uint64_t allocs0 = benchreport::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    stats.add(kNames[i % 5]);
    stats.set(kNames[(i + 1) % 5], i);
    (void)stats.get(kNames[(i + 2) % 5]);
    (void)stats.slot(kNames[(i + 3) % 5]);
    handle.add();
  }
  EXPECT_EQ(benchreport::allocation_count() - allocs0, 0u)
      << "a registry entry point built a temporary std::string key";
}

// The hook must replace the whole operator new/delete family.  Any aligned
// delete it misses falls back to the runtime's (or a sanitizer's) own,
// which then frees the hook's posix_memalign memory through a different
// allocator: ASan reports alloc-dealloc-mismatch.  A vector of an
// over-aligned type grows through operator new(size, align) and frees
// through the sized aligned delete (ptr, size, align).
TEST(AllocGate, AlignedAllocationsRoundTripThroughHook) {
  struct alignas(64) CacheLine {
    std::uint64_t words[8];
  };
  const std::uint64_t allocs0 = benchreport::allocation_count();
  {
    std::vector<CacheLine> lines;
    for (std::uint64_t i = 0; i < 100; ++i) {
      lines.push_back(CacheLine{{i}});
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&lines.back()) % 64, 0u);
    }
  }
  EXPECT_GT(benchreport::allocation_count() - allocs0, 1u)
      << "vector growth bypassed the counting hook";

  void* p = ::operator new(64, std::align_val_t{64}, std::nothrow);
  ASSERT_NE(p, nullptr);
  ::operator delete(p, std::align_val_t{64}, std::nothrow);
}

}  // namespace
}  // namespace opc
