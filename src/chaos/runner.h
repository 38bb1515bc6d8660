// One chaos run: cluster + mixed workload + one FaultSchedule + checkers.
//
// run_schedule() is a pure function of (ChaosRunConfig, FaultSchedule):
// it builds a fresh deterministic simulation, injects the schedule through
// the Nemesis, heals, drains, and hands the end state to the full checker
// battery.  Equal inputs produce byte-identical ChaosRunResults (including
// the trace hash), which is what makes exploration reports reproducible
// and shrinking sound.
//
// A (config, schedule) pair round-trips through a textual *repro file*
// (render_repro/parse_repro) so a failure found by the explorer can be
// replayed exactly with `opc chaos --replay <file>`.
#pragma once

#include "chaos/checker.h"
#include "chaos/nemesis.h"
#include "obs/report.h"
#include "workload/workload.h"

namespace opc {

struct ChaosRunConfig {
  ProtocolKind protocol = ProtocolKind::kOnePC;
  std::uint32_t n_nodes = 3;
  std::uint64_t seed = 1;
  std::uint32_t concurrency = 6;
  std::uint32_t n_dirs = 4;
  /// Participants per CREATE (2 = classic two-MDS; >2 spreads each create
  /// over participants-1 distinct worker nodes).  Must be <= n_nodes.
  std::uint32_t participants = 2;
  Duration run_for = Duration::seconds(8);  // fault + workload window
  /// TEST-ONLY: forwarded to AcpConfig::unsafe_skip_fencing, so the bug
  /// the fencing oracle exists to catch can be demonstrated on demand.
  bool unsafe_skip_fencing = false;

  [[nodiscard]] bool operator==(const ChaosRunConfig&) const = default;
};

struct ChaosRunResult {
  bool passed = false;
  std::vector<CheckFailure> failures;
  std::uint64_t trace_hash = 0;   // FNV-1a over the full trace
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t lost = 0;
  std::uint32_t triggers_fired = 0;
};

/// The simulation under one chaos run: a cluster with the chaos timeouts,
/// heartbeats and history recording, serving `cfg`'s mixed workload (not
/// yet started).  run_schedule and the explorer's crash-point probe build
/// the same one, so probed crash points exist in the runs they seed.
struct ChaosSim {
  /// `phase_log` (may be null) receives engine phase annotations.
  ChaosSim(const ChaosRunConfig& cfg, obs::PhaseLog* phase_log);

  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{true};  // hashes + trigger observers need the trace
  Cluster cluster;
  ThroughputMeter meter;
  Workload workload;
};

/// Runs one schedule to completion and checks it.  Deterministic.
[[nodiscard]] ChaosRunResult run_schedule(const ChaosRunConfig& cfg,
                                          const FaultSchedule& schedule);

/// Same run, but additionally assembles the observability RunReport —
/// spans from the (already recorded) trace plus engine phase annotations,
/// joined with counters, and with the injected fault schedule attached
/// (docs/OBSERVABILITY.md §4 `faults`).  The report path changes nothing
/// about the simulation: trace hashes are identical with and without it.
[[nodiscard]] ChaosRunResult run_schedule(const ChaosRunConfig& cfg,
                                          const FaultSchedule& schedule,
                                          obs::RunReport* report);

/// Serializes config + schedule as a replayable repro file.
[[nodiscard]] std::string render_repro(const ChaosRunConfig& cfg,
                                       const FaultSchedule& schedule);

/// Parses a repro file.  Returns false on a malformed config line; the
/// schedule is whatever fault/trigger lines parsed.
[[nodiscard]] bool parse_repro(const std::string& text, ChaosRunConfig& cfg,
                               FaultSchedule& schedule);

}  // namespace opc
