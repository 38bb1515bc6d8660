// Experiment driver: one self-contained simulation per call.
//
// Each run owns its Simulator, Cluster and Workload, making runs
// pure functions of (config, seed) — the property the parallel sweep runner
// (core/sweep.h) relies on to fan experiments out across threads with
// bitwise-reproducible results.
#pragma once

#include <cstdint>
#include <string>

#include <vector>

#include "cluster/cluster.h"
#include "obs/phase.h"
#include "sim/trace.h"
#include "workload/workload.h"

namespace opc {

/// One simulated run: the cluster, the workload (the WorkloadSpec base:
/// shape, n_dirs, participants, batch, mix; src/workload/workload.h) and
/// the measurement window.
struct ExperimentConfig : WorkloadSpec {
  ClusterConfig cluster;
  SourceConfig source;
  Duration run_for = Duration::seconds(30);
  Duration warmup = Duration::seconds(5);
  bool trace = false;  // record the full event trace (costly; debug only)

  /// Fault injection (ablation E): crash a node every `crash_period`
  /// (0 = never), alternating worker/coordinator per the flags.
  Duration crash_period = Duration::zero();
  Duration crash_reboot_after = Duration::millis(500);
  bool crash_worker = true;
  bool crash_coordinator = false;
};

struct ExperimentResult {
  double ops_per_second = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t lost = 0;
  Histogram latency;          // client-visible commit latency
  StatsRegistry stats;        // full counter snapshot
  std::uint64_t trace_hash = 0;
  std::size_t invariant_violations = 0;
  std::string violation_report;
  bool serializable = true;
  double coordinator_disk_busy = 0.0;  // utilization of the hot log device

  // Populated only when ExperimentConfig::trace is set: the raw event
  // stream plus the engine phase side-channel, the inputs the span
  // assembler (obs/assembler.h) and `opc trace` consume.
  std::vector<TraceEvent> trace_events;
  obs::PhaseLog phases;
};

/// The paper's evaluation parameters (§IV): 1 µs method compute, 100 µs
/// network latency, 400 KB/s log devices, 100 concurrent distributed
/// creates against one MDS.  Two nodes: the hot directory's MDS
/// (coordinator) plus the inode server (worker).
[[nodiscard]] ExperimentConfig paper_fig6_config(ProtocolKind proto);

/// Builds the cluster and workload of `cfg`, runs the measurement window,
/// drains to quiescence and checks invariants.  ops_per_second counts
/// namespace operations: committed transactions times `cfg.batch`.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// run_experiment under its former name, which perfbench/tests still calls.
[[nodiscard]] inline ExperimentResult run_create_storm(
    const ExperimentConfig& cfg) {
  return run_experiment(cfg);
}

}  // namespace opc
