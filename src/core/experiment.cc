#include "core/experiment.h"

namespace opc {
namespace {

/// Fault injection (ablation E): crashes a node every `crash_period`,
/// alternating worker and coordinator when both are enabled.
class CrashInjector {
 public:
  CrashInjector(Simulator& sim, Cluster& cluster, const ExperimentConfig& cfg)
      : sim_(sim), cluster_(cluster), cfg_(cfg) {
    if (cfg_.crash_period > Duration::zero()) schedule_next();
  }

 private:
  void schedule_next() {
    sim_.schedule_after(cfg_.crash_period, [this] {
      // NodeId(0) is the storm coordinator by construction.
      NodeId target;
      if (cfg_.crash_worker && cfg_.crash_coordinator) {
        target = NodeId(toggle_ ? 0 : 1);
        toggle_ = !toggle_;
      } else if (cfg_.crash_coordinator) {
        target = NodeId(0);
      } else {
        target = NodeId(1);
      }
      if (cluster_.node(target).alive()) {
        cluster_.crash_node(target);
        sim_.schedule_after(cfg_.crash_reboot_after, [this, target] {
          cluster_.reboot_node(target);
        });
      }
      schedule_next();
    });
  }

  Simulator& sim_;
  Cluster& cluster_;
  const ExperimentConfig& cfg_;
  bool toggle_ = false;
};

}  // namespace

ExperimentConfig paper_fig6_config(ProtocolKind proto) {
  ExperimentConfig cfg;
  cfg.cluster.n_nodes = 2;
  cfg.cluster.protocol = proto;
  cfg.cluster.net.latency = Duration::micros(100);
  cfg.cluster.disk.bytes_per_second = 400.0 * 1024.0;
  cfg.cluster.wal.force_pad_to = 8192;
  cfg.source.concurrency = 100;
  cfg.run_for = Duration::seconds(30);
  cfg.warmup = Duration::seconds(5);
  return cfg;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(cfg.trace);
  obs::PhaseLog phases;
  ClusterConfig cc = cfg.cluster;
  // Phase annotations ride along whenever the trace is on: both are
  // post-hoc observability inputs with the same cost profile.
  if (cfg.trace) cc.phase_log = &phases;
  Cluster cluster(sim, cc, stats, trace);
  ThroughputMeter meter;
  meter.set_warmup_until(SimTime::zero() + cfg.warmup);
  meter.set_cutoff(SimTime::zero() + cfg.run_for);

  Workload workload(cluster, cfg, cfg.source, meter, stats);
  CrashInjector crashes(sim, cluster, cfg);
  workload.start();

  sim.run_until(SimTime::zero() + cfg.run_for);
  // Utilization is measured over the measurement window, before drain.
  const double disk_busy =
      cluster.storage().partition(NodeId(0)).device().busy_time()
          .to_seconds_f() /
      cfg.run_for.to_seconds_f();
  workload.stop();
  // Drain until the cluster is quiescent: the invariant checker examines
  // stable state, which is only meaningful once every in-flight
  // transaction (including those deep in the directory-lock queue) has
  // finished.  Capped generously; a cap hit shows up as violations.
  const SimTime deadline =
      SimTime::zero() + cfg.run_for + Duration::seconds(600);
  while (sim.now() < deadline) {
    bool quiescent = true;
    for (std::uint32_t n = 0; n < cluster.size(); ++n) {
      AcpEngine& e = cluster.engine(NodeId(n));
      if (e.active_coordinations() != 0 || e.active_participations() != 0) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) break;
    sim.run_for(Duration::seconds(1));
  }

  ExperimentResult r;
  // The meter counts transactions; scale to namespace operations.
  r.ops_per_second =
      meter.events_per_second_over(cfg.run_for - cfg.warmup) * cfg.batch;
  r.committed = workload.committed();
  r.aborted = workload.aborted();
  r.lost = workload.lost();
  for (std::uint32_t i = 0; i < cluster.size(); ++i) {
    r.latency.merge(cluster.engine(NodeId(i)).client_latency());
  }
  const auto violations = cluster.check_invariants(workload.dirs());
  r.invariant_violations = violations.size();
  r.violation_report = render_violations(violations);
  if (cluster.history() != nullptr) {
    r.serializable = cluster.history()->serializable();
  }
  r.coordinator_disk_busy = disk_busy;
  r.trace_hash = trace.history_hash();
  r.stats = stats;
  if (cfg.trace) {
    r.trace_events = trace.events();
    r.phases = phases;
  }
  return r;
}

}  // namespace opc
