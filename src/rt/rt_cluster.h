// Real-time cluster: N MdsNodes on RtEnv workers, one per node.
//
// A thin driver over the one cluster wiring (src/cluster/cluster.h): it
// owns the executor (RtEnv), the fabric (RtTransport) and a private
// StatsRegistry / TraceRecorder per node, confined to that node's worker
// and merged once the run is quiescent.  run_storm's closed loop is one
// PlannedSource (src/workload/source.h) per node, on that node's worker.
//
// v1 scope is the quiescent live storm: heartbeats off, fencing absent,
// no crash injection — the protocols' normal-case paths at real speed.
// Chaos and recovery exercises stay on the simulator, where faults are
// deterministic and replayable (docs/RUNTIME.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "mds/invariants.h"
#include "rt/rt_env.h"
#include "rt/rt_transport.h"
#include "rt/storm_plan.h"
#include "stats/histogram.h"
#include "stats/meter.h"

namespace opc {

struct RtClusterConfig {
  std::uint32_t n_nodes = 2;
  ProtocolKind protocol = ProtocolKind::kOnePC;
  NetworkConfig net;  // delays applied as real timer delays
  DiskConfig disk;
  WalConfig wal;
  AcpConfig acp;  // keep timeouts disabled: the storm runs quiescent
  std::uint64_t seed = 1;
};

class RtCluster {
 public:
  explicit RtCluster(RtClusterConfig cfg);
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  struct StormResult {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    Histogram latency;    // client-visible commit latency, merged
    // All nodes + transport, merged, plus the workers' dispatch lateness
    // (RtEnv::dispatch_lateness): rt.timer.fired, rt.timer.late_p50_ns,
    // rt.timer.late_p99_ns, and their spin time, rt.timer.spin_ns.
    StatsRegistry stats;
    double wall_seconds = 0.0;
    double ops_per_second = 0.0;
  };

  /// Runs the plan as a closed loop with `concurrency` outstanding
  /// transactions per node; blocks until every node drained its share (or
  /// `max_wall` elapsed, when nonzero — in-flight work still drains) and
  /// the cluster is quiescent.  Call at most once per RtCluster.
  StormResult run_storm(const StormPlan& plan, std::uint32_t concurrency,
                        Duration max_wall = Duration::zero());

  /// Folds every node's engine results and sinks, the transport's counters,
  /// the executor's rt.timer.* gauges and the per-transaction table sizes
  /// (mds.unflushed, mds.stable_applied, acp.finished, wal.live_records)
  /// into one StormResult (wall_seconds and ops_per_second stay 0).  Call
  /// only while the env is quiescent (after env().wait_idle()).
  [[nodiscard]] StormResult fold_results();

  [[nodiscard]] std::uint32_t size() const { return cluster_.size(); }
  [[nodiscard]] MdsNode& node(NodeId id) { return cluster_.node(id); }
  [[nodiscard]] RtEnv& env() { return env_; }

  /// Seeds a directory inode on its home MDS (call before run_storm).
  void bootstrap_directory(ObjectId dir, NodeId home) {
    cluster_.bootstrap_directory(dir, home);
  }

  [[nodiscard]] std::vector<const MetaStore*> stores() const {
    return cluster_.stores();
  }
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const {
    return cluster_.check_invariants(roots);
  }

 private:
  // One node's sinks, touched only on its worker.
  struct Sinks {
    StatsRegistry stats;
    TraceRecorder trace{false};
    ThroughputMeter meter;  // run_storm's commits
  };

  std::vector<Cluster::Sinks> node_sinks();

  RtEnv env_;
  RtTransport net_;
  // SharedStorage's own sinks (each partition reports to its node's).
  StatsRegistry storage_stats_;
  TraceRecorder storage_trace_{false};
  std::vector<Sinks> sinks_;
  Cluster cluster_;
};

}  // namespace opc
