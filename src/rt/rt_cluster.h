// Real-time cluster: N MdsNodes on RtEnv workers, one per node.
//
// The exact components the simulated Cluster wires — MdsNode, AcpEngine,
// LogWriter, LockManager, SharedStorage — run unmodified; only the
// executor (RtEnv) and the fabric (RtTransport) differ.  Each node gets a
// private StatsRegistry / TraceRecorder and a log partition whose disk
// model reports into them, so every mutable sink is confined to one worker
// thread; results are merged after the run goes quiescent.
//
// v1 scope is the quiescent live storm: heartbeats off, fencing absent,
// no crash injection — the protocols' normal-case paths at real speed.
// Chaos and recovery exercises stay on the simulator, where faults are
// deterministic and replayable (docs/RUNTIME.md §4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/node.h"
#include "mds/invariants.h"
#include "rt/rt_env.h"
#include "rt/rt_transport.h"
#include "rt/storm_plan.h"
#include "stats/histogram.h"

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
    // rt.timer.late_p99_ns.
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

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] MdsNode& node(NodeId id) { return *nodes_.at(id.value())->node; }
  [[nodiscard]] RtEnv& env() { return env_; }

  /// Seeds a directory inode on its home MDS (call before run_storm).
  void bootstrap_directory(ObjectId dir, NodeId home);

  [[nodiscard]] std::vector<const MetaStore*> stores() const;
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const;

 private:
  struct PerNode {
    StatsRegistry stats;
    TraceRecorder trace{false};
    std::unique_ptr<MdsNode> node;
    // Closed-loop state; touched only on this node's worker thread.
    const std::vector<Transaction>* items = nullptr;
    std::size_t next = 0;
    std::uint32_t inflight = 0;
    bool signaled_done = false;
  };

  void pump(std::uint32_t i, std::uint32_t concurrency);
  void on_completion(std::uint32_t i, std::uint32_t concurrency);

  RtClusterConfig cfg_;
  RtEnv env_;
  RtTransport net_;
  // Sinks for SharedStorage itself (per-partition disks report into the
  // owning node's registry via the add_partition overload instead).
  StatsRegistry storage_stats_;
  TraceRecorder storage_trace_{false};
  SharedStorage storage_;
  std::vector<std::unique_ptr<PerNode>> nodes_;

  std::atomic<bool> stop_issuing_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint32_t nodes_done_ = 0;
};

}  // namespace opc
