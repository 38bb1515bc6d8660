// Cluster wiring: N metadata servers over one transport and one shared
// storage device, with failure-injection controls.  This is the only code
// that builds MdsNodes; the simulator and the real-time backend (src/rt)
// differ only in the Env, the Transport, the stats/trace sinks and whether
// a fencing service exists, all passed in as data.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "acp/config.h"
#include "acp/protocol.h"
#include "cluster/fencing.h"
#include "env/sim_env.h"
#include "net/network.h"
#include "cluster/node.h"
#include "mds/invariants.h"
#include "txn/serializability.h"

namespace opc {

struct ClusterConfig {
  std::uint32_t n_nodes = 4;
  ProtocolKind protocol = ProtocolKind::kOnePC;
  NetworkConfig net;       // paper: 100 µs latency
  DiskConfig disk;         // paper: 400 KB/s log devices
  WalConfig wal;
  AcpConfig acp;
  HeartbeatConfig heartbeat;
  FencingConfig fencing;
  bool record_history = false;  // feed the serializability checker
  std::uint64_t seed = 1;
  // Observability opt-in: when set, every engine logs protocol phase
  // boundaries here for post-run span assembly (docs/OBSERVABILITY.md §3).
  // Null (the default) keeps the hot path at a single pointer compare and
  // leaves trace hashes and bench baselines untouched.
  obs::PhaseLog* phase_log = nullptr;
};

class Cluster {
 public:
  /// Where a component's counters and trace events go.
  struct Sinks {
    StatsRegistry& stats;
    TraceRecorder& trace;
  };

  /// Simulated cluster: owns a SimEnv over `sim`, the Network built from
  /// `cfg.net`, and the STONITH controller; every node reports into
  /// `stats` / `trace`.
  Cluster(Simulator& sim, ClusterConfig cfg, StatsRegistry& stats,
          TraceRecorder& trace);

  /// The same nodes over a caller-owned executor and transport (`cfg.net`
  /// is unused), without a fencing service.  Node i reports into
  /// `node_sinks[i]`; the shared storage and the cluster's own trace
  /// events go to `sinks`.  The real-time backend wires this way (src/rt).
  Cluster(Env& env, Transport& net, ClusterConfig cfg, Sinks sinks,
          const std::vector<Sinks>& node_sinks);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] MdsNode& node(NodeId id) {
    return *nodes_.at(id.value());
  }
  [[nodiscard]] AcpEngine& engine(NodeId id) { return node(id).engine(); }
  [[nodiscard]] MetaStore& store(NodeId id) { return node(id).store(); }
  [[nodiscard]] SharedStorage& storage() { return storage_; }
  /// The simulated Network (checked: a cluster over a caller's transport
  /// has none).
  [[nodiscard]] Network& network() {
    SIM_CHECK_MSG(net_ != nullptr, "cluster has no simulated network");
    return *net_;
  }
  [[nodiscard]] Env& env() { return env_; }
  /// The STONITH controller (checked: only the simulated cluster fences).
  [[nodiscard]] StonithController& fencing() {
    SIM_CHECK_MSG(fencing_ != nullptr, "cluster has no fencing service");
    return *fencing_;
  }
  [[nodiscard]] HistoryRecorder* history() {
    return history_ ? &*history_ : nullptr;
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Submits a transaction to its coordinator's engine.
  TxnId submit(Transaction txn, AcpEngine::ClientCallback cb) {
    SIM_CHECK(!txn.participants.empty());
    return engine(txn.coordinator()).submit(std::move(txn), std::move(cb));
  }

  /// Seeds a directory inode on its home MDS (root directories etc.).
  void bootstrap_directory(ObjectId dir, NodeId home);

  // --- Failure injection ---
  // One-shot hooks plus first-class *scheduled* variants; the chaos
  // nemesis (src/chaos) compiles declarative fault schedules down to
  // these instead of ad-hoc lambdas.
  void crash_node(NodeId id);                  // no-op if already down
  void reboot_node(NodeId id,
                   std::function<void()> on_recovered = nullptr);
  void schedule_crash(NodeId id, Duration after,
                      Duration reboot_after = Duration::zero());
  void partition_pair(NodeId a, NodeId b) { network().sever_pair(a, b); }
  void heal_pair(NodeId a, NodeId b) { network().heal_pair(a, b); }
  /// Severs a<->b (or only a->b when `asymmetric`) during [from, until).
  /// `until` <= `from` means the partition stays until healed explicitly.
  void schedule_partition(NodeId a, NodeId b, Duration from, Duration until,
                          bool asymmetric = false);
  /// Multiplies node `id`'s log-device service times by `factor` during
  /// [from, until) — a slow/failing spindle, not a crash.
  void schedule_disk_degrade(NodeId id, Duration from, Duration until,
                             double factor);
  /// Suppresses node `id`'s outgoing heartbeats during [from, until): the
  /// node stays up but peers falsely suspect it (split-brain exercise).
  void schedule_heartbeat_mute(NodeId id, Duration from, Duration until);

  /// Stable-state snapshot of every MDS, for the invariant checker.
  [[nodiscard]] std::vector<const MetaStore*> stores() const;

  /// Runs the namespace invariant checker over all stable state.
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const;

 private:
  /// Builds, peers and starts the nodes (and the history recorder, when
  /// configured); node i reports into sinks[i].
  void add_nodes(const std::vector<Sinks>& sinks);

  std::optional<SimEnv> sim_env_;  // engaged when built over a Simulator
  Env& env_;
  ClusterConfig cfg_;
  TraceRecorder& trace_;
  std::optional<HistoryRecorder> history_;  // engaged iff record_history
  std::unique_ptr<Network> net_;            // simulated cluster only
  Transport& transport_;
  SharedStorage storage_;
  std::unique_ptr<StonithController> fencing_;  // simulated cluster only
  std::vector<std::unique_ptr<MdsNode>> nodes_;
};

}  // namespace opc
