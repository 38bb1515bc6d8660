// One simulated metadata server: store + locks + WAL + protocol engine,
// with a crash/reboot lifecycle and heartbeat emission.
#pragma once

#include <functional>
#include <memory>

#include "acp/engine.h"
#include "env/env.h"
#include "env/transport.h"
#include "lock/lock_manager.h"
#include "mds/store.h"
#include "wal/log_writer.h"

namespace opc {

struct HeartbeatConfig {
  bool enabled = false;
  Duration interval = Duration::millis(50);
  Duration suspicion_timeout = Duration::millis(250);
};

class MdsNode {
 public:
  MdsNode(Env& env, NodeId id, ProtocolKind proto, AcpConfig acp_cfg,
          WalConfig wal_cfg, HeartbeatConfig hb_cfg, Transport& net,
          SharedStorage& storage, LogPartition& partition,
          StatsRegistry& stats, TraceRecorder& trace, FencingService* fencing,
          HistoryRecorder* history, obs::PhaseLog* phases = nullptr);

  MdsNode(const MdsNode&) = delete;
  MdsNode& operator=(const MdsNode&) = delete;

  /// Attaches to the network and starts heartbeats.  Call once at startup
  /// and again implicitly via reboot().
  void start();

  /// Power-off: protocol state, locks, caches and lazy log writes vanish;
  /// the network drops traffic to this node from now on.
  void crash();

  /// Power-on after a crash: re-attach, scan the log, re-drive unfinished
  /// transactions (paper §II-C / §III-C).  `on_recovered` fires when the
  /// engine finishes its recovery scan.
  void reboot(std::function<void()> on_recovered = nullptr);

  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] NodeId id() const { return id_; }

  /// Chaos hook: while muted the node stays up and keeps serving, but
  /// stops *emitting* heartbeats — peers falsely suspect it, which is
  /// exactly the unreliable-failure-detection hazard (paper §III-A) that
  /// forces 1PC recovery to fence before reading a foreign log.
  void set_heartbeat_muted(bool muted) { hb_muted_ = muted; }
  [[nodiscard]] bool heartbeat_muted() const { return hb_muted_; }
  [[nodiscard]] AcpEngine& engine() { return engine_; }
  [[nodiscard]] MetaStore& store() { return store_; }
  [[nodiscard]] const MetaStore& store() const { return store_; }
  [[nodiscard]] LockManager& locks() { return locks_; }
  [[nodiscard]] LogWriter& wal() { return wal_; }

 private:
  void on_envelope(Envelope env);
  void schedule_heartbeat();
  void schedule_sweep();

  Env& env_;
  NodeId id_;
  HeartbeatConfig hb_cfg_;
  Transport& net_;
  SharedStorage& storage_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;

  MetaStore store_;
  LockManager locks_;
  LogWriter wal_;
  AcpEngine engine_;

  bool alive_ = false;
  bool hb_muted_ = false;
  std::uint64_t life_epoch_ = 0;  // invalidates timers across crash cycles
  std::unordered_map<NodeId, SimTime> last_heard_;
  std::unordered_map<NodeId, bool> suspected_;
  std::vector<NodeId> peers_;

 public:
  /// Cluster wiring: every other node's id (for heartbeat fan-out).
  void set_peers(std::vector<NodeId> peers) { peers_ = std::move(peers); }
};

}  // namespace opc
