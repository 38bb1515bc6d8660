// The per-MDS atomic-commitment engine.
//
// One AcpEngine runs on every metadata server and plays both roles —
// coordinator for transactions submitted to this node, worker for
// transactions coordinated elsewhere — for all five protocols (PrN, PrC,
// EP, 1PC, PrA).  The engine is one choreography; what differs per protocol
// is read from its ProtocolTraits row (acp/protocol.h) and nowhere else.
// The normal-case message/logging choreography lives in engine.cc; crash
// recovery, decision retry and the 1PC fencing path live in
// engine_recovery.cc.  DESIGN.md §4 tabulates the per-protocol costs the
// engine is instrumented to reproduce.
//
// Concurrency model: the engine is a set of event callbacks over the
// deterministic simulator — no threads, no blocking.  Every wait (lock
// grant, disk durability, message arrival, timeout) is a continuation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "acp/config.h"
#include "core/arena.h"
#include "core/flat.h"
#include "acp/messages.h"
#include "acp/protocol.h"
#include "acp/services.h"
#include "env/env.h"
#include "env/transport.h"
#include "lock/lock_manager.h"
#include "mds/store.h"
#include "obs/phase.h"
#include "stats/histogram.h"
#include "txn/serializability.h"
#include "wal/log_writer.h"

namespace opc {

class AcpEngine {
 public:
  /// Client completion callback: outcome of a submitted transaction.
  using ClientCallback = std::function<void(TxnId, TxnOutcome)>;

  AcpEngine(Env& env, NodeId self, ProtocolKind proto, AcpConfig cfg,
            Transport& net, LogWriter& wal, LockManager& locks,
            MetaStore& store, SharedStorage& storage, StatsRegistry& stats,
            TraceRecorder& trace,
            FencingService* fencing = nullptr,
            HistoryRecorder* history = nullptr,
            obs::PhaseLog* phases = nullptr);

  AcpEngine(const AcpEngine&) = delete;
  AcpEngine& operator=(const AcpEngine&) = delete;

  /// Submits a transaction with this node as coordinator (participants[0]
  /// must be this node).  Assigns and returns the transaction id.  The
  /// callback fires exactly once in the normal case; if this node crashes
  /// mid-transaction it may never fire (the client's timeout problem, by
  /// design).  While recovery is in progress, submissions queue behind the
  /// re-driven transactions (paper §III-D ordering rule).
  TxnId submit(Transaction txn, ClientCallback cb);

  /// Network ingress; the cluster attaches this to the Network.
  void on_message(Envelope env);

  /// Crash: all volatile protocol state (transactions in flight, timers,
  /// locks, caches, lazy log buffer) evaporates.
  void crash();

  /// Reboot-time recovery: scans this node's log partition and re-drives
  /// every unfinished transaction per the protocol's recovery rules.
  /// `on_done` fires when the scan completes and queued submissions drain.
  void recover(std::function<void()> on_done = nullptr);

  /// Failure-detector hint: `peer` is suspected dead.  Triggers the 1PC
  /// fencing recovery for transactions blocked on that worker, and makes
  /// new transactions against it fail fast (safe: nothing was sent yet).
  void suspect(NodeId peer);

  /// Failure-detector all-clear: heartbeats from `peer` resumed.
  void clear_suspicion(NodeId peer) { suspected_.erase(peer); }

  // --- Introspection (tests, benches) ---
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] ProtocolKind protocol() const { return proto_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::size_t active_coordinations() const {
    return coord_.size();
  }
  [[nodiscard]] std::size_t active_participations() const {
    return work_.size();
  }
  /// Worker-state pool: objects ever allocated, and those parked for reuse.
  /// Without a leak, created stays at the peak of active_participations().
  [[nodiscard]] std::size_t work_pool_created() const {
    return work_pool_.created();
  }
  [[nodiscard]] std::size_t work_pool_parked() const {
    return work_pool_.parked();
  }
  [[nodiscard]] std::optional<TxnOutcome> outcome_of(TxnId txn) const;
  [[nodiscard]] const Histogram& client_latency() const { return latency_; }
  [[nodiscard]] std::uint64_t committed_count() const { return committed_; }
  [[nodiscard]] std::uint64_t aborted_count() const { return aborted_; }
  /// Transactions whose outcome this engine remembers (never pruned).
  [[nodiscard]] std::size_t finished_count() const { return finished_.size(); }

 private:
  // ---- per-transaction coordinator state ----
  enum class CoordPhase : std::uint8_t {
    kLocking,
    kForcingStart,
    kUpdating,        // local updates + waiting for workers' UPDATED
    kVoting,          // PrN/PrC: PREPARE round outstanding
    kForcingCommit,
    kWaitingAcks,     // PrN commit / any-protocol abort: ACKs outstanding
    kDone,
  };
  struct CoordTxn {
    Transaction txn;
    ProtocolKind proto;
    ClientCallback cb;
    CoordPhase phase = CoordPhase::kLocking;
    std::vector<ObjectId> lock_objs;
    std::size_t locks_granted = 0;
    SmallVec<std::uint32_t, 4> updated;   // workers that answered UPDATED
    SmallVec<std::uint32_t, 4> prepared;  // workers that voted PREPARED
    SmallVec<std::uint32_t, 4> acked;
    bool own_prepare_durable = false;
    bool mem_committed = false;
    bool replied = false;
    bool aborting = false;
    bool recovered = false;   // re-driven by reboot recovery
    bool fencing = false;     // 1PC recovery against the worker in progress
    bool reqs_sent = false;   // UPDATE_REQs actually left this node
    SimTime submitted;
    TimerHandle response_timer;
    TimerHandle retry_timer;

    /// Returns a pool-recycled object to its just-constructed state while
    /// keeping container capacity warm.
    void reset() {
      txn.id = 0;
      txn.participants.clear();
      cb = nullptr;
      phase = CoordPhase::kLocking;
      lock_objs.clear();
      locks_granted = 0;
      updated.clear();
      prepared.clear();
      acked.clear();
      own_prepare_durable = mem_committed = false;
      replied = aborting = recovered = fencing = reqs_sent = false;
      submitted = SimTime{};
      response_timer = TimerHandle{};
      retry_timer = TimerHandle{};
    }
  };

  // ---- per-transaction worker state ----
  enum class WorkPhase : std::uint8_t {
    kLocking,
    kUpdating,
    kUpdated,    // PrN/PrC: updates done, voting phase not yet started
    kPrepared,   // waiting for the decision
    kCommitted,  // 1PC: waiting for ACK
    kDone,
  };
  struct WorkTxn {
    TxnId id = 0;
    NodeId coord;
    ProtocolKind proto = ProtocolKind::kPrN;
    std::vector<Operation> ops;
    WorkPhase phase = WorkPhase::kLocking;
    std::vector<ObjectId> lock_objs;
    std::size_t locks_granted = 0;
    bool recovered = false;       // reconstructed from the log on reboot
    bool prepare_forced = false;  // a PREPARED record was sent to disk
    TimerHandle retry_timer;

    void reset() {
      id = 0;
      coord = NodeId{};
      proto = ProtocolKind::kPrN;
      ops.clear();
      phase = WorkPhase::kLocking;
      lock_objs.clear();
      locks_granted = 0;
      recovered = prepare_forced = false;
      retry_timer = TimerHandle{};
    }
  };

  // ---- coordinator path (engine.cc) ----
  void start_coordination(CoordTxn& ct);
  void acquire_next_lock(TxnId id);
  void force_started(TxnId id);
  void run_local_updates(TxnId id);
  void send_update_reqs(TxnId id);
  void on_updated(TxnId id, const Msg& m);
  void enter_voting(TxnId id);
  void maybe_commit(TxnId id);
  void on_commit_durable(TxnId id);
  void on_all_acked(TxnId id);
  void abort_coordination(TxnId id, const std::string& why);
  void finish_coordination(TxnId id, TxnOutcome outcome);
  void reply_client(CoordTxn& ct, TxnOutcome outcome);
  void arm_response_timer(TxnId id);
  void on_response_timeout(TxnId id);

  // ---- worker path (engine.cc) ----
  // Non-const: the envelope owns the Msg, so the ops vector is moved
  // into the WorkTxn instead of copied.
  void worker_handle_update_req(Msg& m);
  void worker_acquire_next_lock(TxnId id);
  void worker_run_updates(TxnId id);
  void worker_after_updates(TxnId id);
  // Both read the worker's protocol: EP's prepare answers UPDATED, 1PC's
  // commit folds in the updates and answers UPDATED, presumed-commit
  // protocols write COMMITTED lazily.
  void worker_prepare(TxnId id);
  void worker_commit(TxnId id);
  void worker_handle_prepare_req(const Msg& m);
  void worker_handle_commit(const Msg& m);
  void worker_handle_abort(const Msg& m);
  void worker_veto(TxnId id, MsgType reply_type, const std::string& why);

  // ---- recovery (engine_recovery.cc) ----
  void recover_from_records(const std::vector<LogRecord>& records,
                            std::function<void()> on_done);
  void recover_coordinator_txn(TxnId id, const std::vector<LogRecord>& recs);
  void recover_worker_txn(TxnId id, const std::vector<LogRecord>& recs);
  void redrive_transaction(Transaction txn);
  void start_fencing_recovery(TxnId id);
  void on_worker_log_batch(NodeId worker,
                           const std::vector<LogRecord>& records);
  void on_worker_log_read(TxnId id, NodeId worker,
                          const std::vector<LogRecord>& records);
  void handle_decision_req(const Msg& m);
  void handle_decision(const Msg& m);
  void handle_ack_req(const Msg& m);
  /// Re-announces a decision found in the log after a reboot: protocols
  /// that collect ACKs for it keep a coordination open until they arrive,
  /// the others notify once and forget.
  void resend_logged_decision(Transaction txn, ProtocolKind proto,
                              TxnOutcome outcome);
  void maybe_finish_recovery();
  void arm_worker_retry(TxnId id, MsgType ask);

  // ---- shared helpers ----
  void send(NodeId to, Msg m, bool extra, bool critical);
  void send_decision_round(CoordTxn& ct, MsgType type);
  [[nodiscard]] LogRecord state_record(RecordType t, TxnId txn) const;
  /// ENDED with the outcome in the payload.  A coordinator writes ENDED for
  /// both outcomes, and because the write is lazy it can land *after* the
  /// checkpoint truncated the transaction — leaving ENDED as the only
  /// surviving record.  Recovery must not guess the outcome from its bare
  /// presence (an aborted transaction misread as committed lets a zombie
  /// prepared worker commit — an atomicity violation the chaos checkers
  /// catch), so the record carries it.
  [[nodiscard]] LogRecord ended_record(TxnId txn, TxnOutcome outcome) const;
  [[nodiscard]] LogRecord update_record(TxnId txn,
                                        const std::vector<Operation>& ops) const;
  /// What a coordinator with no trace of `proto` transaction answers: the
  /// protocol's presumption about a missing log record.
  [[nodiscard]] static TxnOutcome presumed_outcome(ProtocolKind proto);
  /// The message that tells workers a commit is final: COMMIT, or for 1PC
  /// (whose worker has already committed) the ACK it holds its log for.
  [[nodiscard]] static MsgType commit_notice(ProtocolKind proto);
  [[nodiscard]] static LockMode mode_for(const std::vector<Operation>& ops,
                                         ObjectId obj);
  [[nodiscard]] std::vector<ObjectId> sorted_objects(
      const std::vector<Operation>& ops) const;
  /// Allocation-free variant: refills `out` in place, reusing its capacity.
  void sorted_objects_into(const std::vector<Operation>& ops,
                           std::vector<ObjectId>& out) const;
  void record_accesses(TxnId txn, const std::vector<Operation>& ops);
  [[nodiscard]] TxnId make_txn_id();
  [[nodiscard]] CoordTxn* coord_of(TxnId id);
  [[nodiscard]] WorkTxn* work_of(TxnId id);
  void run_local_fastpath(TxnId id);

  // ---- pooled txn-state lifecycle ----
  // acquire a reset object from the pool and index it; the id must be new.
  CoordTxn& new_coord(TxnId id);
  WorkTxn& new_work(TxnId id);
  // unindex and park the object (capacity kept) for the next transaction.
  void destroy_coord(TxnId id);
  void destroy_work(TxnId id);

  Env& env_;
  NodeId self_;
  ProtocolKind proto_;
  AcpConfig cfg_;
  Transport& net_;
  LogWriter& wal_;
  LockManager& locks_;
  MetaStore& store_;
  SharedStorage& storage_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  FencingService* fencing_;
  HistoryRecorder* history_;
  obs::PhaseLog* phases_;  // observability side-channel; null = disabled

  // Phase-boundary annotation for the span assembler (docs/OBSERVABILITY.md
  // §3).  Off by default and never feeds trace_, so the determinism hash
  // and the hot path are untouched: one pointer compare when disabled.
  void phase_mark(TxnId id, obs::PhaseId p, bool enter) {
    if (phases_ != nullptr) {
      phases_->log(env_.now(), self_, id, p, enter);
    }
  }

  bool crashed_ = false;
  bool recovering_ = false;  // until every recovered txn reaches a decision
  bool scanning_ = false;    // until the reboot log scan has been processed
  std::deque<Envelope> deferred_msgs_;  // arrived while scanning
  std::size_t recovery_outstanding_ = 0;
  std::function<void()> recovery_done_cb_;
  std::uint64_t next_local_txn_ = 0;
  std::uint64_t crash_epoch_ = 0;

  // Hot-path txn tables: open-addressing id → pooled-object pointer.  The
  // pools park finished CoordTxn/WorkTxn bodies with their vectors'
  // capacity intact, so steady-state coordination never touches the heap.
  FlatMap<TxnId, CoordTxn*> coord_;
  FlatMap<TxnId, WorkTxn*> work_;
  FlatMap<TxnId, TxnOutcome> finished_;
  Pool<CoordTxn> coord_pool_;
  Pool<WorkTxn> work_pool_;
  std::deque<std::pair<Transaction, ClientCallback>> queued_submissions_;
  std::unordered_set<NodeId> suspected_;
  // Fencing recoveries batched per worker: one STONITH + one log scan
  // serves every transaction blocked on that worker.
  std::unordered_map<NodeId, std::vector<TxnId>> fence_waiters_;

  Histogram latency_;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;

  // Hot-path counter handles (lazy-bound; see stats/counters.h).
  Counter c_msg_total_;
  Counter c_msgs_extra_;
  Counter c_committed_;
  Counter c_aborted_;
  // One per NamespaceOpKind, indexed by the enum value.
  Counter c_submitted_[4];
};

}  // namespace opc
