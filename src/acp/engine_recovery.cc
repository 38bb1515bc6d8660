// Crash recovery, decision retry and the 1PC fencing path (paper §II-C,
// §III-C).  Normal-case choreography lives in engine.cc.
#include <algorithm>
#include <map>
#include <optional>

#include "acp/engine.h"
#include "sim/check.h"

namespace opc {
namespace {

bool is_state(RecordType t) {
  switch (t) {
    case RecordType::kStarted:
    case RecordType::kPrepared:
    case RecordType::kCommitted:
    case RecordType::kAborted:
    case RecordType::kEnded:
      return true;
    default:
      return false;
  }
}

std::optional<RecordType> last_state_in(const std::vector<LogRecord>& recs,
                                        TxnId txn) {
  std::optional<RecordType> last;
  for (const LogRecord& r : recs) {
    if (r.txn == txn && is_state(r.type)) last = r.type;
  }
  return last;
}

/// Outcome recorded in the latest ENDED record (see ended_record()).  An
/// ENDED without a payload predates the outcome byte and can only have been
/// written on the 1PC worker commit path, so commit is the right default.
TxnOutcome ended_outcome(const std::vector<LogRecord>& recs, TxnId txn) {
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    if (it->txn == txn && it->type == RecordType::kEnded) {
      return (!it->payload.empty() && it->payload[0] == 0)
                 ? TxnOutcome::kAborted
                 : TxnOutcome::kCommitted;
    }
  }
  return TxnOutcome::kCommitted;
}

/// Worker-side PREPARED/COMMITTED records carry [coordinator:u32,
/// proto:u8] so a rebooted worker knows whom to ask and how to finish.
void parse_worker_payload(const LogRecord& rec, NodeId& coord,
                          ProtocolKind& proto) {
  SIM_CHECK_MSG(rec.payload.size() >= 5, "worker state record payload short");
  std::uint32_t c = 0;
  for (int i = 0; i < 4; ++i) {
    c |= static_cast<std::uint32_t>(rec.payload[static_cast<std::size_t>(i)])
         << (8 * i);
  }
  coord = NodeId(c);
  SIM_CHECK_MSG(rec.payload[4] < std::size(kProtocolTraits),
                "worker state record names no protocol");
  proto = static_cast<ProtocolKind>(rec.payload[4]);
}

}  // namespace

void AcpEngine::recover(std::function<void()> on_done) {
  SIM_CHECK_MSG(crashed_, "recover() without a preceding crash()");
  crashed_ = false;
  wal_.reboot();
  recovering_ = true;
  scanning_ = true;
  recovery_outstanding_ = 0;
  recovery_done_cb_ = std::move(on_done);
  trace_.record(env_.now(), TraceKind::kReboot, self_.str(),
                "scanning own log");
  stats_.add("acp.recoveries");
  const std::uint64_t epoch = crash_epoch_;
  storage_.read_partition(self_, self_,
                          [this, epoch](std::vector<LogRecord> recs) {
                            if (epoch != crash_epoch_ || crashed_) return;
                            recover_from_records(recs, nullptr);
                          });
}

void AcpEngine::recover_from_records(const std::vector<LogRecord>& records,
                                     std::function<void()> /*unused*/) {
  // Group per transaction, preserving first-appearance (== arrival) order so
  // re-driven transactions respect the paper's §III-D ordering rule.
  std::vector<TxnId> order;
  std::map<TxnId, std::vector<LogRecord>> per_txn;
  for (const LogRecord& r : records) {
    if (r.txn == 0) continue;
    if (!per_txn.contains(r.txn)) order.push_back(r.txn);
    per_txn[r.txn].push_back(r);
  }
  for (TxnId id : order) {
    const auto& recs = per_txn[id];
    const bool coordinator_role = std::any_of(
        recs.begin(), recs.end(),
        [](const LogRecord& r) { return r.type == RecordType::kStarted; });
    if (coordinator_role) {
      recover_coordinator_txn(id, recs);
    } else {
      recover_worker_txn(id, recs);
    }
  }
  // Scan done: transaction state is rebuilt, so deferred traffic can now be
  // answered from knowledge instead of absence.
  scanning_ = false;
  auto deferred = std::move(deferred_msgs_);
  deferred_msgs_.clear();
  for (Envelope& env : deferred) on_message(std::move(env));
  maybe_finish_recovery();
}

void AcpEngine::recover_coordinator_txn(TxnId id,
                                        const std::vector<LogRecord>& recs) {
  const auto state = last_state_in(recs, id);
  SIM_CHECK(state.has_value());
  trace_.record(env_.now(), TraceKind::kRecoveryStep, self_.str(),
                "coordinator log state " +
                    std::string(record_type_name(*state)),
                id);

  // The STARTED record payload carries the whole transaction.
  Transaction txn;
  {
    auto it = std::find_if(recs.begin(), recs.end(), [](const LogRecord& r) {
      return r.type == RecordType::kStarted;
    });
    SIM_CHECK(it != recs.end());
    SIM_CHECK_MSG(decode_txn(it->payload, txn),
                  "corrupt STARTED payload");
  }
  const ProtocolKind proto = choose_protocol(proto_, txn.n_participants());

  switch (*state) {
    case RecordType::kEnded:
      checkpoint(id);
      remember_outcome(id, ended_outcome(recs, id));
      return;

    case RecordType::kStarted:
      if (traits(proto).commit_on_update) {
        // Paper §III-C: re-execute from the redo record.
        stats_.add("acp.recovery.redrive");
        redrive_transaction(std::move(txn));
        return;
      }
      // 2PC family: the updates died with the cache; abort (paper §II-C).
      // Presumed abort writes no record: workers that miss the ABORT learn
      // the outcome from the missing log state.
      stats_.add("acp.recovery.abort_from_started");
      if (!traits(proto).silent_abort) {
        wal_.lazy(state_record(RecordType::kAborted, id),
                  WriteTag{"abort", false});
      }
      if (history_ != nullptr) history_->record_abort(id);
      resend_logged_decision(std::move(txn), proto, TxnOutcome::kAborted);
      return;

    case RecordType::kPrepared: {
      // Resume the protocol: re-collect votes, then commit normally.  The
      // cached local updates are gone; on_commit_durable() replays them
      // from the transaction body (ct.recovered selects the replay path).
      stats_.add("acp.recovery.resume_from_prepared");
      CoordTxn& ct = new_coord(id);
      ct.txn = std::move(txn);
      ct.proto = proto;
      ct.recovered = true;
      ct.replied = true;
      ct.own_prepare_durable = true;
      ct.submitted = env_.now();
      ct.phase = CoordPhase::kLocking;
      sorted_objects_into(ct.txn.participants.front().ops, ct.lock_objs);
      ++recovery_outstanding_;
      acquire_next_lock(id);  // -> enter_voting once re-locked
      return;
    }

    case RecordType::kCommitted:
      // COMMITTED durable implies the stable apply already ran (they share
      // one event) and the locks were released; only the decision
      // distribution can be outstanding.
      stats_.add("acp.recovery.resume_from_committed");
      store_.replay_committed(id, txn.participants.front().ops);
      resend_logged_decision(std::move(txn), proto, TxnOutcome::kCommitted);
      return;

    case RecordType::kAborted:
      stats_.add("acp.recovery.resume_from_aborted");
      resend_logged_decision(std::move(txn), proto, TxnOutcome::kAborted);
      return;

    default:
      SIM_CHECK_MSG(false, "unexpected coordinator log state");
  }
}

void AcpEngine::resend_logged_decision(Transaction txn, ProtocolKind proto,
                                       TxnOutcome outcome) {
  const TxnId id = txn.id;
  const bool commit = outcome == TxnOutcome::kCommitted;
  const MsgType type = commit ? commit_notice(proto) : MsgType::kAbort;
  const bool await_acks = commit ? traits(proto).commit_needs_acks()
                                 : !traits(proto).silent_abort;
  if (!await_acks) {
    // No ACKs to collect: notify once and forget.
    CoordTxn tmp;
    tmp.txn = std::move(txn);
    tmp.proto = proto;
    send_decision_round(tmp, type);
    checkpoint(id);
    remember_outcome(id, outcome);
    return;
  }
  // Keep resending the decision until every worker ACKs.
  CoordTxn& ct = new_coord(id);
  ct.txn = std::move(txn);
  ct.proto = proto;
  ct.recovered = true;
  ct.replied = true;  // the client connection died with the crash
  ct.aborting = !commit;
  ct.submitted = env_.now();
  ct.phase = CoordPhase::kWaitingAcks;
  ++recovery_outstanding_;
  send_decision_round(ct, type);
  arm_response_timer(id);
}

void AcpEngine::recover_worker_txn(TxnId id,
                                   const std::vector<LogRecord>& recs) {
  const auto state = last_state_in(recs, id);
  if (!state.has_value()) {
    checkpoint(id);
    return;
  }
  trace_.record(env_.now(), TraceKind::kRecoveryStep, self_.str(),
                "worker log state " + std::string(record_type_name(*state)),
                id);

  // Coordinator state records carry no worker payload.  Finding one here —
  // in a group with no STARTED — means the coordinator already finished and
  // checkpointed this transaction, and a force that was still in flight at
  // the checkpoint landed afterwards as a tombstone.  The disk is FIFO, so a
  // tombstone PREPARED can only outlive the checkpoint when no COMMITTED
  // force was ever queued behind it: the coordination aborted.  (A committed
  // coordination's tombstone is the COMMITTED record itself.)
  if ((*state == RecordType::kPrepared ||
       *state == RecordType::kCommitted)) {
    auto it = std::find_if(recs.rbegin(), recs.rend(), [&](const LogRecord& r) {
      return r.type == *state;
    });
    SIM_CHECK(it != recs.rend());
    if (it->payload.size() < 5) {
      stats_.add("acp.recovery.coordinator_tombstone");
      if (*state == RecordType::kPrepared) aborted_txns_.insert(id);
      checkpoint(id);
      return;
    }
  }

  switch (*state) {
    case RecordType::kPrepared: {
      stats_.add("acp.recovery.worker_prepared");
      NodeId coord;
      ProtocolKind proto{};
      auto it = std::find_if(recs.begin(), recs.end(), [](const LogRecord& r) {
        return r.type == RecordType::kPrepared;
      });
      SIM_CHECK(it != recs.end());
      parse_worker_payload(*it, coord, proto);

      WorkTxn& wt = new_work(id);
      wt.id = id;
      wt.coord = coord;
      wt.proto = proto;
      wt.recovered = true;
      wt.phase = WorkPhase::kLocking;
      for (const LogRecord& r : recs) {
        if (r.type != RecordType::kUpdate) continue;
        std::vector<Operation> ops;
        SIM_CHECK_MSG(decode_ops(r.payload, ops), "corrupt UPDATE payload");
        wt.ops.insert(wt.ops.end(), ops.begin(), ops.end());
      }
      sorted_objects_into(wt.ops, wt.lock_objs);
      // Re-protect the prepared objects, then chase the decision (paper
      // §II-C: the worker asks the coordinator to resend it).
      worker_acquire_next_lock(id);
      return;
    }

    case RecordType::kCommitted: {
      stats_.add("acp.recovery.worker_committed");
      NodeId coord;
      ProtocolKind proto{};
      auto it = std::find_if(recs.begin(), recs.end(), [](const LogRecord& r) {
        return r.type == RecordType::kCommitted;
      });
      SIM_CHECK(it != recs.end());
      parse_worker_payload(*it, coord, proto);
      if (traits(proto).commit_on_update) {
        // Paper §III-C: ask the coordinator to resend the ACKNOWLEDGE so
        // the log can be finalized.
        WorkTxn& wt = new_work(id);
        wt.id = id;
        wt.coord = coord;
        wt.proto = proto;
        wt.recovered = true;
        wt.phase = WorkPhase::kCommitted;
        Msg m;
        m.type = MsgType::kAckReq;
        m.txn = id;
        m.proto = proto;
        send(coord, std::move(m), /*extra=*/true, /*critical=*/false);
        arm_worker_retry(id, MsgType::kAckReq);
        return;
      }
      // 2PC family: nothing to do (paper §II-C); a duplicate COMMIT for a
      // transaction this worker no longer tracks is re-ACKed.
      checkpoint(id);
      return;
    }

    case RecordType::kAborted:
      aborted_txns_.insert(id);
      checkpoint(id);
      return;

    case RecordType::kEnded:
      remember_outcome(id, ended_outcome(recs, id));
      checkpoint(id);
      return;

    default:
      SIM_CHECK_MSG(false, "unexpected worker log state");
  }
}

void AcpEngine::redrive_transaction(Transaction txn) {
  const TxnId id = txn.id;
  CoordTxn& ct = new_coord(id);
  ct.txn = std::move(txn);
  ct.proto = choose_protocol(proto_, ct.txn.n_participants());
  ct.recovered = true;
  ct.replied = true;  // client is gone; outcome is recorded, not delivered
  ct.submitted = env_.now();
  ++recovery_outstanding_;
  start_coordination(ct);
}

void AcpEngine::arm_worker_retry(TxnId id, MsgType ask) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  env_.cancel(wt->retry_timer);
  const std::uint64_t epoch = crash_epoch_;
  wt->retry_timer =
      env_.schedule_after(cfg_.retry_interval, [this, id, ask, epoch] {
        if (epoch != crash_epoch_) return;
        WorkTxn* w = work_of(id);
        if (w == nullptr) return;
        Msg m;
        m.type = ask;
        m.txn = id;
        m.proto = w->proto;
        m.nudge = true;  // retries are never the first transmission
        send(w->coord, std::move(m), /*extra=*/true, /*critical=*/false);
        arm_worker_retry(id, ask);
      });
}

void AcpEngine::suspect(NodeId peer) {
  if (crashed_) return;
  suspected_.insert(peer);
  std::vector<TxnId> affected;
  coord_.for_each([&](TxnId id, const CoordTxn* ct) {
    if (traits(ct->proto).commit_on_update &&
        ct->phase == CoordPhase::kUpdating && !ct->fencing &&
        ct->txn.sole_worker() == peer) {
      affected.push_back(id);
    }
  });
  for (TxnId id : affected) start_fencing_recovery(id);
}

void AcpEngine::start_fencing_recovery(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr || ct->fencing || ct->aborting) return;
  SIM_CHECK_MSG(fencing_ != nullptr,
                "1PC recovery requires a fencing service");
  ct->fencing = true;
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  // choose_protocol keeps 1PC two-party, so the fence target is unique.
  const NodeId worker = ct->txn.sole_worker();
  trace_.record(env_.now(), TraceKind::kRecoveryStep, self_.str(),
                "fencing " + worker.str() + " to read its log", id);

  // Batch: one STONITH round + one log scan answers every transaction
  // blocked on this worker.
  auto& waiters = fence_waiters_[worker];
  waiters.push_back(id);
  if (waiters.size() > 1) return;

  stats_.add("acp.onepc.fencing_recoveries");
  const std::uint64_t epoch = crash_epoch_;
  if (cfg_.unsafe_skip_fencing) {
    // TEST-ONLY bug (see AcpConfig): read the foreign log without STONITH.
    // If the worker is merely partitioned it can still commit after this
    // read — divergence the chaos oracles must catch.
    storage_.read_partition(
        self_, worker, [this, worker, epoch](std::vector<LogRecord> recs) {
          if (epoch != crash_epoch_ || crashed_) return;
          on_worker_log_batch(worker, recs);
        });
    return;
  }
  auto fenced_cb = [this, worker, epoch] {
    if (epoch != crash_epoch_ || crashed_) return;
    storage_.read_partition(
        self_, worker, [this, worker, epoch](std::vector<LogRecord> recs) {
          if (epoch != crash_epoch_ || crashed_) return;
          on_worker_log_batch(worker, recs);
        });
  };
  OPC_ASSERT_INLINE_CB(fenced_cb);
  fencing_->fence_and_isolate(self_, worker, std::move(fenced_cb));
}

void AcpEngine::on_worker_log_batch(NodeId worker,
                                    const std::vector<LogRecord>& records) {
  // The snapshot is in hand; the fenced worker may now be repaired.
  if (!cfg_.unsafe_skip_fencing) fencing_->release(self_, worker);
  auto it = fence_waiters_.find(worker);
  if (it == fence_waiters_.end()) return;
  const std::vector<TxnId> waiting = std::move(it->second);
  fence_waiters_.erase(it);
  for (TxnId id : waiting) on_worker_log_read(id, worker, records);
}

void AcpEngine::on_worker_log_read(TxnId id, NodeId worker,
                                   const std::vector<LogRecord>& records) {
  (void)worker;
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  if (ct->phase != CoordPhase::kUpdating) return;  // resolved concurrently
  ct->fencing = false;
  const auto state = last_state_in(records, id);
  const bool committed =
      state.has_value() &&
      (*state == RecordType::kCommitted ||
       (*state == RecordType::kEnded &&
        ended_outcome(records, id) == TxnOutcome::kCommitted));
  trace_.record(env_.now(), TraceKind::kRecoveryStep, self_.str(),
                committed ? "fenced log shows COMMITTED -> commit"
                          : "fenced log empty -> abort",
                id);
  if (committed) {
    stats_.add("acp.onepc.fence_commit");
    if (!ct->mem_committed) {
      ct->mem_committed = true;
      if (ct->recovered) {
        store_.replay_committed(id, ct->txn.participants.front().ops);
      } else {
        store_.commit_mem(id);
      }
      locks_.release_all(id);
      if (history_ != nullptr) history_->record_commit(id);
      reply_client(*ct, TxnOutcome::kCommitted);
    }
    ct->phase = CoordPhase::kForcingCommit;
    std::vector<LogRecord> recs = wal_.checkout_recs();
    recs.push_back(update_record(id, ct->txn.participants.front().ops));
    recs.push_back(state_record(RecordType::kCommitted, id));
    const std::uint64_t epoch = crash_epoch_;
    wal_.force(std::move(recs), WriteTag{"commit", /*critical=*/false},
               [this, id, epoch] {
                 if (epoch != crash_epoch_) return;
                 on_commit_durable(id);
               });
  } else {
    stats_.add("acp.onepc.fence_abort");
    abort_coordination(id, "fenced worker had not committed");
  }
}

void AcpEngine::handle_decision_req(const Msg& m) {
  const TxnId id = m.txn;
  if (CoordTxn* ct = coord_of(id); ct != nullptr) {
    if (ct->aborting) {
      Msg r;
      r.type = MsgType::kDecision;
      r.txn = id;
      r.proto = ct->proto;
      r.outcome = TxnOutcome::kAborted;
      send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
      return;
    }
    if (ct->phase == CoordPhase::kWaitingAcks || ct->mem_committed) {
      Msg r;
      r.type = MsgType::kDecision;
      r.txn = id;
      r.proto = ct->proto;
      r.outcome = TxnOutcome::kCommitted;
      send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
      return;
    }
    if (ct->phase == CoordPhase::kVoting) {
      // A DECISION_REQ proves the worker prepared (its vote got lost).
      ct->prepared.insert_unique(m.from.value());
      maybe_commit(id);
    }
    return;  // undecided; the worker keeps retrying
  }
  if (aborted_txns_.contains(id)) {
    Msg r;
    r.type = MsgType::kDecision;
    r.txn = id;
    r.proto = m.proto;
    r.outcome = TxnOutcome::kAborted;
    send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  // No trace of the transaction, or a forgotten commit: apply the
  // protocol's presumption (paper §II-D: a finalized PrC log means commit;
  // PrN presumes abort, and no PrN worker asks after the last ACK).
  Msg r;
  r.type = MsgType::kDecision;
  r.txn = id;
  r.proto = m.proto;
  r.outcome = presumed_outcome(m.proto);
  stats_.add("acp.decision.presumed");
  send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
}

void AcpEngine::handle_decision(const Msg& m) {
  const TxnId id = m.txn;
  WorkTxn* wt = work_of(id);
  if (wt == nullptr || wt->phase != WorkPhase::kPrepared) return;
  env_.cancel(wt->retry_timer);
  wt->retry_timer = TimerHandle{};
  if (m.outcome == TxnOutcome::kCommitted) {
    worker_commit(id);
  } else {
    SIM_CHECK_MSG(!store_.stable_applied(id),
                  "abort decision for a transaction already stable");
    store_.abort_txn(id);
    locks_.release_all(id);
    wal_.lazy(state_record(RecordType::kAborted, id),
              WriteTag{"abort", false});
    aborted_txns_.insert(id);
    destroy_work(id);
  }
}

void AcpEngine::handle_ack_req(const Msg& m) {
  const TxnId id = m.txn;
  if (coord_of(id) != nullptr) return;  // still committing; ACK will follow
  // Finished or forgotten: either way the worker may finalize.
  Msg r;
  r.type = MsgType::kAck;
  r.txn = id;
  r.proto = m.proto;
  send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
}

void AcpEngine::maybe_finish_recovery() {
  if (!recovering_ || recovery_outstanding_ > 0) return;
  recovering_ = false;
  trace_.record(env_.now(), TraceKind::kRecoveryStep, self_.str(),
                "recovery complete; draining " +
                    std::to_string(queued_submissions_.size()) +
                    " queued submissions");
  auto queued = std::move(queued_submissions_);
  queued_submissions_.clear();
  for (auto& [txn, cb] : queued) {
    const TxnId id = txn.id;
    stats_.add("acp.submitted");
    if (coord_.contains(id)) continue;
    CoordTxn& ct = new_coord(id);
    ct.txn = std::move(txn);
    ct.proto = choose_protocol(proto_, ct.txn.n_participants());
    if (ct.txn.n_participants() > 2) {
      stats_.add("acp.txn.wide");
      if (ct.proto != proto_) stats_.add("acp.onepc.degraded");
    }
    ct.cb = std::move(cb);
    ct.submitted = env_.now();
    start_coordination(ct);
  }
  if (recovery_done_cb_) {
    auto cb = std::move(recovery_done_cb_);
    recovery_done_cb_ = nullptr;
    cb();
  }
}

}  // namespace opc
