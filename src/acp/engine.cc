#include "acp/engine.h"

#include <algorithm>
#include <utility>

#include "sim/check.h"

namespace opc {

AcpEngine::AcpEngine(Env& env, NodeId self, ProtocolKind proto,
                     AcpConfig cfg, Transport& net, LogWriter& wal,
                     LockManager& locks, MetaStore& store,
                     SharedStorage& storage, StatsRegistry& stats,
                     TraceRecorder& trace, FencingService* fencing,
                     HistoryRecorder* history, obs::PhaseLog* phases)
    : env_(env), self_(self), proto_(proto), cfg_(cfg), net_(net), wal_(wal),
      locks_(locks), store_(store), storage_(storage), stats_(stats),
      trace_(trace), fencing_(fencing), history_(history), phases_(phases),
      c_msg_total_(stats, "acp.msg.total"),
      c_msgs_extra_(stats, "acp.msgs.extra"),
      c_committed_(stats, "acp.committed"),
      c_aborted_(stats, "acp.aborted"),
      c_submitted_{Counter(stats, "acp.submitted.CREATE"),
                   Counter(stats, "acp.submitted.DELETE"),
                   Counter(stats, "acp.submitted.RENAME"),
                   Counter(stats, "acp.submitted.CUSTOM")} {}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

TxnId AcpEngine::make_txn_id() {
  // Globally unique and deterministic: node id in the high bits, a local
  // sequence number below.  Never zero.
  return (static_cast<TxnId>(self_.value() + 1) << 40) | ++next_local_txn_;
}

AcpEngine::CoordTxn* AcpEngine::coord_of(TxnId id) {
  CoordTxn* const* p = coord_.find(id);
  return p == nullptr ? nullptr : *p;
}

AcpEngine::WorkTxn* AcpEngine::work_of(TxnId id) {
  WorkTxn* const* p = work_.find(id);
  return p == nullptr ? nullptr : *p;
}

AcpEngine::CoordTxn& AcpEngine::new_coord(TxnId id) {
  CoordTxn* ct = coord_pool_.acquire();
  ct->reset();
  auto [slot, inserted] = coord_.try_emplace(id, ct);
  SIM_CHECK(inserted);
  return *ct;
}

AcpEngine::WorkTxn& AcpEngine::new_work(TxnId id) {
  WorkTxn* wt = work_pool_.acquire();
  wt->reset();
  auto [slot, inserted] = work_.try_emplace(id, wt);
  SIM_CHECK(inserted);
  return *wt;
}

void AcpEngine::destroy_coord(TxnId id) {
  if (CoordTxn** p = coord_.find(id)) {
    CoordTxn* ct = *p;
    coord_.erase(id);
    coord_pool_.release(ct);
  }
}

void AcpEngine::destroy_work(TxnId id) {
  if (WorkTxn** p = work_.find(id)) {
    WorkTxn* wt = *p;
    work_.erase(id);
    work_pool_.release(wt);
  }
}

std::optional<TxnOutcome> AcpEngine::outcome_of(TxnId txn) const {
  const TxnOutcome* p = finished_.find(txn);
  if (p == nullptr) return std::nullopt;
  return *p;
}

LockMode AcpEngine::mode_for(const std::vector<Operation>& ops, ObjectId obj) {
  for (const Operation& op : ops) {
    if (op.target == obj && !op_is_read(op.type)) return LockMode::kExclusive;
  }
  return LockMode::kShared;
}

std::vector<ObjectId> AcpEngine::sorted_objects(
    const std::vector<Operation>& ops) const {
  std::vector<ObjectId> out;
  sorted_objects_into(ops, out);
  return out;
}

void AcpEngine::sorted_objects_into(const std::vector<Operation>& ops,
                                    std::vector<ObjectId>& out) const {
  out.clear();
  for (const Operation& op : ops) {
    if (op.target.valid() &&
        std::find(out.begin(), out.end(), op.target) == out.end()) {
      out.push_back(op.target);
    }
  }
  // Canonical order prevents lock-order deadlocks between transactions that
  // meet on the same node.
  std::sort(out.begin(), out.end());
}

void AcpEngine::record_accesses(TxnId txn,
                                const std::vector<Operation>& ops) {
  if (history_ == nullptr) return;
  // A recovery re-drive of a transaction whose effects already reached
  // stable state re-runs the protocol, but its store effects are no-ops
  // (replay_committed is idempotent).  Recording fresh accesses for such a
  // re-drive would plant artificial late edges in the conflict order: the
  // txn can become stable_applied during recovery *before* its own
  // COMMITTED record is durable, so a second crash re-drives it yet again
  // long after unrelated transactions touched the same objects.
  if (store_.stable_applied(txn)) return;
  for (const Operation& op : ops) {
    if (op.target.valid()) {
      history_->record_access(txn, op.target, !op_is_read(op.type),
                              env_.now(), self_.value());
    }
  }
}

LogRecord AcpEngine::state_record(RecordType t, TxnId txn) const {
  LogRecord rec;
  rec.type = t;
  rec.txn = txn;
  rec.writer = self_;
  rec.modeled_bytes = cfg_.state_record_bytes;
  return rec;
}

LogRecord AcpEngine::ended_record(TxnId txn, TxnOutcome outcome) const {
  LogRecord rec = state_record(RecordType::kEnded, txn);
  rec.payload.push_back(outcome == TxnOutcome::kCommitted ? 1 : 0);
  return rec;
}

LogRecord AcpEngine::update_record(TxnId txn,
                                   const std::vector<Operation>& ops) const {
  LogRecord rec;
  rec.type = RecordType::kUpdate;
  rec.txn = txn;
  rec.writer = self_;
  encode_ops(ops, rec.payload);
  rec.modeled_bytes = 0;
  for (const Operation& op : ops) rec.modeled_bytes += op.log_bytes;
  return rec;
}

TxnOutcome AcpEngine::presumed_outcome(ProtocolKind proto) {
  // Only a nudged UPDATED or a DECISION_REQ reaches a presumption, and a 1PC
  // worker sends neither: it commits on update, never waits in kUpdated and
  // never writes the PREPARED record a reboot would chase a decision for.
  SIM_CHECK_MSG(!traits(proto).commit_on_update,
                "1PC worker asked for a presumed outcome");
  return traits(proto).presume_commit ? TxnOutcome::kCommitted
                                      : TxnOutcome::kAborted;
}

MsgType AcpEngine::commit_notice(ProtocolKind proto) {
  return traits(proto).commit_on_update ? MsgType::kAck : MsgType::kCommit;
}

void AcpEngine::send(NodeId to, Msg m, bool extra, bool critical) {
  m.from = self_;
  c_msg_total_.add();
  if (extra) {
    c_msgs_extra_.add();
    if (critical) stats_.add("acp.msgs.extra_critical");
  }
  Envelope env;
  env.from = self_;
  env.to = to;
  env.kind = msg_type_name(m.type);  // ≤15 chars: SSO, no allocation
  env.txn = m.txn;
  env.size_bytes = msg_wire_size(m);
  env.payload.emplace<Msg>(std::move(m));
  net_.send(std::move(env));
}

// ---------------------------------------------------------------------------
// Submission / coordinator side
// ---------------------------------------------------------------------------

TxnId AcpEngine::submit(Transaction txn, ClientCallback cb) {
  SIM_CHECK_MSG(!txn.participants.empty(), "transaction without participants");
  SIM_CHECK_MSG(txn.participants.front().node == self_,
                "submit target must be the coordinator");
  txn.id = make_txn_id();
  const TxnId id = txn.id;

  if (crashed_) {
    // The node is down; the client sees a connection failure after a
    // reconnect attempt (a realistic ~1 ms, which also stops closed loops
    // from spinning at event-queue speed against a dead server).
    stats_.add("acp.submit.to_crashed");
    if (cb) {
      env_.schedule_after(Duration::millis(1),
                          [id, cb = std::move(cb)] { cb(id, TxnOutcome::kAborted); });
    }
    return id;
  }
  if (recovering_) {
    // Paper §III-D: after a reboot the coordinator completes outstanding
    // transactions in arrival order before serving new requests.
    queued_submissions_.emplace_back(std::move(txn), std::move(cb));
    stats_.add("acp.submit.queued_behind_recovery");
    return id;
  }

  stats_.add("acp.submitted");
  c_submitted_[static_cast<std::size_t>(txn.kind)].add();

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
  return id;
}

void AcpEngine::start_coordination(CoordTxn& ct) {
  const TxnId id = ct.txn.id;
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kTxnBegin, self_.str(),
                  std::string(namespace_op_name(ct.txn.kind)) + " via " +
                      std::string(protocol_name(ct.proto)) +
                      (ct.txn.is_local() ? " (local)" : ""),
                  id);
  }
  phase_mark(id, obs::PhaseId::kLock, true);
  sorted_objects_into(ct.txn.participants.front().ops, ct.lock_objs);
  ct.phase = CoordPhase::kLocking;
  acquire_next_lock(id);
}

void AcpEngine::acquire_next_lock(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  if (ct->locks_granted == ct->lock_objs.size()) {
    phase_mark(id, obs::PhaseId::kLock, false);
    record_accesses(id, ct->txn.participants.front().ops);
    if (ct->txn.is_local()) {
      run_local_fastpath(id);
    } else if (ct->recovered && ct->own_prepare_durable) {
      // Reboot recovery from PREPARED: updates and vote are durable; only
      // the vote collection needs re-driving.
      enter_voting(id);
    } else if (ct->recovered) {
      // STARTED (and the 1PC redo record) is already durable from the
      // pre-crash run; go straight to re-execution.
      run_local_updates(id);
    } else {
      force_started(id);
    }
    return;
  }
  const ObjectId obj = ct->lock_objs[ct->locks_granted];
  const LockMode mode = mode_for(ct->txn.participants.front().ops, obj);
  const std::uint64_t epoch = crash_epoch_;
  locks_.acquire(
      id, obj.value(), mode,
      [this, id, epoch] {
        if (epoch != crash_epoch_) return;
        CoordTxn* c = coord_of(id);
        if (c == nullptr) return;
        ++c->locks_granted;
        acquire_next_lock(id);
      },
      cfg_.lock_timeout,
      [this, id, epoch] {
        if (epoch != crash_epoch_) return;
        CoordTxn* c = coord_of(id);
        if (c == nullptr) return;
        // Nothing is logged yet; drop the transaction quietly.
        phase_mark(id, obs::PhaseId::kLock, false);
        stats_.add("acp.abort.lock_timeout");
        locks_.release_all(id);
        if (history_ != nullptr) history_->record_abort(id);
        reply_client(*c, TxnOutcome::kAborted);
        if (trace_.active()) {
          trace_.record(env_.now(), TraceKind::kTxnAbort, self_.str(),
                        "lock timeout before start", id);
        }
        finished_[id] = TxnOutcome::kAborted;
        destroy_coord(id);
      });
}

void AcpEngine::run_local_fastpath(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  stats_.add("acp.local");
  for (const Operation& op : ct->txn.participants.front().ops) {
    const StoreStatus st = store_.apply(id, op);
    if (st != StoreStatus::kOk) {
      stats_.add("acp.abort.local_validation");
      store_.abort_txn(id);
      locks_.release_all(id);
      if (history_ != nullptr) history_->record_abort(id);
      reply_client(*ct, TxnOutcome::kAborted);
      finished_[id] = TxnOutcome::kAborted;
      destroy_coord(id);
      return;
    }
  }
  Duration compute = Duration::zero();
  bool read_only = true;
  for (const Operation& op : ct->txn.participants.front().ops) {
    compute += op.compute;
    read_only = read_only && op_is_read(op.type);
  }
  const std::uint64_t epoch = crash_epoch_;
  if (read_only) {
    // Read fast path: shared locks were enough, nothing to log.
    env_.schedule_after(compute, [this, id, epoch] {
      if (epoch != crash_epoch_) return;
      CoordTxn* c = coord_of(id);
      if (c == nullptr) return;
      stats_.add("acp.local.read_only");
      locks_.release_all(id);
      reply_client(*c, TxnOutcome::kCommitted);
      finish_coordination(id, TxnOutcome::kCommitted);
    });
    return;
  }
  env_.schedule_after(compute, [this, id, epoch] {
    if (epoch != crash_epoch_) return;
    CoordTxn* c = coord_of(id);
    if (c == nullptr) return;
    // Single node: one forced write carrying updates + COMMITTED is the
    // whole commit protocol.
    std::vector<LogRecord> recs = wal_.checkout_recs();
    recs.push_back(update_record(id, c->txn.participants.front().ops));
    recs.push_back(state_record(RecordType::kCommitted, id));
    wal_.force(std::move(recs), WriteTag{"local-commit", true},
               [this, id, epoch] {
                 if (epoch != crash_epoch_) return;
                 CoordTxn* c2 = coord_of(id);
                 if (c2 == nullptr) return;
                 store_.commit_txn(id);
                 locks_.release_all(id);
                 if (history_ != nullptr) history_->record_commit(id);
                 reply_client(*c2, TxnOutcome::kCommitted);
                 wal_.partition().truncate_txn(id);
                 finish_coordination(id, TxnOutcome::kCommitted);
               });
  });
}

void AcpEngine::force_started(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  ct->phase = CoordPhase::kForcingStart;
  std::vector<LogRecord> recs = wal_.checkout_recs();
  LogRecord started = state_record(RecordType::kStarted, id);
  encode_txn(ct->txn, started.payload);
  recs.push_back(std::move(started));
  if (traits(ct->proto).commit_on_update) {
    // Paper §III-B: the 1PC coordinator also logs a redo record for the
    // namespace operation so it can re-execute after a crash.
    LogRecord redo;
    redo.type = RecordType::kRedo;
    redo.txn = id;
    redo.writer = self_;
    encode_txn(ct->txn, redo.payload);
    redo.modeled_bytes = cfg_.redo_record_bytes + redo.payload.size();
    recs.push_back(std::move(redo));
  }
  const std::uint64_t epoch = crash_epoch_;
  phase_mark(id, obs::PhaseId::kStartForce, true);
  wal_.force(std::move(recs), WriteTag{"started", true}, [this, id, epoch] {
    if (epoch != crash_epoch_ || coord_of(id) == nullptr) return;
    phase_mark(id, obs::PhaseId::kStartForce, false);
    run_local_updates(id);
  });
}

void AcpEngine::run_local_updates(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  ct->phase = CoordPhase::kUpdating;
  phase_mark(id, obs::PhaseId::kLocalUpdate, true);
  // A re-driven 1PC transaction must not take the unilateral abort path:
  // the worker may already have committed.  Its local updates are not
  // cached — they replay from the redo record at commit time instead.
  if (!ct->recovered || !traits(ct->proto).commit_on_update) {
    for (const Operation& op : ct->txn.participants.front().ops) {
      const StoreStatus st = store_.apply(id, op);
      if (st != StoreStatus::kOk) {
        stats_.add("acp.abort.local_validation");
        abort_coordination(id, std::string("local ") + store_status_name(st));
        return;
      }
    }
  }
  Duration compute = Duration::zero();
  for (const Operation& op : ct->txn.participants.front().ops) {
    compute += op.compute;
  }
  const std::uint64_t epoch = crash_epoch_;
  env_.schedule_after(compute, [this, id, epoch] {
    if (epoch != crash_epoch_) return;
    phase_mark(id, obs::PhaseId::kLocalUpdate, false);
    send_update_reqs(id);
  });
}

void AcpEngine::send_update_reqs(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr || ct->aborting) return;
  const ProtocolTraits& t = traits(ct->proto);
  SIM_CHECK(!t.commit_on_update || ct->txn.n_participants() == 2);
  // Fast-fail against suspected-dead workers: nothing has been sent, so no
  // participant holds any state — a unilateral abort is always safe and
  // avoids burning a full response timeout (or a STONITH round) per
  // transaction while the worker is down.
  for (std::size_t i = 1; i < ct->txn.participants.size(); ++i) {
    if (!suspected_.contains(ct->txn.participants[i].node)) continue;
    if (ct->recovered && t.commit_on_update) {
      // The pre-crash run may have reached the worker; only its log can
      // decide the outcome.
      start_fencing_recovery(id);
    } else {
      stats_.add("acp.abort.suspected_worker");
      abort_coordination(id, "worker suspected down before send");
    }
    return;
  }
  ct->reqs_sent = true;
  phase_mark(id, obs::PhaseId::kUpdateRound, true);
  for (std::size_t i = 1; i < ct->txn.participants.size(); ++i) {
    const Participant& p = ct->txn.participants[i];
    Msg m;
    m.type = MsgType::kUpdateReq;
    m.txn = id;
    m.proto = ct->proto;
    m.ops = p.ops;
    send(p.node, std::move(m), /*extra=*/false, /*critical=*/false);
  }
  if (t.prepare_on_update) {
    // Early Prepare: the coordinator prepares in parallel with the workers'
    // combined update+prepare round.
    std::vector<LogRecord> recs = wal_.checkout_recs();
    recs.push_back(update_record(id, ct->txn.participants.front().ops));
    recs.push_back(state_record(RecordType::kPrepared, id));
    const std::uint64_t epoch = crash_epoch_;
    wal_.force(std::move(recs), WriteTag{"prepare", /*critical=*/false},
               [this, id, epoch] {
                 if (epoch != crash_epoch_) return;
                 CoordTxn* c = coord_of(id);
                 if (c == nullptr) return;
                 c->own_prepare_durable = true;
                 maybe_commit(id);
               });
  }
  arm_response_timer(id);
}

void AcpEngine::arm_response_timer(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  if (cfg_.response_timeout <= Duration::zero()) return;
  const std::uint64_t epoch = crash_epoch_;
  auto timeout_cb = [this, id, epoch] {
    if (epoch != crash_epoch_) return;
    on_response_timeout(id);
  };
  OPC_ASSERT_INLINE_CB(timeout_cb);
  ct->response_timer =
      env_.schedule_after(cfg_.response_timeout, std::move(timeout_cb));
}

void AcpEngine::on_response_timeout(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  stats_.add("acp.response_timeouts");
  switch (ct->phase) {
    case CoordPhase::kUpdating:
      if (traits(ct->proto).commit_on_update) {
        start_fencing_recovery(id);
      } else {
        stats_.add("acp.abort.update_timeout");
        abort_coordination(id, "worker update timeout");
      }
      break;
    case CoordPhase::kVoting:
      stats_.add("acp.abort.prepare_timeout");
      abort_coordination(id, "worker prepare timeout");
      break;
    case CoordPhase::kWaitingAcks:
      // Keep pushing the decision until every worker confirms.
      send_decision_round(*ct, ct->aborting ? MsgType::kAbort
                                            : MsgType::kCommit);
      arm_response_timer(id);
      break;
    default:
      break;
  }
}

void AcpEngine::send_decision_round(CoordTxn& ct, MsgType type) {
  for (std::size_t i = 1; i < ct.txn.participants.size(); ++i) {
    const NodeId node = ct.txn.participants[i].node;
    if (ct.acked.contains(node.value())) continue;
    Msg m;
    m.type = type;
    m.txn = ct.txn.id;
    m.proto = ct.proto;
    send(node, std::move(m), /*extra=*/true, /*critical=*/false);
  }
}

void AcpEngine::on_updated(TxnId id, const Msg& m) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) {
    // A nudged UPDATED for a transaction this coordinator no longer tracks
    // (PrA notifies aborts once and forgets; duplicates can outlive the
    // ACK round elsewhere): answer with the recorded or presumed decision
    // so the worker can release its locks.  First-transmission copies that
    // merely race the decision are dropped — the decision round in flight
    // already resolves that worker, and answering would tax every abort
    // with a redundant message.
    if (!m.nudge) return;
    const TxnOutcome* fin = finished_.find(id);
    const TxnOutcome out = fin != nullptr ? *fin : presumed_outcome(m.proto);
    Msg r;
    r.type = out == TxnOutcome::kCommitted ? MsgType::kCommit
                                           : MsgType::kAbort;
    r.txn = id;
    r.proto = m.proto;
    send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  if (ct->aborting) return;
  if (ct->phase != CoordPhase::kUpdating) return;  // stale duplicate
  ct->updated.insert_unique(m.from.value());
  if (m.prepared) ct->prepared.insert_unique(m.from.value());
  const std::size_t workers = ct->txn.participants.size() - 1;
  if (ct->updated.size() < workers) return;
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  phase_mark(id, obs::PhaseId::kUpdateRound, false);

  const ProtocolTraits& t = traits(ct->proto);
  if (t.vote_round()) {
    enter_voting(id);
    return;
  }
  if (t.prepare_on_update) {
    maybe_commit(id);
    return;
  }
  SIM_CHECK_MSG(m.committed, "1PC UPDATED must carry the worker commit");
  // Paper §III-B/D: the worker has committed, so this transaction can no
  // longer abort.  Reply to the client and release the locks NOW; the
  // coordinator's own commit proceeds off the critical path.
  ct->mem_committed = true;
  if (ct->recovered) {
    store_.replay_committed(id, ct->txn.participants.front().ops);
  } else {
    store_.commit_mem(id);
  }
  locks_.release_all(id);
  if (history_ != nullptr) history_->record_commit(id);
  reply_client(*ct, TxnOutcome::kCommitted);
  ct->phase = CoordPhase::kForcingCommit;
  phase_mark(id, obs::PhaseId::kCommitForce, true);
  std::vector<LogRecord> recs = wal_.checkout_recs();
  recs.push_back(update_record(id, ct->txn.participants.front().ops));
  recs.push_back(state_record(RecordType::kCommitted, id));
  const std::uint64_t epoch = crash_epoch_;
  wal_.force(std::move(recs), WriteTag{"commit", /*critical=*/false},
             [this, id, epoch] {
               if (epoch != crash_epoch_) return;
               on_commit_durable(id);
             });
}

void AcpEngine::enter_voting(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  ct->phase = CoordPhase::kVoting;
  phase_mark(id, obs::PhaseId::kVoteRound, true);
  for (std::size_t i = 1; i < ct->txn.participants.size(); ++i) {
    Msg m;
    m.type = MsgType::kPrepareReq;
    m.txn = id;
    m.proto = ct->proto;
    send(ct->txn.participants[i].node, std::move(m), /*extra=*/true,
         /*critical=*/true);
  }
  if (!ct->own_prepare_durable) {
    std::vector<LogRecord> recs = wal_.checkout_recs();
    recs.push_back(update_record(id, ct->txn.participants.front().ops));
    recs.push_back(state_record(RecordType::kPrepared, id));
    const std::uint64_t epoch = crash_epoch_;
    // Parallel with the workers' prepares, hence off the serial chain.
    wal_.force(std::move(recs), WriteTag{"prepare", /*critical=*/false},
               [this, id, epoch] {
                 if (epoch != crash_epoch_) return;
                 CoordTxn* c = coord_of(id);
                 if (c == nullptr) return;
                 c->own_prepare_durable = true;
                 maybe_commit(id);
               });
  }
  arm_response_timer(id);
}

void AcpEngine::maybe_commit(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr || ct->aborting) return;
  SIM_CHECK(!traits(ct->proto).commit_on_update);
  const std::size_t workers = ct->txn.participants.size() - 1;
  if (!ct->own_prepare_durable || ct->prepared.size() < workers) return;
  if (ct->phase == CoordPhase::kForcingCommit ||
      ct->phase == CoordPhase::kWaitingAcks ||
      ct->phase == CoordPhase::kDone) {
    return;  // already past the decision
  }
  ct->phase = CoordPhase::kForcingCommit;
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  // EP never entered the vote round; the assembler drops unmatched leaves.
  phase_mark(id, obs::PhaseId::kVoteRound, false);
  phase_mark(id, obs::PhaseId::kCommitForce, true);
  std::vector<LogRecord> recs = wal_.checkout_recs();
  recs.push_back(state_record(RecordType::kCommitted, id));
  const std::uint64_t epoch = crash_epoch_;
  wal_.force(std::move(recs), WriteTag{"commit", /*critical=*/true},
             [this, id, epoch] {
               if (epoch != crash_epoch_) return;
               on_commit_durable(id);
             });
}

void AcpEngine::on_commit_durable(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  phase_mark(id, obs::PhaseId::kCommitForce, false);
  const ProtocolTraits& t = traits(ct->proto);
  const bool await_acks = t.commit_needs_acks();
  if (t.commit_on_update) {
    // The client was answered when UPDATED arrived; this is the
    // off-critical-path tail: make it stable, then let the worker finalize.
    store_.commit_stable(id);
  } else {
    if (ct->recovered) {
      store_.replay_committed(id, ct->txn.participants.front().ops);
    } else {
      store_.commit_txn(id);
    }
    locks_.release_all(id);
    if (history_ != nullptr) history_->record_commit(id);
    if (await_acks) {
      // PrN/PrA: the client reply waits for the workers' ACKs.  (PrA
      // commits exactly like PrN — its savings are all on the abort path.)
      ct->phase = CoordPhase::kWaitingAcks;
      phase_mark(id, obs::PhaseId::kAckRound, true);
    } else {
      // Presume commit: reply to the client before the workers commit, send
      // the decision without waiting for acknowledgements, and finalize
      // (checkpoint) the log immediately — a later DECISION_REQ that finds
      // no log entry presumes commit.
      reply_client(*ct, TxnOutcome::kCommitted);
    }
  }
  for (std::size_t i = 1; i < ct->txn.participants.size(); ++i) {
    Msg m;
    m.type = commit_notice(ct->proto);
    m.txn = id;
    m.proto = ct->proto;
    send(ct->txn.participants[i].node, std::move(m), /*extra=*/true,
         /*critical=*/await_acks);
  }
  if (await_acks) {
    arm_response_timer(id);
    return;
  }
  wal_.partition().truncate_txn(id);
  finish_coordination(id, TxnOutcome::kCommitted);
}

void AcpEngine::on_all_acked(TxnId id) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  phase_mark(id, obs::PhaseId::kAckRound, false);
  const TxnOutcome outcome =
      ct->aborting ? TxnOutcome::kAborted : TxnOutcome::kCommitted;
  // Finalize: the log can be checkpointed and garbage collected.  The ENDED
  // write is asynchronous but still precedes the PrN client reply, which is
  // why Table I counts one async write on PrN's critical path.  The
  // truncate below claims the still-buffered ENDED when it lands
  // (LogPartition::append_durable), so the finalize marker never outlives
  // the checkpoint it announces.
  wal_.lazy(ended_record(id, outcome),
            WriteTag{"ended", outcome == TxnOutcome::kCommitted});
  reply_client(*ct, outcome);
  wal_.partition().truncate_txn(id);
  finish_coordination(id, outcome);
}

void AcpEngine::abort_coordination(TxnId id, const std::string& why) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr || ct->aborting) return;
  SIM_CHECK_MSG(!ct->mem_committed, "abort after commit point");
  ct->aborting = true;
  stats_.add("acp.aborts");
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kTxnAbort, self_.str(), why, id);
  }
  env_.cancel(ct->response_timer);
  ct->response_timer = TimerHandle{};
  store_.abort_txn(id);
  locks_.release_all(id);
  if (history_ != nullptr) history_->record_abort(id);
  reply_client(*ct, TxnOutcome::kAborted);
  if (traits(ct->proto).silent_abort) {
    // Presumed abort: no abort record, no acknowledgement round.  Workers
    // (and anyone asking later) infer abort from the absence of log state.
    if (ct->reqs_sent) send_decision_round(*ct, MsgType::kAbort);
    wal_.partition().truncate_txn(id);
    finish_coordination(id, TxnOutcome::kAborted);
    return;
  }
  // The abort record needs no force: on a crash the STARTED record alone
  // already drives recovery to the same abort decision.
  wal_.lazy(state_record(RecordType::kAborted, id),
            WriteTag{"abort", /*critical=*/false});
  // Workers only need the decision if they ever heard about the
  // transaction.
  const bool workers_contacted = ct->reqs_sent;
  if (ct->txn.is_local() || !workers_contacted) {
    wal_.partition().truncate_txn(id);
    finish_coordination(id, TxnOutcome::kAborted);
    return;
  }
  ct->phase = CoordPhase::kWaitingAcks;
  phase_mark(id, obs::PhaseId::kAckRound, true);
  if (ct->acked.size() >= ct->txn.participants.size() - 1) {
    // Every worker either vetoed (implicit ack) or already acknowledged.
    on_all_acked(id);
    return;
  }
  send_decision_round(*ct, MsgType::kAbort);
  arm_response_timer(id);
}

void AcpEngine::reply_client(CoordTxn& ct, TxnOutcome outcome) {
  if (ct.replied) return;
  ct.replied = true;
  if (outcome == TxnOutcome::kCommitted) {
    ++committed_;
  } else {
    ++aborted_;
  }
  if (!ct.recovered) latency_.record(env_.now() - ct.submitted);
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kClientReply, self_.str(),
                  outcome == TxnOutcome::kCommitted ? "committed" : "aborted",
                  ct.txn.id);
  }
  if (ct.cb) {
    // Detach from the current call stack so client logic (e.g. a closed
    // loop submitting the next transaction) runs as its own event.
    auto reply_cb = [cb = ct.cb, id = ct.txn.id, outcome] { cb(id, outcome); };
    OPC_ASSERT_INLINE_CB(reply_cb);
    env_.schedule_after(Duration::zero(), std::move(reply_cb));
  }
}

void AcpEngine::finish_coordination(TxnId id, TxnOutcome outcome) {
  CoordTxn* ct = coord_of(id);
  if (ct == nullptr) return;
  if (trace_.active()) {
    trace_.record(env_.now(),
                  outcome == TxnOutcome::kCommitted ? TraceKind::kTxnCommit
                                                    : TraceKind::kTxnAbort,
                  self_.str(), "finished", id);
  }
  if (outcome == TxnOutcome::kCommitted) {
    c_committed_.add();
  } else {
    c_aborted_.add();
  }
  env_.cancel(ct->response_timer);
  env_.cancel(ct->retry_timer);
  const bool was_recovered = ct->recovered;
  finished_[id] = outcome;
  destroy_coord(id);
  if (was_recovered && recovery_outstanding_ > 0) {
    --recovery_outstanding_;
    maybe_finish_recovery();
  }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

void AcpEngine::worker_handle_update_req(Msg& m) {
  const TxnId id = m.txn;
  if (WorkTxn* wt = work_of(id); wt != nullptr) {
    // Duplicate (coordinator recovery re-sent it).  Resend whatever we last
    // told the coordinator; if still working, stay quiet.
    if (wt->phase == WorkPhase::kPrepared) {
      // A worker rebuilt from its PREPARED record answers as a voter: the
      // UPDATED that carried an EP vote is a pre-crash message.
      const bool voted_on_update =
          !wt->recovered && traits(wt->proto).prepare_on_update;
      Msg r;
      r.type = voted_on_update ? MsgType::kUpdated : MsgType::kPrepared;
      r.txn = id;
      r.proto = wt->proto;
      r.prepared = true;
      send(wt->coord, std::move(r), /*extra=*/!voted_on_update,
           /*critical=*/false);
    } else if (wt->phase == WorkPhase::kCommitted) {
      Msg r;
      r.type = MsgType::kUpdated;
      r.txn = id;
      r.proto = wt->proto;
      r.prepared = true;
      r.committed = true;
      send(wt->coord, std::move(r), /*extra=*/false, /*critical=*/false);
    }
    return;
  }
  if (const TxnOutcome* fin = finished_.find(id); fin != nullptr) {
    Msg r;
    r.txn = id;
    r.proto = m.proto;
    if (*fin == TxnOutcome::kCommitted) {
      r.type = MsgType::kUpdated;
      r.prepared = true;
      r.committed = true;
      send(m.from, std::move(r), /*extra=*/false, /*critical=*/false);
    } else {
      r.type = MsgType::kNotUpdated;
      send(m.from, std::move(r), /*extra=*/false, /*critical=*/false);
    }
    return;
  }

  stats_.add("acp.worker.update_reqs");
  WorkTxn& wt = new_work(id);
  wt.id = id;
  wt.coord = m.from;
  wt.proto = m.proto;
  wt.ops = std::move(m.ops);
  wt.phase = WorkPhase::kLocking;
  sorted_objects_into(wt.ops, wt.lock_objs);
  phase_mark(id, obs::PhaseId::kWorkerLock, true);
  worker_acquire_next_lock(id);
}

void AcpEngine::worker_acquire_next_lock(TxnId id) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  if (wt->locks_granted == wt->lock_objs.size()) {
    phase_mark(id, obs::PhaseId::kWorkerLock, false);
    record_accesses(id, wt->ops);
    if (wt->recovered) {
      // Reboot recovery from PREPARED: the objects are re-protected; now
      // chase the decision (paper §II-C).
      wt->phase = WorkPhase::kPrepared;
      Msg m;
      m.type = MsgType::kDecisionReq;
      m.txn = id;
      m.proto = wt->proto;
      send(wt->coord, std::move(m), /*extra=*/true, /*critical=*/false);
      arm_worker_retry(id, MsgType::kDecisionReq);
    } else {
      worker_run_updates(id);
    }
    return;
  }
  const ObjectId obj = wt->lock_objs[wt->locks_granted];
  const LockMode mode = mode_for(wt->ops, obj);
  const std::uint64_t epoch = crash_epoch_;
  locks_.acquire(
      id, obj.value(), mode,
      [this, id, epoch] {
        if (epoch != crash_epoch_) return;
        WorkTxn* w = work_of(id);
        if (w == nullptr) return;
        ++w->locks_granted;
        worker_acquire_next_lock(id);
      },
      cfg_.lock_timeout,
      [this, id, epoch] {
        if (epoch != crash_epoch_) return;
        stats_.add("acp.worker.lock_timeouts");
        worker_veto(id, MsgType::kNotUpdated, "lock timeout");
      });
}

void AcpEngine::worker_run_updates(TxnId id) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  wt->phase = WorkPhase::kUpdating;
  phase_mark(id, obs::PhaseId::kWorkerUpdate, true);
  for (const Operation& op : wt->ops) {
    const StoreStatus st = store_.apply(id, op);
    if (st != StoreStatus::kOk) {
      stats_.add("acp.worker.validation_vetoes");
      worker_veto(id, MsgType::kNotUpdated,
                  std::string("validation ") + store_status_name(st));
      return;
    }
  }
  Duration compute = Duration::zero();
  for (const Operation& op : wt->ops) compute += op.compute;
  const std::uint64_t epoch = crash_epoch_;
  env_.schedule_after(compute, [this, id, epoch] {
    if (epoch != crash_epoch_) return;
    worker_after_updates(id);
  });
}

void AcpEngine::worker_after_updates(TxnId id) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  phase_mark(id, obs::PhaseId::kWorkerUpdate, false);
  const ProtocolTraits& t = traits(wt->proto);
  if (t.commit_on_update) {
    // 1PC: commit immediately; the UPDATED reply doubles as the vote and
    // the commit confirmation.
    worker_commit(id);
  } else if (t.prepare_on_update) {
    // EP: prepare now; UPDATED doubles as the PREPARED vote.
    worker_prepare(id);
  } else {
    wt->phase = WorkPhase::kUpdated;
    Msg r;
    r.type = MsgType::kUpdated;
    r.txn = id;
    r.proto = wt->proto;
    send(wt->coord, std::move(r), /*extra=*/false, /*critical=*/false);
    // The UPDATED reply — or the decision it provokes — can be lost, and a
    // PrA coordinator announces aborts only once before forgetting.  Keep
    // nudging until the vote round or a decision moves us out of kUpdated;
    // a coordinator with no memory of the transaction answers from its
    // log presumption.
    if (cfg_.response_timeout > Duration::zero()) {
      const std::uint64_t epoch = crash_epoch_;
      env_.cancel(wt->retry_timer);
      wt->retry_timer = env_.schedule_after(
          cfg_.response_timeout, [this, id, epoch] {
            if (epoch != crash_epoch_) return;
            WorkTxn* w = work_of(id);
            if (w == nullptr || w->phase != WorkPhase::kUpdated) return;
            Msg nudge;
            nudge.type = MsgType::kUpdated;
            nudge.txn = id;
            nudge.proto = w->proto;
            nudge.nudge = true;
            send(w->coord, std::move(nudge), /*extra=*/true,
                 /*critical=*/false);
            arm_worker_retry(id, MsgType::kUpdated);
          });
    }
  }
}

void AcpEngine::worker_prepare(TxnId id) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  std::vector<LogRecord> recs = wal_.checkout_recs();
  recs.push_back(update_record(id, wt->ops));
  LogRecord prepared = state_record(RecordType::kPrepared, id);
  // Remember the coordinator and protocol: a rebooted worker must know whom
  // to ask for the decision and how to finish.
  for (int i = 0; i < 4; ++i) {
    prepared.payload.push_back(
        static_cast<std::uint8_t>(wt->coord.value() >> (8 * i)));
  }
  prepared.payload.push_back(static_cast<std::uint8_t>(wt->proto));
  recs.push_back(std::move(prepared));
  wt->prepare_forced = true;
  const std::uint64_t epoch = crash_epoch_;
  phase_mark(id, obs::PhaseId::kWorkerPrepareForce, true);
  wal_.force(std::move(recs), WriteTag{"prepare", /*critical=*/true},
             [this, id, epoch] {
               if (epoch != crash_epoch_) return;
               WorkTxn* w = work_of(id);
               if (w == nullptr) return;
               w->phase = WorkPhase::kPrepared;
               phase_mark(id, obs::PhaseId::kWorkerPrepareForce, false);
               // EP votes with UPDATED; the others answer PREPARE_REQ.
               const bool on_update = traits(w->proto).prepare_on_update;
               Msg r;
               r.type = on_update ? MsgType::kUpdated : MsgType::kPrepared;
               r.txn = id;
               r.proto = w->proto;
               r.prepared = true;
               send(w->coord, std::move(r), /*extra=*/!on_update,
                    /*critical=*/!on_update);
               // A prepared worker must not block forever if the decision
               // gets lost (PrC/EP send COMMIT fire-and-forget): poll the
               // coordinator after the response budget expires.
               if (cfg_.response_timeout > Duration::zero()) {
                 env_.cancel(w->retry_timer);
                 w->retry_timer = env_.schedule_after(
                     cfg_.response_timeout, [this, id, epoch] {
                       if (epoch != crash_epoch_) return;
                       WorkTxn* w2 = work_of(id);
                       if (w2 == nullptr || w2->phase != WorkPhase::kPrepared) {
                         return;
                       }
                       Msg ask;
                       ask.type = MsgType::kDecisionReq;
                       ask.txn = id;
                       ask.proto = w2->proto;
                       send(w2->coord, std::move(ask), /*extra=*/true,
                            /*critical=*/false);
                       arm_worker_retry(id, MsgType::kDecisionReq);
                     });
               }
             });
}

void AcpEngine::worker_commit(TxnId id) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  const ProtocolTraits& t = traits(wt->proto);
  env_.cancel(wt->retry_timer);  // decision arrived; stop polling
  wt->retry_timer = TimerHandle{};
  LogRecord committed = state_record(RecordType::kCommitted, id);
  for (int i = 0; i < 4; ++i) {
    committed.payload.push_back(
        static_cast<std::uint8_t>(wt->coord.value() >> (8 * i)));
  }
  committed.payload.push_back(static_cast<std::uint8_t>(wt->proto));
  const std::uint64_t epoch = crash_epoch_;
  auto complete = [this, id, epoch] {
    if (epoch != crash_epoch_) return;
    WorkTxn* w = work_of(id);
    if (w == nullptr) return;
    // Lazy-path calls never entered the phase; that leave is dropped.
    phase_mark(id, obs::PhaseId::kWorkerCommitForce, false);
    if (w->recovered) {
      store_.replay_committed(id, w->ops);
    } else {
      store_.commit_txn(id);
    }
    locks_.release_all(id);
    const ProtocolTraits& tw = traits(w->proto);
    if (tw.commit_on_update) {
      // 1PC: committed; hold the log open until the coordinator's ACK.
      w->phase = WorkPhase::kCommitted;
      Msg r;
      r.type = MsgType::kUpdated;
      r.txn = id;
      r.proto = w->proto;
      r.prepared = true;
      r.committed = true;
      send(w->coord, std::move(r), /*extra=*/false, /*critical=*/false);
      if (cfg_.response_timeout > Duration::zero()) {
        arm_worker_retry(id, MsgType::kAckReq);
      }
    } else if (tw.commit_needs_acks()) {
      Msg r;
      r.type = MsgType::kAck;
      r.txn = id;
      r.proto = w->proto;
      send(w->coord, std::move(r), /*extra=*/true, /*critical=*/true);
      wal_.partition().truncate_txn(id);
      finished_[id] = TxnOutcome::kCommitted;
      destroy_work(id);
    } else {  // PrC / EP: no acknowledgement
      finished_[id] = TxnOutcome::kCommitted;
      destroy_work(id);
    }
  };

  if (!t.presume_commit) {
    std::vector<LogRecord> recs = wal_.checkout_recs();
    if (t.commit_on_update && !wt->recovered) {
      // 1PC folds the update images into the same forced block as the
      // COMMITTED record — the single critical-path write at the worker.
      recs.push_back(update_record(id, wt->ops));
    }
    recs.push_back(std::move(committed));
    phase_mark(id, obs::PhaseId::kWorkerCommitForce, true);
    wal_.force(std::move(recs), WriteTag{"commit", /*critical=*/true},
               std::move(complete));
  } else {
    // PrC/EP worker: COMMITTED may be written lazily (presumed commit).
    wal_.lazy(std::move(committed), WriteTag{"commit", /*critical=*/false});
    complete();
  }
}

void AcpEngine::worker_handle_prepare_req(const Msg& m) {
  const TxnId id = m.txn;
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) {
    if (const TxnOutcome* fin = finished_.find(id);
        fin != nullptr && *fin == TxnOutcome::kCommitted) {
      // Already committed and forgotten: the coordinator must have lost our
      // earlier reply; only COMMIT/ACK remains meaningful.
      Msg r;
      r.type = MsgType::kPrepared;
      r.txn = id;
      r.proto = m.proto;
      send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
      return;
    }
    // Rebooted before preparing: nothing in the log, vote no (paper §II-C).
    Msg r;
    r.type = MsgType::kNotPrepared;
    r.txn = id;
    r.proto = m.proto;
    send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  if (wt->phase == WorkPhase::kPrepared) {
    Msg r;
    r.type = MsgType::kPrepared;
    r.txn = id;
    r.proto = wt->proto;
    send(wt->coord, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  if (wt->phase == WorkPhase::kUpdated) {
    worker_prepare(id);
  }
  // Still locking/updating: the PREPARE raced ahead of our UPDATED reply;
  // it will be answered when the update phase completes.
}

void AcpEngine::worker_handle_commit(const Msg& m) {
  const TxnId id = m.txn;
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) {
    // Paper §II-C: a COMMIT for an unknown transaction means we committed
    // and checkpointed before the coordinator got our ACK.  Re-ACK.
    Msg r;
    r.type = MsgType::kAck;
    r.txn = id;
    r.proto = m.proto;
    send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  if (wt->phase != WorkPhase::kPrepared) return;  // still preparing; decision
                                                  // will re-arrive via retry
  worker_commit(id);
}

void AcpEngine::worker_handle_abort(const Msg& m) {
  const TxnId id = m.txn;
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) {
    // Presumed abort never waits for abort ACKs, so don't send one.
    if (traits(m.proto).silent_abort) return;
    Msg r;
    r.type = MsgType::kAck;
    r.txn = id;
    r.proto = m.proto;
    send(m.from, std::move(r), /*extra=*/true, /*critical=*/false);
    return;
  }
  stats_.add("acp.worker.aborts");
  env_.cancel(wt->retry_timer);
  store_.abort_txn(id);
  locks_.release_all(id);
  if (traits(wt->proto).silent_abort) {
    // Presumed abort: drop the prepared state, write nothing, ACK nothing.
    wal_.partition().truncate_txn(id);
    finished_[id] = TxnOutcome::kAborted;
    destroy_work(id);
    return;
  }
  if (wt->prepare_forced || wt->recovered ||
      wt->phase == WorkPhase::kPrepared) {
    // Invalidate the prepare — even one still in flight: the disk is FIFO,
    // so this ABORTED lands after it.  Without the invalidation a late-
    // landing PREPARED outlives the acked abort, and the next reboot
    // re-drives it; under presumed-commit the forgotten coordinator would
    // then answer COMMIT for an aborted transaction.
    wal_.lazy(state_record(RecordType::kAborted, id),
              WriteTag{"abort", /*critical=*/false});
  }
  Msg r;
  r.type = MsgType::kAck;
  r.txn = id;
  r.proto = wt->proto;
  send(wt->coord, std::move(r), /*extra=*/true, /*critical=*/false);
  finished_[id] = TxnOutcome::kAborted;
  destroy_work(id);
}

void AcpEngine::worker_veto(TxnId id, MsgType reply_type,
                            const std::string& why) {
  WorkTxn* wt = work_of(id);
  if (wt == nullptr) return;
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kTxnAbort, self_.str(),
                  "worker veto: " + why, id);
  }
  store_.abort_txn(id);
  locks_.release_all(id);
  Msg r;
  r.type = reply_type;
  r.txn = id;
  r.proto = wt->proto;
  send(wt->coord, std::move(r), /*extra=*/false, /*critical=*/false);
  finished_[id] = TxnOutcome::kAborted;
  destroy_work(id);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void AcpEngine::on_message(Envelope env) {
  if (crashed_) return;  // the network normally drops these already
  if (scanning_) {
    // Until the reboot scan has rebuilt transaction state, any answer we
    // gave would be derived from *absence* of knowledge (presumed commits,
    // re-ACKs, fresh-looking duplicates) and could contradict what the log
    // is about to tell us.  Defer everything — the paper's rule that a
    // rebooted MDS completes outstanding work before serving requests.
    stats_.add("acp.msgs.deferred_during_scan");
    deferred_msgs_.push_back(std::move(env));
    return;
  }
  Msg& m = *env.payload.get<Msg>();
  switch (m.type) {
    case MsgType::kUpdateReq:
      worker_handle_update_req(m);
      break;
    case MsgType::kUpdated:
      on_updated(m.txn, m);
      break;
    case MsgType::kNotUpdated:
      stats_.add("acp.abort.worker_veto");
      // The vetoing worker already aborted locally; it needs no ABORT and
      // will send no ACK.
      if (CoordTxn* ct = coord_of(m.txn); ct != nullptr) {
        ct->acked.insert_unique(m.from.value());
      }
      abort_coordination(m.txn, "worker rejected update");
      break;
    case MsgType::kPrepareReq:
      worker_handle_prepare_req(m);
      break;
    case MsgType::kPrepared: {
      CoordTxn* ct = coord_of(m.txn);
      if (ct == nullptr || ct->aborting) break;
      ct->prepared.insert_unique(m.from.value());
      maybe_commit(m.txn);
      break;
    }
    case MsgType::kNotPrepared:
      stats_.add("acp.abort.worker_veto");
      if (CoordTxn* ct = coord_of(m.txn); ct != nullptr) {
        ct->acked.insert_unique(m.from.value());
      }
      abort_coordination(m.txn, "worker voted NOT-PREPARED");
      break;
    case MsgType::kCommit:
      worker_handle_commit(m);
      break;
    case MsgType::kAbort:
      worker_handle_abort(m);
      break;
    case MsgType::kAck: {
      if (CoordTxn* ct = coord_of(m.txn); ct != nullptr) {
        ct->acked.insert_unique(m.from.value());
        if (ct->acked.size() >= ct->txn.participants.size() - 1) {
          on_all_acked(m.txn);
        }
        break;
      }
      // 1PC worker receiving the coordinator's ACK.  The truncate claims
      // the lazily buffered ENDED when it becomes durable — see
      // LogPartition::append_durable.
      if (WorkTxn* wt = work_of(m.txn);
          wt != nullptr && wt->phase == WorkPhase::kCommitted) {
        env_.cancel(wt->retry_timer);
        wal_.lazy(ended_record(m.txn, TxnOutcome::kCommitted),
                  WriteTag{"ended", /*critical=*/false});
        wal_.partition().truncate_txn(m.txn);
        finished_[m.txn] = TxnOutcome::kCommitted;
        destroy_work(m.txn);
      }
      break;
    }
    case MsgType::kDecisionReq:
      handle_decision_req(m);
      break;
    case MsgType::kDecision:
      handle_decision(m);
      break;
    case MsgType::kAckReq:
      handle_ack_req(m);
      break;
  }
}

// ---------------------------------------------------------------------------
// Crash
// ---------------------------------------------------------------------------

void AcpEngine::crash() {
  SIM_CHECK(!crashed_);
  crashed_ = true;
  ++crash_epoch_;
  trace_.record(env_.now(), TraceKind::kCrash, self_.str(), "engine down");
  stats_.add("acp.crashes");
  coord_.for_each([this](TxnId id, CoordTxn* ct) {
    env_.cancel(ct->response_timer);
    env_.cancel(ct->retry_timer);
    // Accesses whose effects die with the cache are void for the conflict
    // order; a re-drive records fresh ones at their true position.
    if (history_ != nullptr && !store_.stable_applied(id)) {
      history_->drop_accesses(self_.value(), id);
    }
    coord_pool_.release(ct);
  });
  work_.for_each([this](TxnId id, WorkTxn* wt) {
    env_.cancel(wt->retry_timer);
    if (history_ != nullptr && !store_.stable_applied(id)) {
      history_->drop_accesses(self_.value(), id);
    }
    work_pool_.release(wt);
  });
  coord_.clear();
  work_.clear();
  finished_.clear();
  queued_submissions_.clear();
  deferred_msgs_.clear();
  // Holds this node took on other nodes' fences must not outlive it, or the
  // fenced workers could never reboot.
  if (fencing_ != nullptr) {
    for (const auto& [worker, waiters] : fence_waiters_) {
      (void)waiters;
      fencing_->release(self_, worker);
    }
  }
  fence_waiters_.clear();
  suspected_.clear();
  recovering_ = false;
  scanning_ = false;
  recovery_outstanding_ = 0;
  recovery_done_cb_ = nullptr;
  locks_.reset();
  store_.crash();
  wal_.crash();
}

}  // namespace opc
