#include "workload/source.h"

#include <algorithm>

namespace opc {

void ClosedLoopSource::start() {
  for (std::uint32_t i = 0; i < cfg_.concurrency; ++i) issue(false);
}

void ClosedLoopSource::issue(bool retry) {
  if (stopped_) return;
  if (cfg_.max_ops != 0 && issued_ >= cfg_.max_ops) return;
  Transaction txn;
  if (!make_txn(txn, retry)) return;
  ++issued_;
  c_issued_.add();
  const std::uint64_t gen = ++watchdog_gen_;
  outstanding_.insert(gen);

  if (wants_outcome_body()) {
    // The callback owns a copy of the transaction body so on_outcome can
    // update the client-side namespace image.
    if (cfg_.client_timeout > Duration::zero()) {
      env_.schedule_after(cfg_.client_timeout, [this, txn, gen] {
        if (!outstanding_.erase(gen)) return;  // already completed
        ++lost_;
        c_lost_.add();
        on_outcome(txn, TxnOutcome::kPending);
        issue(true);
      });
    }
    AcpEngine::ClientCallback cb = [this, txn,
                                    gen](TxnId, TxnOutcome outcome) {
      complete(txn, outcome, gen);
    };
    cluster_.submit(std::move(txn), std::move(cb));
    return;
  }

  // on_outcome is a no-op for this source: no body copy needed, and the
  // transaction itself is moved all the way into the engine.
  if (cfg_.client_timeout > Duration::zero()) {
    env_.schedule_after(cfg_.client_timeout, [this, gen] {
      if (!outstanding_.erase(gen)) return;  // already completed
      ++lost_;
      c_lost_.add();
      issue(true);
    });
  }
  static const Transaction kNoBody{};
  cluster_.submit(std::move(txn), [this, gen](TxnId, TxnOutcome outcome) {
    complete(kNoBody, outcome, gen);
  });
}

void ClosedLoopSource::complete(const Transaction& txn, TxnOutcome outcome,
                                std::uint64_t watchdog_gen) {
  if (!outstanding_.erase(watchdog_gen)) {
    // The watchdog already gave up on this one; the loop slot has moved on,
    // but the operation really ran — a late commit still counts toward
    // system throughput (the paper measures completed operations, not
    // client-visible ones) and still updates the image.
    c_late_.add();
    if (outcome == TxnOutcome::kCommitted) {
      ++committed_;
      meter_.record(env_.now());
    }
    on_outcome(txn, outcome);
    return;
  }
  on_outcome(txn, outcome);
  const bool retry = outcome != TxnOutcome::kCommitted;
  if (outcome == TxnOutcome::kCommitted) {
    ++committed_;
    meter_.record(env_.now());
    c_committed_.add();
  } else {
    ++aborted_;
    c_aborted_.add();
  }
  Duration pause = cfg_.think_time;
  if (retry) pause += cfg_.retry_backoff;
  if (pause > Duration::zero()) {
    env_.schedule_after(pause, [this, retry] { issue(retry); });
  } else {
    issue(retry);
  }
}

// ---------------------------------------------------------------------------

bool CreateStormSource::make_txn(Transaction& out, bool /*retry*/) {
  if (spread_.empty() && batch_ <= 1) {
    out = planner_.plan_create(dir_, prefix_ + std::to_string(counter_++),
                               ids_.next(), /*is_dir=*/false);
    return true;
  }
  const std::size_t width = spread_.empty() ? batch_ : spread_.size();
  std::vector<std::pair<std::string, ObjectId>> entries;
  entries.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    entries.emplace_back(prefix_ + std::to_string(counter_++), ids_.next());
  }
  out = planner_.plan_create_batch(dir_, entries, spread_);
  return true;
}

// ---------------------------------------------------------------------------

namespace {
SourceConfig planned_config(std::uint32_t concurrency) {
  SourceConfig cfg;
  cfg.concurrency = concurrency;
  cfg.retry_backoff = Duration::zero();
  return cfg;
}
}  // namespace

PlannedSource::PlannedSource(Env& env, Cluster& cluster,
                             std::uint32_t concurrency, ThroughputMeter& meter,
                             StatsRegistry& stats,
                             const std::vector<Transaction>& plan)
    : ClosedLoopSource(env, cluster, planned_config(concurrency), meter,
                       stats),
      plan_(plan) {}

void PlannedSource::start(SimTime stop_at) {
  if (stop_at != SimTime::max()) {
    deadline_ = env_.schedule_at(stop_at, [this] { stop(); });
  }
  ClosedLoopSource::start();
}

bool PlannedSource::make_txn(Transaction& out, bool /*retry*/) {
  if (next_ == plan_.size()) return false;
  out = plan_[next_++];
  return true;
}

void PlannedSource::on_outcome(const Transaction& /*txn*/,
                               TxnOutcome /*outcome*/) {
  // Runs before the loop refills this slot: the loop has drained for good
  // only if nothing is in flight and no refill can follow.
  if (++completed_ == issued() && (stopped() || next_ == plan_.size())) {
    drained_at_ = env_.now();
    env_.cancel(deadline_);
  }
}

// ---------------------------------------------------------------------------

OpenLoopCreateSource::OpenLoopCreateSource(
    Env& env, Cluster& cluster, double ops_per_second,
    ThroughputMeter& meter, StatsRegistry& stats, NamespacePlanner& planner,
    IdAllocator& ids, ObjectId directory, std::uint64_t seed)
    : env_(env), cluster_(cluster),
      mean_interarrival_(Duration::from_seconds_f(1.0 / ops_per_second)),
      meter_(meter), stats_(stats), planner_(planner), ids_(ids),
      dir_(directory), rng_(seed, /*stream=*/0x0B50) {
  SIM_CHECK(ops_per_second > 0);
}

void OpenLoopCreateSource::start(SimTime stop_at) {
  stop_at_ = stop_at;
  schedule_next();
}

void OpenLoopCreateSource::schedule_next() {
  const Duration gap = rng_.exponential(mean_interarrival_);
  env_.schedule_after(gap, [this] {
    if (env_.now() >= stop_at_) return;
    const std::string name = "o" + std::to_string(issued_++);
    stats_.add("workload.issued");
    const SimTime submitted = env_.now();
    cluster_.submit(
        planner_.plan_create(dir_, name, ids_.next(), false),
        [this, submitted](TxnId, TxnOutcome outcome) {
          if (outcome == TxnOutcome::kCommitted) {
            ++committed_;
            meter_.record(env_.now());
            latency_.record(env_.now() - submitted);
            stats_.add("workload.committed");
          } else {
            stats_.add("workload.aborted");
          }
        });
    schedule_next();
  });
}

// ---------------------------------------------------------------------------

MixedSource::MixedSource(Env& env, Cluster& cluster, SourceConfig cfg,
                         ThroughputMeter& meter, StatsRegistry& stats,
                         NamespacePlanner& planner, IdAllocator& ids,
                         std::vector<ObjectId> directories, Mix mix,
                         std::uint64_t seed, std::uint32_t participants)
    : ClosedLoopSource(env, cluster, cfg, meter, stats), planner_(planner),
      ids_(ids), dirs_(std::move(directories)), mix_(mix),
      rng_(seed, /*stream=*/0x3157), participants_(participants) {
  SIM_CHECK(!dirs_.empty());
  SIM_CHECK_MSG(participants_ >= 2 &&
                    participants_ <= planner_.partitioner().cluster_size(),
                "wide creates need distinct worker nodes");
}

bool MixedSource::make_txn(Transaction& out, bool /*retry*/) {
  const double roll = rng_.uniform01();
  const bool want_remove = roll >= mix_.create && roll < mix_.create + mix_.remove;
  const bool want_rename = roll >= mix_.create + mix_.remove;

  if (want_remove || want_rename) {
    // Find a committed file that no in-flight operation is touching.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < files_.size(); ++i) {
      if (!busy_inodes_.contains(files_[i].inode.value())) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty()) {
      const FileRef f = files_[candidates[rng_.index(candidates.size())]];
      busy_inodes_.insert(f.inode.value());
      if (want_remove) {
        out = planner_.plan_delete(f.dir, f.name, f.inode);
      } else {
        const ObjectId dst = dirs_[rng_.index(dirs_.size())];
        out = planner_.plan_rename(f.dir, f.name, dst,
                                   "r" + std::to_string(counter_++), f.inode,
                                   std::nullopt);
      }
      return true;
    }
    // No eligible file yet; fall through to a create.
  }
  const ObjectId dir = dirs_[rng_.index(dirs_.size())];
  if (participants_ > 2) {
    // One create per worker node, workers walking the ring from the
    // coordinator.  Each inode id is drawn until the (stateless) hash
    // partitioner maps it to the intended home, so the explicit spread
    // placement and every later home_of() lookup agree.
    Partitioner& part = planner_.partitioner();
    const NodeId coord = part.home_of(dir);
    const std::uint32_t n = part.cluster_size();
    std::vector<std::pair<std::string, ObjectId>> entries;
    std::vector<NodeId> homes;
    entries.reserve(participants_ - 1);
    homes.reserve(participants_ - 1);
    for (std::uint32_t w = 1; w < participants_; ++w) {
      const NodeId want((coord.value() + w) % n);
      ObjectId inode = ids_.next();
      while (part.home_of(inode) != want) inode = ids_.next();
      entries.emplace_back("m" + std::to_string(counter_++), inode);
      homes.push_back(want);
    }
    out = planner_.plan_create_batch(dir, entries, homes);
    return true;
  }
  const std::uint64_t seq = counter_++;
  out = planner_.plan_create(dir, "m" + std::to_string(seq), ids_.next(),
                             /*is_dir=*/false);
  return true;
}

void MixedSource::on_outcome(const Transaction& txn, TxnOutcome outcome) {
  // Reconstruct what the transaction did from its operation lists.
  const Operation* add = nullptr;
  const Operation* remove = nullptr;
  for (const Participant& p : txn.participants) {
    for (const Operation& op : p.ops) {
      if (op.type == OpType::kAddDentry) add = &op;
      if (op.type == OpType::kRemoveDentry) remove = &op;
    }
  }
  const ObjectId touched =
      add != nullptr ? add->child : (remove != nullptr ? remove->child
                                                       : kNoObject);
  if (touched.valid()) busy_inodes_.erase(touched.value());
  if (outcome != TxnOutcome::kCommitted) return;

  switch (txn.kind) {
    case NamespaceOpKind::kCreate:
      SIM_CHECK(add != nullptr);
      // Wide creates carry one AddDentry per spread entry; record them all
      // so every created file is a DELETE/RENAME candidate.
      for (const Participant& p : txn.participants) {
        for (const Operation& o : p.ops) {
          if (o.type == OpType::kAddDentry) {
            files_.push_back(FileRef{o.target, o.name, o.child});
          }
        }
      }
      break;
    case NamespaceOpKind::kDelete: {
      SIM_CHECK(remove != nullptr);
      auto it = std::find_if(files_.begin(), files_.end(),
                             [&](const FileRef& f) {
                               return f.inode == remove->child;
                             });
      if (it != files_.end()) files_.erase(it);
      break;
    }
    case NamespaceOpKind::kRename: {
      SIM_CHECK(add != nullptr && remove != nullptr);
      auto it = std::find_if(files_.begin(), files_.end(),
                             [&](const FileRef& f) {
                               return f.inode == add->child;
                             });
      if (it != files_.end()) {
        it->dir = add->target;
        it->name = add->name;
      }
      break;
    }
    case NamespaceOpKind::kCustom:
      break;
  }
}

}  // namespace opc
