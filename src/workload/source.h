// Workload sources — the ACID Sim Tools "source" + "leave" modules.
//
// A source drives one coordinator MDS with a closed loop of namespace
// operations: `concurrency` transactions are kept outstanding; each
// completion immediately triggers the next submission (and aborted
// operations are re-submitted, matching the simulator the paper used, whose
// leave module "resubmits aborted transactions to the responsible source").
//
// An optional client-side watchdog re-issues work when a reply never
// arrives (coordinator crash) so closed loops survive failure injection.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/flat.h"
#include "mds/namespace.h"
#include "sim/check.h"
#include "stats/meter.h"

namespace opc {

struct SourceConfig {
  std::uint32_t concurrency = 100;  // paper's Fig. 6 value
  std::uint64_t max_ops = 0;        // 0 = unbounded (run to deadline)
  Duration think_time = Duration::zero();
  Duration client_timeout = Duration::zero();  // 0 = trust the cluster
  /// Pause before re-submitting after an abort; keeps failure storms from
  /// degenerating into tight retry loops against a struggling server.
  Duration retry_backoff = Duration::millis(5);
};

/// Closed-loop source skeleton; subclasses produce the transactions.
class ClosedLoopSource {
 public:
  ClosedLoopSource(Env& env, Cluster& cluster, SourceConfig cfg,
                   ThroughputMeter& meter, StatsRegistry& stats)
      : env_(env), cluster_(cluster), cfg_(cfg), meter_(meter),
        stats_(stats),
        c_issued_(stats, "workload.issued"),
        c_committed_(stats, "workload.committed"),
        c_aborted_(stats, "workload.aborted"),
        c_lost_(stats, "workload.lost"),
        c_late_(stats, "workload.late_replies") {}
  virtual ~ClosedLoopSource() = default;

  ClosedLoopSource(const ClosedLoopSource&) = delete;
  ClosedLoopSource& operator=(const ClosedLoopSource&) = delete;

  /// Fires `concurrency` initial submissions.
  void start();

  /// Stops issuing new work; in-flight transactions drain naturally.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t aborted() const { return aborted_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

 protected:
  /// Produces the next transaction, or false when the workload is
  /// exhausted.  `retry` is true when re-issuing after an abort/loss.
  virtual bool make_txn(Transaction& out, bool retry) = 0;

  /// Outcome hook for subclasses that track a client-side namespace image.
  virtual void on_outcome(const Transaction& txn, TxnOutcome outcome) {
    (void)txn;
    (void)outcome;
  }

  /// Sources that override on_outcome return true so the submit
  /// continuation carries a copy of the transaction body.  The default
  /// closed loop doesn't need one, and skipping the copy keeps the storm's
  /// issue path off the heap (a 16-byte capture rides std::function's SBO).
  [[nodiscard]] virtual bool wants_outcome_body() const { return false; }

  Env& env_;
  Cluster& cluster_;

 private:
  void issue(bool retry);
  void complete(const Transaction& txn, TxnOutcome outcome,
                std::uint64_t watchdog_gen);

  SourceConfig cfg_;
  ThroughputMeter& meter_;
  StatsRegistry& stats_;
  Counter c_issued_;
  Counter c_committed_;
  Counter c_aborted_;
  Counter c_lost_;
  Counter c_late_;
  FlatSet<std::uint64_t> outstanding_;
  bool stopped_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t watchdog_gen_ = 0;
};

/// The paper's Figure 6 workload: an HPC application creating many files in
/// one (hot) directory, with every create a two-MDS distributed
/// transaction.  A non-empty `spread` widens each transaction to
/// 1+spread.size() participants: every submission creates one file per
/// listed node, with that node hosting the inode (explicit placement,
/// bypassing the partitioner) — the N-participant storm shape.
class CreateStormSource final : public ClosedLoopSource {
 public:
  CreateStormSource(Env& env, Cluster& cluster, SourceConfig cfg,
                    ThroughputMeter& meter, StatsRegistry& stats,
                    NamespacePlanner& planner, IdAllocator& ids,
                    ObjectId directory, std::string name_prefix = "f",
                    std::uint32_t batch = 1, std::vector<NodeId> spread = {})
      : ClosedLoopSource(env, cluster, cfg, meter, stats), planner_(planner),
        ids_(ids), dir_(directory), prefix_(std::move(name_prefix)),
        batch_(batch), spread_(std::move(spread)) {
    SIM_CHECK_MSG(spread_.empty() || batch_ <= 1,
                  "spread and batch are alternative wide-txn shapes");
  }

 protected:
  bool make_txn(Transaction& out, bool retry) override;

 private:
  NamespacePlanner& planner_;
  IdAllocator& ids_;
  ObjectId dir_;
  std::string prefix_;
  std::uint32_t batch_;
  std::vector<NodeId> spread_;
  std::uint64_t counter_ = 0;
};

/// Closed loop over a pre-planned transaction list (rt/storm_plan.h; it
/// must outlive the source), handed out in order with `concurrency`
/// outstanding and no think time or backoff; an aborted item is not
/// re-issued, its slot takes the next one.  RtCluster::run_storm and the
/// simulator leg of the sim/rt equivalence test both drive their plans
/// through it.
class PlannedSource final : public ClosedLoopSource {
 public:
  PlannedSource(Env& env, Cluster& cluster, std::uint32_t concurrency,
                ThroughputMeter& meter, StatsRegistry& stats,
                const std::vector<Transaction>& plan);

  /// Starts the loop; at `stop_at` it stops issuing and in-flight work
  /// drains.
  void start(SimTime stop_at = SimTime::max());

  /// When the last issued item completed with nothing more to issue.
  [[nodiscard]] SimTime drained_at() const { return drained_at_; }

 protected:
  bool make_txn(Transaction& out, bool retry) override;
  void on_outcome(const Transaction& txn, TxnOutcome outcome) override;

 private:
  const std::vector<Transaction>& plan_;
  std::size_t next_ = 0;
  std::uint64_t completed_ = 0;
  TimerHandle deadline_;
  SimTime drained_at_;
};

/// Open-loop source: namespace operations arrive as a Poisson process at a
/// configured rate, regardless of completions — the standard way to
/// measure latency as a function of offered load (closed loops hide
/// queueing delay behind their self-throttling).  Operations are
/// distributed CREATEs into one hot directory, like the Figure 6 storm.
class OpenLoopCreateSource {
 public:
  OpenLoopCreateSource(Env& env, Cluster& cluster, double ops_per_second,
                       ThroughputMeter& meter, StatsRegistry& stats,
                       NamespacePlanner& planner, IdAllocator& ids,
                       ObjectId directory, std::uint64_t seed);

  /// Starts the arrival process; it stops itself at `stop_at`.
  void start(SimTime stop_at);

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  /// Client-visible latency of committed operations.
  [[nodiscard]] const Histogram& latency() const { return latency_; }

 private:
  void schedule_next();

  Env& env_;
  Cluster& cluster_;
  Duration mean_interarrival_;
  ThroughputMeter& meter_;
  StatsRegistry& stats_;
  NamespacePlanner& planner_;
  IdAllocator& ids_;
  ObjectId dir_;
  Rng rng_;
  SimTime stop_at_;
  Histogram latency_;
  std::uint64_t issued_ = 0;
  std::uint64_t committed_ = 0;
};

/// Mixed namespace workload over a set of directories: CREATE / DELETE /
/// RENAME with configurable ratios.  RENAME can touch up to four MDSs,
/// exercising the hybrid 1PC -> PrN fallback.  `participants` > 2 widens
/// every CREATE to one file per worker node (participants-1 distinct
/// non-coordinator homes); inode ids are drawn until the hash partitioner
/// agrees with the explicit placement, so later DELETE/RENAME plans find
/// the inode where it actually lives.
class MixedSource final : public ClosedLoopSource {
 public:
  struct Mix {
    double create = 0.70;
    double remove = 0.25;  // rest is rename
  };

  MixedSource(Env& env, Cluster& cluster, SourceConfig cfg,
              ThroughputMeter& meter, StatsRegistry& stats,
              NamespacePlanner& planner, IdAllocator& ids,
              std::vector<ObjectId> directories, Mix mix, std::uint64_t seed,
              std::uint32_t participants = 2);

 protected:
  bool make_txn(Transaction& out, bool retry) override;
  void on_outcome(const Transaction& txn, TxnOutcome outcome) override;
  [[nodiscard]] bool wants_outcome_body() const override { return true; }

 private:
  struct FileRef {
    ObjectId dir;
    std::string name;
    ObjectId inode;
  };

  NamespacePlanner& planner_;
  IdAllocator& ids_;
  std::vector<ObjectId> dirs_;
  Mix mix_;
  Rng rng_;
  std::uint32_t participants_;
  std::vector<FileRef> files_;            // committed, not in flight
  FlatSet<std::uint64_t> busy_inodes_;
  std::uint64_t counter_ = 0;
};

}  // namespace opc
