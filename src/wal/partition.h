// Per-MDS log partitions on centrally shared storage.
//
// The 1PC protocol's key architectural assumption (paper §III-A): every MDS
// keeps its write-ahead log in a separate partition of a central storage
// device (SAN); any MDS can mount and read any partition, but only the
// owner writes it.  SharedStorage models that device: it owns one
// LogPartition (durable record store + a bandwidth-modeled Disk queue) per
// node, plus the fencing state that makes foreign reads safe.
//
// Durability rule: a record is in `records()` iff the disk completion for
// the write that carried it fired before any crash/fence cancelled it.
//
// N-participant recovery rule (DESIGN.md §14): 1PC recovery works by
// fencing the worker and reading its partition — sound because a two-party
// transaction has exactly one unilateral commit point, the worker's forced
// update+COMMITTED block, and that block lives in exactly one partition.
// The rule generalizes only to workers whose commit points share a log
// partition (co-located logs): one fence + one scan then still yields an
// atomic snapshot of every commit point.  In this deployment each node owns
// its own partition, so co-location never holds for distinct workers and
// choose_protocol() degrades wider transactions to presumed-abort 2PC,
// whose recovery needs no foreign reads at all — absence of log state on
// any participant means abort.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "env/env.h"
#include "net/types.h"
#include "storage/disk.h"
#include "wal/record.h"

namespace opc {

/// Durable record store for one MDS.
class LogPartition {
 public:
  LogPartition(Env& env, NodeId owner, DiskConfig disk_cfg,
               StatsRegistry& stats, TraceRecorder& trace)
      : owner_(owner),
        device_(env, "log." + owner.str(), disk_cfg, stats, trace) {}

  [[nodiscard]] NodeId owner() const { return owner_; }
  [[nodiscard]] Disk& device() { return device_; }
  [[nodiscard]] const Disk& device() const { return device_; }

  [[nodiscard]] bool fenced() const { return fenced_; }
  void set_fenced(bool f) { fenced_ = f; }

  /// Appends records that have just become durable.  The vector is drained
  /// but keeps its capacity, so callers can recycle the shell.
  ///
  /// One exception: an ENDED record for a transaction the owner already
  /// checkpointed (truncate_txn ran first) is *claimed* instead of stored.
  /// The engine's finalize paths write ENDED lazily and truncate in the
  /// same event, so the ENDED always lands after the truncate; storing it
  /// would leak one record per transaction forever and make truncate_txn
  /// quadratic over a long storm (ROADMAP, found in PR 9).  Recovery
  /// already treats the resulting empty log correctly — it is the same
  /// state a crash before the lazy flush leaves behind.
  void append_durable(std::vector<LogRecord>& recs);
  void append_durable(std::vector<LogRecord>&& recs) { append_durable(recs); }

  [[nodiscard]] const std::vector<LogRecord>& records() const {
    return records_;
  }

  /// All durable records of one transaction, in log order.
  [[nodiscard]] std::vector<LogRecord> records_for(std::uint64_t txn) const;

  /// The latest *state* record (STARTED/PREPARED/COMMITTED/ABORTED/ENDED)
  /// for a transaction; nullopt if the log holds nothing for it (possibly
  /// because it was checkpointed away — the protocols reason about exactly
  /// this case).
  [[nodiscard]] std::optional<RecordType> last_state_for(
      std::uint64_t txn) const;

  /// True if a record of this type exists for the transaction.
  [[nodiscard]] bool has_record(std::uint64_t txn, RecordType t) const;

  /// Transaction ids that still have records in the log (not checkpointed),
  /// in first-appearance order — the recovery scan's work list.
  [[nodiscard]] std::vector<std::uint64_t> live_transactions() const;

  /// Checkpoint + garbage collect: drops all records of `txn`.  O(1) when
  /// the transaction has no durable records (the per-txn index answers
  /// that without scanning), O(live log) otherwise — and the claimed-ENDED
  /// rule keeps the live log bounded by in-flight transactions.
  void truncate_txn(std::uint64_t txn);

  /// Sum of modeled bytes currently in the partition (drives foreign-read
  /// scan timing).  Maintained incrementally.
  [[nodiscard]] std::uint64_t modeled_size() const { return modeled_bytes_; }

  /// Count of ENDED records claimed by an earlier truncate instead of
  /// stored (leak regression tests pin records() bounded via this).
  [[nodiscard]] std::uint64_t claimed_ended() const { return claimed_ended_; }

 private:
  NodeId owner_;
  Disk device_;
  bool fenced_ = false;
  std::vector<LogRecord> records_;
  // Live durable record count per transaction: the truncate/lookup index.
  std::unordered_map<std::uint64_t, std::uint32_t> txn_counts_;
  std::uint64_t modeled_bytes_ = 0;
  std::uint64_t claimed_ended_ = 0;
};

/// The central storage device: all partitions plus fencing.
class SharedStorage {
 public:
  SharedStorage(Env& env, StatsRegistry& stats, TraceRecorder& trace)
      : env_(env), stats_(stats), trace_(trace) {}

  SharedStorage(const SharedStorage&) = delete;
  SharedStorage& operator=(const SharedStorage&) = delete;

  /// Creates the partition for a node.  Must be called once per node before
  /// any logging.
  LogPartition& add_partition(NodeId node, DiskConfig disk_cfg);

  /// Same, but the partition's device reports into caller-supplied stats /
  /// trace sinks.  The real-time cluster uses this so each node's disk
  /// counters land in that node's (single-threaded) registry.
  LogPartition& add_partition(NodeId node, DiskConfig disk_cfg,
                              StatsRegistry& stats, TraceRecorder& trace);

  [[nodiscard]] LogPartition& partition(NodeId node);
  [[nodiscard]] const LogPartition& partition(NodeId node) const;

  /// Fences a node: its queued and future writes are rejected.  This is the
  /// STONITH / persistent-reservation effect on the storage side; the
  /// FencingController drives the node-side power cycle.
  void fence(NodeId node);

  /// Lifts the fence (after the node rebooted and re-registered).
  void unfence(NodeId node);

  [[nodiscard]] bool is_fenced(NodeId node) const {
    return parts_.contains(node) && parts_.at(node)->fenced();
  }

  /// Asynchronously reads a (possibly foreign) partition: models a scan of
  /// the target's log through the target device queue, then hands a snapshot
  /// of the durable records to `on_done`.  If the target is not fenced the
  /// read still proceeds mechanically — real hardware would not stop it —
  /// but it is counted under "storage.reads.unfenced" so tests can assert
  /// the 1PC recovery never performs one (split-brain safety).
  void read_partition(NodeId reader, NodeId target,
                      std::function<void(std::vector<LogRecord>)> on_done);

 private:
  Env& env_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  std::unordered_map<NodeId, std::unique_ptr<LogPartition>> parts_;
};

}  // namespace opc
