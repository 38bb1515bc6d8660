// Per-MDS metadata store with crash-faithful three-level state.
//
// Updates are first performed "in the cache" (paper §II-A: MDSs perform
// their local updates in the cache, then the commit protocol forces them to
// the log).  MetaStore models the full lifecycle explicitly:
//
//   1. per-transaction pending ops — the volatile cache.  Dropped on crash
//      or abort.
//   2. one namespace table (an inode table and a dentry table) — the
//      logically current state every new transaction validates against.
//      A non-1PC commit (commit_txn) and log replay apply here only once
//      the updates are durable, so they are stable the moment they land.
//   3. undo records for mem-committed but unflushed ops.  The 1PC
//      coordinator makes a transaction visible in the table (and releases
//      its locks) *before* its own commit force completes — the paper's
//      headline latency optimization (§III-B/D) — so the table can run
//      ahead of disk.  commit_mem() saves, beside each op, its pre-image:
//      whether the inode or (dir, name) key existed and its old value.
//      commit_stable() drops the record once the force is durable; crash()
//      restores the unflushed records newest first, which leaves exactly
//      the stable state.
//
// The stable view (what a crash preserves) is the table with every key an
// unflushed record touches read from the pre-image its oldest record saved.
// That is the state the stable transactions alone produce only if
// conflicting transactions become stable in commit_mem order; FIFO log
// devices give that order, and commit_stable/commit_txn/replay_committed
// SIM_CHECK it: a transaction that becomes stable must not write a key an
// older unflushed record holds.  The stable readers are cold (checkers,
// dumps); with nothing unflushed they read the table directly.
//
// Idempotent redo: stable state remembers the ids of transactions whose
// effects it already contains (`stable_applied`).  This models ARIES page
// LSNs at transaction granularity — in a real system "has this update
// reached the stable pages?" is answerable from the pages themselves; here
// the simulator keeps the answer as part of stable state, so recovery can
// replay a committed transaction exactly once no matter how often it is
// re-driven.
//
// Hot-path memory: the inode table is an open-addressing FlatMap, and the
// per-transaction op and pre-image vectors are recycled together through a
// shell pool, so the steady-state apply/commit cycle allocates only when a
// table grows.  Dentries are grouped per directory, each directory an
// unordered entry vector with its own open-addressing index over entry
// positions, so a create or unlink in a directory of any size is O(1)
// expected.  Name order is produced only where it is promised, by sorting
// at the cold sites: readdir (mem_list_dir) and the stable_dentries() dump.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/flat.h"
#include "net/types.h"
#include "txn/types.h"

namespace opc {

struct Inode {
  ObjectId id;
  bool is_dir = false;
  std::uint32_t nlink = 0;
  std::uint64_t version = 0;  // bumped by SetAttr

  [[nodiscard]] bool operator==(const Inode&) const = default;
};

enum class StoreStatus : std::uint8_t {
  kOk,
  kInodeExists,
  kInodeNotFound,
  kNotADirectory,
  kDentryExists,
  kDentryNotFound,
  kChildMismatch,
  kLinkUnderflow,
  kDirNotEmpty,  // removing a directory that still has entries
};

[[nodiscard]] const char* store_status_name(StoreStatus s);

class MetaStore {
 public:
  explicit MetaStore(NodeId owner) : owner_(owner) {}

  [[nodiscard]] NodeId owner() const { return owner_; }

  /// Validates `op` against the transaction's effective view (mem + its own
  /// pending ops) and records it in the cache.  Nothing becomes durable or
  /// visible to others.  Read-only ops validate without being recorded.
  StoreStatus apply(TxnId txn, const Operation& op);

  /// Makes the transaction's cached updates visible in `mem` (logically
  /// committed): applies them to the table and keeps them, with each op's
  /// pre-image, as an unflushed record awaiting commit_stable().  Call at
  /// most once per transaction.
  void commit_mem(TxnId txn);

  /// Makes the transaction's unflushed updates stable: drops its undo
  /// record and marks the transaction applied.  Must only run once the
  /// updates are durable in the WAL.
  void commit_stable(TxnId txn);

  /// commit_mem + commit_stable in one step (the common non-1PC path):
  /// applies the cached updates with no undo record.  Must only run once
  /// the updates are durable in the WAL.
  void commit_txn(TxnId txn);

  /// Discards the transaction's cached updates (abort path; only valid
  /// before commit_mem).
  void abort_txn(TxnId txn);

  /// Crash: caches vanish and the unflushed records are undone newest
  /// first, so mem equals stable state.  Recovery then replays from the log.
  void crash();

  /// Replays a committed transaction's operations directly against the
  /// table (stable and mem at once).  Idempotent: if the transaction was
  /// already applied to stable state, this is a no-op.  Returns true if it
  /// applied.
  bool replay_committed(TxnId txn, const std::vector<Operation>& ops);

  /// True if stable state already contains the transaction's effects.
  [[nodiscard]] bool stable_applied(TxnId txn) const {
    return stable_applied_.contains(txn);
  }
  /// Transactions stable state remembers as applied (never pruned).
  [[nodiscard]] std::size_t stable_applied_count() const {
    return stable_applied_.size();
  }

  // --- Queries: current logical view (mem) ---
  [[nodiscard]] std::optional<Inode> mem_inode(ObjectId id) const;
  [[nodiscard]] std::optional<ObjectId> mem_lookup(
      ObjectId dir, const std::string& name) const;
  /// All current entries of a directory, name-ordered (readdir; sorts a
  /// copy, so it costs O(n log n) in the directory's size).
  [[nodiscard]] std::vector<std::pair<std::string, ObjectId>> mem_list_dir(
      ObjectId dir) const;

  // --- Queries: a transaction's effective view (mem + its pending ops) ---
  [[nodiscard]] std::optional<Inode> effective_inode(TxnId txn,
                                                     ObjectId id) const;
  [[nodiscard]] std::optional<ObjectId> effective_lookup(
      TxnId txn, ObjectId dir, const std::string& name) const;

  // --- Queries: stable view (what a crash preserves) ---
  // Cold: each reader derives the view from the table and the unflushed
  // records' oldest pre-images; with nothing unflushed it reads the table.
  [[nodiscard]] std::optional<Inode> stable_inode(ObjectId id) const;
  [[nodiscard]] std::optional<ObjectId> stable_lookup(
      ObjectId dir, const std::string& name) const;
  /// O(1) when nothing is unflushed.
  [[nodiscard]] std::size_t stable_inode_count() const;
  [[nodiscard]] std::size_t stable_dentry_count() const;
  /// (dir, name, child) tuples sorted by (dir, name) — the iteration order
  /// of the ordered map this table replaced.
  [[nodiscard]] std::vector<std::tuple<ObjectId, std::string, ObjectId>>
  stable_dentries() const;
  /// Inodes sorted by id.
  [[nodiscard]] std::vector<Inode> stable_inodes() const;

  /// Cached (not yet mem-committed) ops for a transaction.
  [[nodiscard]] const std::vector<Operation>& pending_ops(TxnId txn) const;
  /// Ops committed to mem but not yet stable.
  [[nodiscard]] std::size_t unflushed_txns() const {
    return unflushed_.size();
  }

  /// Seeds the table directly, so mem and stable state at once (bootstrap:
  /// root directory, pre-populated trees).  Bypasses logging by design.
  void bootstrap_inode(const Inode& ino);
  void bootstrap_dentry(ObjectId dir, const std::string& name, ObjectId child);

 private:
  using InodeTable = FlatMap<std::uint64_t, Inode>;

  /// Dentries grouped per directory: a flat table keyed by directory id
  /// whose values hold that directory's entries in no particular order
  /// plus an open-addressing index of their positions (linear probing on a
  /// 64-bit hash of the whole name, load at most 1/2, backward-shift
  /// deletion as in FlatMap).  Erase fills the hole with the last entry.
  /// find/insert/erase/upsert are O(1) expected, independent of how many
  /// names the directory holds; nothing here is name-ordered.
  class DentryTable {
   public:
    using Entries = std::vector<std::pair<std::string, ObjectId>>;

    [[nodiscard]] std::size_t size() const { return size_; }
    /// Child for (dir, name), or nullptr.
    [[nodiscard]] const ObjectId* find(ObjectId dir,
                                       std::string_view name) const;
    /// False (and no change) if the name already exists in dir.
    bool insert(ObjectId dir, const std::string& name, ObjectId child) {
      return try_emplace(dir, name, child).second;
    }
    bool erase(ObjectId dir, std::string_view name);
    /// Insert-or-overwrite (bootstrap semantics).
    void upsert(ObjectId dir, const std::string& name, ObjectId child) {
      *try_emplace(dir, name, child).first = child;
    }
    [[nodiscard]] std::size_t entry_count(ObjectId dir) const;
    /// Entries of one directory in unspecified order, or nullptr if it has
    /// none.
    [[nodiscard]] const Entries* entries(ObjectId dir) const;
    /// Visits (dir, name, child) in unspecified order; callers sort if they
    /// need a deterministic dump.
    template <class F>
    void for_each_entry(F&& fn) const {
      dirs_.for_each([&fn](const std::uint64_t& dir, const Dir& d) {
        for (const auto& [name, child] : d.entries) {
          fn(ObjectId(dir), name, child);
        }
      });
    }

   private:
    static constexpr std::uint32_t kFree = UINT32_MAX;

    struct Dir {
      Entries entries;
      /// Positions into `entries`, kFree where unused; a power of two in
      /// size, at least twice entries.size().
      std::vector<std::uint32_t> slots;
    };

    /// The slot holding `name`, or the free slot where it belongs.
    [[nodiscard]] static std::size_t probe(const Dir& d,
                                           std::string_view name);
    /// Rebuilds the index at twice its size (8 slots when empty).
    static void grow(Dir& d);
    /// Adds (name, child) if the name is absent; returns the name's child
    /// slot and whether it was added.
    std::pair<ObjectId*, bool> try_emplace(ObjectId dir,
                                           const std::string& name,
                                           ObjectId child);

    FlatMap<std::uint64_t, Dir> dirs_;
    std::size_t size_ = 0;
  };

  /// What one op overwrote: whether its key (the op's inode, or its
  /// (dir, name) dentry) existed, and the old value.
  struct PreImage {
    bool existed = false;
    Inode inode;     // inode ops
    ObjectId child;  // dentry ops
  };

  /// A transaction's ops; once mem-committed, also one pre-image per op
  /// (its undo record) and its place in commit_mem order.
  struct TxnOps {
    std::vector<Operation> ops;
    std::vector<PreImage> pre;
    std::uint64_t seq = 0;
  };

  /// The pre-image a record saved for a key, with the record's seq.
  using SeqPreImage = std::pair<std::uint64_t, const PreImage*>;
  /// Every key the unflushed records touch, with the pre-image of the
  /// oldest record that touched it: that key's stable value.  Dentry names
  /// point into the records' ops.
  struct StableOverlay {
    std::map<std::uint64_t, SeqPreImage> inodes;
    std::map<std::pair<std::uint64_t, std::string_view>, SeqPreImage>
        dentries;
  };

  [[nodiscard]] StoreStatus validate(TxnId txn, const Operation& op) const;
  /// True if `dir` has no entries in the transaction's effective view.
  [[nodiscard]] bool effective_dir_empty(TxnId txn, ObjectId dir) const;
  /// Applies one op to the table, saving what it overwrote in `pre` when
  /// non-null.
  void apply_to(const Operation& op, PreImage* pre);
  /// Undoes one unflushed record, newest op first.
  void restore(const TxnOps& rec);
  /// The overlay of the unflushed ops `match` accepts: the one path every
  /// stable reader takes (a point read matches its own key only).
  template <class Match>
  [[nodiscard]] StableOverlay stable_overlay(Match&& match) const;
  /// SIM_CHECKs that `ops`, about to become stable, write no key held by
  /// an unflushed record with a seq below `seq`.
  void check_stable_order(std::uint64_t seq,
                          const std::vector<Operation>& ops) const;
  void recycle_ops(TxnOps&& rec);

  NodeId owner_;
  InodeTable inodes_;
  DentryTable dentries_;
  FlatMap<TxnId, TxnOps> pending_;
  /// Undo records of mem-committed transactions awaiting commit_stable().
  FlatMap<TxnId, TxnOps> unflushed_;
  /// The seq the next commit_mem stamps on its record.
  std::uint64_t next_seq_ = 0;
  FlatSet<TxnId> stable_applied_;
  // Recycled op/pre-image shells (bounded): apply() checks one out, the
  // commit/abort paths return it.
  std::vector<TxnOps> ops_pool_;
};

}  // namespace opc
