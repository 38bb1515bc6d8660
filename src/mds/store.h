// Per-MDS metadata store with crash-faithful three-level state.
//
// Updates are first performed "in the cache" (paper §II-A: MDSs perform
// their local updates in the cache, then the commit protocol forces them to
// the log).  MetaStore models the full lifecycle explicitly:
//
//   1. per-transaction pending ops — the volatile cache.  Dropped on crash
//      or abort.
//   2. in-memory committed tables (`mem`) — the logically current state
//      every new transaction validates against.  The 1PC coordinator makes
//      a transaction visible here (and releases its locks) *before* its own
//      commit force completes — the paper's headline latency optimization —
//      so `mem` can run ahead of disk.  Lost on crash, rebuilt from stable
//      state + log recovery.
//   3. stable tables — what survives a crash.  Mutated only by
//      commit_stable()/replay, strictly after the corresponding log force
//      is durable.
//
// Idempotent redo: stable state remembers the ids of transactions whose
// effects it already contains (`stable_applied`).  This models ARIES page
// LSNs at transaction granularity — in a real system "has this update
// reached the stable pages?" is answerable from the pages themselves; here
// the simulator keeps the answer as part of stable state, so recovery can
// replay a committed transaction exactly once no matter how often it is
// re-driven.
//
// Hot-path memory: the four metadata tables are open-addressing FlatMaps,
// and the per-transaction op vectors are recycled through a shell pool, so
// the steady-state apply/commit cycle allocates only when a table doubles.
// Dentries are grouped per directory, each directory an unordered entry
// vector with its own open-addressing index over entry positions, so a
// create or unlink in a directory of any size is O(1) expected.  Name order
// is produced only where it is promised, by sorting at the cold sites:
// readdir (mem_list_dir) and the stable_dentries() dump.
#pragma once

#include <cstdint>
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
  /// committed).  The ops move to the unflushed set awaiting
  /// commit_stable().  Call at most once per transaction.
  void commit_mem(TxnId txn);

  /// Promotes the transaction's unflushed updates into stable state and
  /// marks the transaction applied.  Must only run once the updates are
  /// durable in the WAL.
  void commit_stable(TxnId txn);

  /// commit_mem + commit_stable in one step (the common non-1PC path).
  void commit_txn(TxnId txn) {
    commit_mem(txn);
    commit_stable(txn);
  }

  /// Discards the transaction's cached updates (abort path; only valid
  /// before commit_mem).
  void abort_txn(TxnId txn);

  /// Crash: caches and the mem overlay vanish; mem is rebuilt equal to
  /// stable state.  Recovery then replays from the log.
  void crash();

  /// Replays a committed transaction's operations directly against stable
  /// (and mem) state.  Idempotent: if the transaction was already applied
  /// to stable state, this is a no-op.  Returns true if it applied.
  bool replay_committed(TxnId txn, const std::vector<Operation>& ops);

  /// True if stable state already contains the transaction's effects.
  [[nodiscard]] bool stable_applied(TxnId txn) const {
    return stable_applied_.contains(txn);
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
  [[nodiscard]] std::optional<Inode> stable_inode(ObjectId id) const;
  [[nodiscard]] std::optional<ObjectId> stable_lookup(
      ObjectId dir, const std::string& name) const;
  [[nodiscard]] std::size_t stable_inode_count() const {
    return stable_inodes_.size();
  }
  [[nodiscard]] std::size_t stable_dentry_count() const {
    return stable_dentries_.size();
  }
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

  /// Seeds both mem and stable state directly (bootstrap: root directory,
  /// pre-populated trees).  Bypasses logging by design.
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
    void clear();
    void clone_from(const DentryTable& o);
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

  [[nodiscard]] StoreStatus validate(TxnId txn, const Operation& op) const;
  /// True if `dir` has no entries in the transaction's effective view.
  [[nodiscard]] bool effective_dir_empty(TxnId txn, ObjectId dir) const;
  static void apply_to(const Operation& op, InodeTable& inodes,
                       DentryTable& dentries);
  void recycle_ops(std::vector<Operation>&& ops);

  NodeId owner_;
  InodeTable mem_inodes_;
  DentryTable mem_dentries_;
  InodeTable stable_inodes_;
  DentryTable stable_dentries_;
  FlatMap<TxnId, std::vector<Operation>> pending_;
  FlatMap<TxnId, std::vector<Operation>> unflushed_;
  FlatSet<TxnId> stable_applied_;
  // Recycled op-vector shells (bounded): apply() checks one out, the
  // commit/abort paths return it.
  std::vector<std::vector<Operation>> ops_pool_;
};

}  // namespace opc
