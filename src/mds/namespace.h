// Namespace planning: path-level operations -> distributed transactions.
//
// A client-facing CREATE/DELETE/RENAME is decomposed here into per-MDS
// operation lists, following the paper's examples (§II: DELETE file1 =
// unlink at the parent's MDS + reference-count update at the inode's MDS).
// The MDS hosting the parent directory is always the coordinator — it is
// the server the client contacts, and it holds the contended directory
// lock the paper's analysis revolves around.
//
// CREATE and DELETE involve at most two MDSs; RENAME up to four (source
// dir, destination dir, moved inode, overwritten inode) — exactly the split
// that motivates running 1PC for the former and falling back to 2PC for
// the latter (src/acp/hybrid.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mds/partition.h"
#include "txn/types.h"

namespace opc {

/// Allocates cluster-unique object ids (inode numbers).  Id 0 is reserved
/// as "invalid"; id 1 is conventionally the root directory.
class IdAllocator {
 public:
  [[nodiscard]] ObjectId next() { return ObjectId(next_++); }

 private:
  std::uint64_t next_ = 1;
};

/// WAL footprint / compute cost assigned to planned operations.  Defaults
/// reproduce the paper's simulation (1 µs methods; update records sized so
/// a commit-path force is one 8 KiB device block — DESIGN.md §5).
struct OpCosts {
  std::uint64_t dentry_log_bytes = 2048;
  std::uint64_t inode_log_bytes = 2048;
  Duration method_compute = Duration::micros(1);
};

class NamespacePlanner {
 public:
  NamespacePlanner(Partitioner& partitioner, OpCosts costs)
      : part_(partitioner), costs_(costs) {}

  /// CREATE `name` in `parent_dir`; the new inode id must come from the
  /// IdAllocator.  `is_dir` plans a mkdir.
  [[nodiscard]] Transaction plan_create(ObjectId parent_dir,
                                        const std::string& name,
                                        ObjectId new_inode, bool is_dir);

  /// DELETE `name` (referring to `inode`) from `parent_dir`.
  [[nodiscard]] Transaction plan_delete(ObjectId parent_dir,
                                        const std::string& name,
                                        ObjectId inode);

  /// RENAME src_dir/src_name -> dst_dir/dst_name, moving `inode` and
  /// unlinking `overwritten` if the destination name existed.
  [[nodiscard]] Transaction plan_rename(ObjectId src_dir,
                                        const std::string& src_name,
                                        ObjectId dst_dir,
                                        const std::string& dst_name,
                                        ObjectId inode,
                                        std::optional<ObjectId> overwritten);

  /// Read-only attribute lookup (stat): single participant, shared lock,
  /// no log writes at all — the engine's read fast path.
  [[nodiscard]] Transaction plan_stat(ObjectId inode);

  /// Aggregated CREATE (paper §VI future work): all `entries` are created
  /// in `parent_dir` inside ONE transaction, so the directory is locked
  /// once and the protocol overhead is paid once per batch.
  [[nodiscard]] Transaction plan_create_batch(
      ObjectId parent_dir,
      const std::vector<std::pair<std::string, ObjectId>>& entries);

  /// N-participant CREATE: entry k is created in `parent_dir` with its
  /// inode hosted at `homes[k]` (explicit placement, bypassing the
  /// partitioner's place_child).  With the homes spread over k distinct
  /// non-coordinator nodes this yields a 1+k-participant transaction — the
  /// generator for N-way storms.  Per-entry op shapes match plan_create
  /// exactly (AddDentry at the coordinator; CreateInode + IncLink at the
  /// child's home), so every inode ends up referenced by exactly nlink
  /// dentries and the namespace invariant checker stays clean.
  [[nodiscard]] Transaction plan_create_spread(
      ObjectId parent_dir,
      const std::vector<std::pair<std::string, ObjectId>>& entries,
      const std::vector<NodeId>& homes);

  [[nodiscard]] Partitioner& partitioner() { return part_; }
  [[nodiscard]] const OpCosts& costs() const { return costs_; }

 private:
  /// Appends `op` to `node`'s participant, creating it if needed; keeps
  /// `coordinator` as participants[0].
  static void add_op(Transaction& txn, NodeId coordinator, NodeId node,
                     Operation op);

  Partitioner& part_;
  OpCosts costs_;
};

}  // namespace opc
