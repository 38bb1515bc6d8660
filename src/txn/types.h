// Transaction-layer vocabulary: metadata objects, operations, transactions.
//
// A distributed namespace operation (paper §II) decomposes into primitive
// metadata *methods* executed at specific MDSs — e.g. DELETE(file1) =
// [RemoveDentry @ MDS of dir] + [DecLink @ MDS of inode, which drops the
// inode at its last link].  The commit protocols move vectors of these Operations around;
// the MDS layer interprets them against its tables.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace opc {

/// Cluster-global metadata object identifier (an inode number; directories
/// are inodes too).  Doubles as the lock resource key.
class ObjectId {
 public:
  constexpr ObjectId() = default;
  explicit constexpr ObjectId(std::uint64_t v) : v_(v) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }
  [[nodiscard]] constexpr bool valid() const { return v_ != 0; }
  constexpr auto operator<=>(const ObjectId&) const = default;

 private:
  std::uint64_t v_ = 0;  // 0 = invalid / none
};

inline constexpr ObjectId kNoObject{};

using TxnId = std::uint64_t;

/// Primitive metadata methods.
enum class OpType : std::uint8_t {
  kCreateInode = 1,   // target = new inode id
  kIncLink = 3,       // target = inode id
  kDecLink = 4,       // target = inode id; removes the inode at nlink==0
  kAddDentry = 5,     // target = directory inode, name + child
  kRemoveDentry = 6,  // target = directory inode, name
  kSetAttr = 7,       // target = inode id (attribute touch)
  kReadAttr = 8,      // target = inode id, read-only (shared lock)
};

[[nodiscard]] const char* op_type_name(OpType t);

/// True for methods that only read (lock in shared mode).
[[nodiscard]] constexpr bool op_is_read(OpType t) {
  return t == OpType::kReadAttr;
}

/// One metadata method at one MDS.
struct Operation {
  OpType type = OpType::kSetAttr;
  ObjectId target;            // object operated on (locked)
  ObjectId child;             // for dentry ops: the referenced inode
  std::string name;           // for dentry ops: the entry name
  std::uint64_t log_bytes = 2048;      // modeled WAL footprint of the update
  Duration compute = Duration::micros(1);  // paper: 1 µs per method

  [[nodiscard]] bool operator==(const Operation&) const = default;
};

/// Serializes operations into an opaque payload (for REDO log records and
/// UPDATE_REQ messages).  Round-trips exactly; see tests/txn.
/// encode_ops reserves the exact encoded size up front, so a fresh payload
/// costs one allocation — these run per log record on the commit hot path.
[[nodiscard]] std::size_t ops_wire_size(const std::vector<Operation>& ops);
void encode_ops(const std::vector<Operation>& ops,
                std::vector<std::uint8_t>& out);
[[nodiscard]] bool decode_ops(const std::vector<std::uint8_t>& buf,
                              std::vector<Operation>& out);

/// What kind of namespace operation a transaction implements (for stats and
/// workload accounting; the protocols do not branch on it).
enum class NamespaceOpKind : std::uint8_t {
  kCreate,
  kDelete,
  kRename,
  kCustom,
};

[[nodiscard]] const char* namespace_op_name(NamespaceOpKind k);

enum class TxnOutcome : std::uint8_t { kPending, kCommitted, kAborted };

/// One participant's share of a transaction.  participants[0] is always the
/// coordinator.
struct Participant {
  NodeId node;
  std::vector<Operation> ops;
};

/// A distributed transaction as submitted to a coordinator MDS.
struct Transaction {
  TxnId id = 0;
  NamespaceOpKind kind = NamespaceOpKind::kCustom;
  std::vector<Participant> participants;

  [[nodiscard]] NodeId coordinator() const {
    return participants.empty() ? kNoNode : participants.front().node;
  }
  /// Indexed participant view: participant(0) is the coordinator,
  /// participant(1..n_workers()) are the workers.
  [[nodiscard]] const Participant& participant(std::size_t i) const {
    return participants[i];
  }
  [[nodiscard]] std::size_t n_workers() const {
    return participants.empty() ? 0 : participants.size() - 1;
  }
  /// The sole worker of a two-party transaction.  1PC's unilateral worker
  /// commit and its fence-and-read recovery rule are defined only for this
  /// shape (choose_protocol degrades wider transactions); kNoNode otherwise.
  [[nodiscard]] NodeId sole_worker() const {
    return participants.size() == 2 ? participants[1].node : kNoNode;
  }
  [[nodiscard]] bool is_local() const { return participants.size() <= 1; }
  [[nodiscard]] std::size_t n_participants() const {
    return participants.size();
  }

  /// Every object the transaction touches at `node`, for locking.
  [[nodiscard]] std::vector<ObjectId> objects_at(NodeId node) const;
};

}  // namespace opc

template <>
struct std::hash<opc::ObjectId> {
  std::size_t operator()(const opc::ObjectId& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
