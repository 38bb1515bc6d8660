#include "mds/namespace.h"

#include <algorithm>

#include "sim/check.h"

namespace opc {

void NamespacePlanner::add_op(Transaction& txn, NodeId coordinator,
                              NodeId node, Operation op) {
  auto it = std::find_if(
      txn.participants.begin(), txn.participants.end(),
      [node](const Participant& p) { return p.node == node; });
  if (it == txn.participants.end()) {
    // Plans are 1-2 participants with 1-3 ops each; exact reserves keep a
    // plan at one allocation per vector instead of doubling churn.
    if (txn.participants.capacity() == 0) txn.participants.reserve(2);
    txn.participants.push_back(Participant{node, {}});
    it = std::prev(txn.participants.end());
  }
  if (it->ops.capacity() == 0) it->ops.reserve(2);
  it->ops.push_back(std::move(op));
  // Keep the coordinator in front.
  auto c = std::find_if(
      txn.participants.begin(), txn.participants.end(),
      [coordinator](const Participant& p) { return p.node == coordinator; });
  if (c != txn.participants.end() && c != txn.participants.begin()) {
    std::iter_swap(txn.participants.begin(), c);
  }
}

void NamespacePlanner::append_create(Transaction& txn, NodeId coordinator,
                                     ObjectId parent_dir,
                                     const std::string& name, ObjectId inode,
                                     NodeId home, bool is_dir) const {
  SIM_CHECK(inode.valid());
  add_op(txn, coordinator, coordinator,
         Operation{OpType::kAddDentry, parent_dir, inode, name,
                   costs_.dentry_log_bytes, costs_.method_compute});
  add_op(txn, coordinator, home,
         Operation{OpType::kCreateInode, inode, is_dir ? inode : kNoObject, "",
                   costs_.inode_log_bytes, costs_.method_compute});
  add_op(txn, coordinator, home,
         Operation{OpType::kIncLink, inode, kNoObject, "",
                   /*log_bytes=*/0, costs_.method_compute});
}

Transaction NamespacePlanner::plan_create(ObjectId parent_dir,
                                          const std::string& name,
                                          ObjectId new_inode, bool is_dir) {
  SIM_CHECK(parent_dir.valid());
  Transaction txn;
  txn.kind = NamespaceOpKind::kCreate;
  append_create(txn, part_.home_of(parent_dir), parent_dir, name, new_inode,
                part_.home_of(new_inode), is_dir);
  return txn;
}

Transaction NamespacePlanner::plan_delete(ObjectId parent_dir,
                                          const std::string& name,
                                          ObjectId inode) {
  SIM_CHECK(parent_dir.valid() && inode.valid());
  const NodeId coord = part_.home_of(parent_dir);
  const NodeId inode_home = part_.home_of(inode);

  Transaction txn;
  txn.kind = NamespaceOpKind::kDelete;
  add_op(txn, coord, coord,
         Operation{OpType::kRemoveDentry, parent_dir, inode, name,
                   costs_.dentry_log_bytes, costs_.method_compute});
  add_op(txn, coord, inode_home,
         Operation{OpType::kDecLink, inode, kNoObject, "",
                   costs_.inode_log_bytes, costs_.method_compute});
  return txn;
}

Transaction NamespacePlanner::plan_rename(ObjectId src_dir,
                                          const std::string& src_name,
                                          ObjectId dst_dir,
                                          const std::string& dst_name,
                                          ObjectId inode,
                                          std::optional<ObjectId> overwritten) {
  SIM_CHECK(src_dir.valid() && dst_dir.valid() && inode.valid());
  const NodeId coord = part_.home_of(src_dir);

  Transaction txn;
  txn.kind = NamespaceOpKind::kRename;
  add_op(txn, coord, coord,
         Operation{OpType::kRemoveDentry, src_dir, inode, src_name,
                   costs_.dentry_log_bytes, costs_.method_compute});
  if (overwritten) {
    add_op(txn, coord, part_.home_of(dst_dir),
           Operation{OpType::kRemoveDentry, dst_dir, *overwritten, dst_name,
                     costs_.dentry_log_bytes, costs_.method_compute});
    add_op(txn, coord, part_.home_of(*overwritten),
           Operation{OpType::kDecLink, *overwritten, kNoObject, "",
                     costs_.inode_log_bytes, costs_.method_compute});
  }
  add_op(txn, coord, part_.home_of(dst_dir),
         Operation{OpType::kAddDentry, dst_dir, inode, dst_name,
                   costs_.dentry_log_bytes, costs_.method_compute});
  add_op(txn, coord, part_.home_of(inode),
         Operation{OpType::kSetAttr, inode, kNoObject, "",
                   costs_.inode_log_bytes, costs_.method_compute});
  return txn;
}

Transaction NamespacePlanner::plan_create_batch(
    ObjectId parent_dir,
    const std::vector<std::pair<std::string, ObjectId>>& entries,
    const std::vector<NodeId>& homes) {
  SIM_CHECK(parent_dir.valid() && !entries.empty());
  SIM_CHECK_MSG(homes.empty() || homes.size() == entries.size(),
                "one explicit home per entry");
  const NodeId coord = part_.home_of(parent_dir);
  Transaction txn;
  txn.kind = NamespaceOpKind::kCreate;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const auto& [name, inode] = entries[k];
    append_create(txn, coord, parent_dir, name, inode,
                  homes.empty() ? part_.home_of(inode) : homes[k],
                  /*is_dir=*/false);
  }
  return txn;
}

Transaction NamespacePlanner::plan_stat(ObjectId inode) {
  SIM_CHECK(inode.valid());
  const NodeId coord = part_.home_of(inode);
  Transaction txn;
  txn.kind = NamespaceOpKind::kCustom;
  add_op(txn, coord, coord,
         Operation{OpType::kReadAttr, inode, kNoObject, "",
                   /*log_bytes=*/0, costs_.method_compute});
  return txn;
}

}  // namespace opc
