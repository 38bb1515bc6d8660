#include "mds/store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/check.h"

namespace opc {
namespace {
const std::vector<Operation> kNoOps;
constexpr std::size_t kMaxPooledOps = 32;

/// 64-bit hash of a whole dentry name.  Names arrive from the wire, so
/// every byte feeds the state (eight at a time), and FlatHash's splitmix64
/// finalizer spreads the result over the low bits the index masks.
std::uint64_t name_hash(std::string_view name) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ name.size();
  std::size_t i = 0;
  for (; i + 8 <= name.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, name.data() + i, 8);
    h = std::rotl((h ^ w) * 0xbf58476d1ce4e5b9ull, 31);
  }
  std::uint64_t tail = 0;
  if (i < name.size()) std::memcpy(&tail, name.data() + i, name.size() - i);
  return FlatHash{}(h ^ tail);
}
}  // namespace

const char* store_status_name(StoreStatus s) {
  switch (s) {
    case StoreStatus::kOk: return "Ok";
    case StoreStatus::kInodeExists: return "InodeExists";
    case StoreStatus::kInodeNotFound: return "InodeNotFound";
    case StoreStatus::kNotADirectory: return "NotADirectory";
    case StoreStatus::kDentryExists: return "DentryExists";
    case StoreStatus::kDentryNotFound: return "DentryNotFound";
    case StoreStatus::kChildMismatch: return "ChildMismatch";
    case StoreStatus::kLinkUnderflow: return "LinkUnderflow";
    case StoreStatus::kDirNotEmpty: return "DirNotEmpty";
  }
  return "?";
}

// --- DentryTable -----------------------------------------------------------

std::size_t MetaStore::DentryTable::probe(const Dir& d,
                                         std::string_view name) {
  const std::size_t mask = d.slots.size() - 1;
  std::size_t i = name_hash(name) & mask;
  while (d.slots[i] != kFree && d.entries[d.slots[i]].first != name) {
    i = (i + 1) & mask;
  }
  return i;
}

void MetaStore::DentryTable::grow(Dir& d) {
  const std::size_t cap = d.slots.empty() ? 8 : d.slots.size() * 2;
  d.slots.assign(cap, kFree);
  for (std::size_t pos = 0; pos < d.entries.size(); ++pos) {
    d.slots[probe(d, d.entries[pos].first)] = static_cast<std::uint32_t>(pos);
  }
}

std::pair<ObjectId*, bool> MetaStore::DentryTable::try_emplace(
    ObjectId dir, const std::string& name, ObjectId child) {
  Dir& d = dirs_[dir.value()];
  // Keep the load at most 1/2 after this insert; also sizes a new index.
  if ((d.entries.size() + 1) * 2 > d.slots.size()) grow(d);
  const std::size_t slot = probe(d, name);
  if (d.slots[slot] != kFree) return {&d.entries[d.slots[slot]].second, false};
  SIM_CHECK(d.entries.size() < kFree);
  d.slots[slot] = static_cast<std::uint32_t>(d.entries.size());
  d.entries.emplace_back(name, child);
  ++size_;
  return {&d.entries.back().second, true};
}

const ObjectId* MetaStore::DentryTable::find(ObjectId dir,
                                             std::string_view name) const {
  const Dir* d = dirs_.find(dir.value());
  if (d == nullptr) return nullptr;
  const std::uint32_t pos = d->slots[probe(*d, name)];
  return pos == kFree ? nullptr : &d->entries[pos].second;
}

bool MetaStore::DentryTable::erase(ObjectId dir, std::string_view name) {
  Dir* d = dirs_.find(dir.value());
  if (d == nullptr) return false;
  const std::size_t mask = d->slots.size() - 1;
  std::size_t hole = probe(*d, name);
  const std::uint32_t pos = d->slots[hole];
  if (pos == kFree) return false;
  // Backward shift: walk the probe chain after the hole and move back any
  // position whose ideal slot does not lie strictly after the hole.
  d->slots[hole] = kFree;
  for (std::size_t j = (hole + 1) & mask; d->slots[j] != kFree;
       j = (j + 1) & mask) {
    const std::size_t ideal = name_hash(d->entries[d->slots[j]].first) & mask;
    if (((j - ideal) & mask) >= ((j - hole) & mask)) {
      d->slots[hole] = d->slots[j];
      d->slots[j] = kFree;
      hole = j;
    }
  }
  // Fill the entry hole with the last entry and repoint its slot.
  const auto last = static_cast<std::uint32_t>(d->entries.size() - 1);
  if (pos != last) {
    d->slots[probe(*d, d->entries[last].first)] = pos;
    d->entries[pos] = std::move(d->entries[last]);
  }
  d->entries.pop_back();
  --size_;
  if (d->entries.empty()) dirs_.erase(dir.value());
  return true;
}

std::size_t MetaStore::DentryTable::entry_count(ObjectId dir) const {
  const Dir* d = dirs_.find(dir.value());
  return d == nullptr ? 0 : d->entries.size();
}

const MetaStore::DentryTable::Entries* MetaStore::DentryTable::entries(
    ObjectId dir) const {
  const Dir* d = dirs_.find(dir.value());
  return d == nullptr ? nullptr : &d->entries;
}

void MetaStore::DentryTable::clear() {
  dirs_.clear();
  size_ = 0;
}

void MetaStore::DentryTable::clone_from(const DentryTable& o) {
  dirs_.clone_from(o.dirs_);
  size_ = o.size_;
}

// --- MetaStore -------------------------------------------------------------

std::optional<Inode> MetaStore::mem_inode(ObjectId id) const {
  const Inode* ino = mem_inodes_.find(id.value());
  if (ino == nullptr) return std::nullopt;
  return *ino;
}

std::optional<ObjectId> MetaStore::mem_lookup(ObjectId dir,
                                              const std::string& name) const {
  const ObjectId* child = mem_dentries_.find(dir, name);
  if (child == nullptr) return std::nullopt;
  return *child;
}

std::vector<std::pair<std::string, ObjectId>> MetaStore::mem_list_dir(
    ObjectId dir) const {
  const auto* es = mem_dentries_.entries(dir);
  if (es == nullptr) return {};
  std::vector<std::pair<std::string, ObjectId>> out = *es;
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::optional<Inode> MetaStore::effective_inode(TxnId txn, ObjectId id) const {
  std::optional<Inode> ino = mem_inode(id);
  const std::vector<Operation>* pend = pending_.find(txn);
  if (pend == nullptr) return ino;
  for (const Operation& op : *pend) {
    if (op.target != id) continue;
    switch (op.type) {
      case OpType::kCreateInode:
        ino = Inode{id, /*is_dir=*/op.child == id, 0, 0};
        break;
      case OpType::kRemoveInode:
        ino.reset();
        break;
      case OpType::kIncLink:
        if (ino) ++ino->nlink;
        break;
      case OpType::kDecLink:
        if (ino) {
          --ino->nlink;
          if (ino->nlink == 0) ino.reset();
        }
        break;
      case OpType::kSetAttr:
        if (ino) ++ino->version;
        break;
      default:
        break;
    }
  }
  return ino;
}

std::optional<ObjectId> MetaStore::effective_lookup(
    TxnId txn, ObjectId dir, const std::string& name) const {
  std::optional<ObjectId> child = mem_lookup(dir, name);
  const std::vector<Operation>* pend = pending_.find(txn);
  if (pend == nullptr) return child;
  for (const Operation& op : *pend) {
    if (op.target != dir || op.name != name) continue;
    if (op.type == OpType::kAddDentry) child = op.child;
    if (op.type == OpType::kRemoveDentry) child.reset();
  }
  return child;
}

bool MetaStore::effective_dir_empty(TxnId txn, ObjectId dir) const {
  std::size_t entries = mem_dentries_.entry_count(dir);
  if (const std::vector<Operation>* pend = pending_.find(txn)) {
    for (const Operation& op : *pend) {
      if (op.target != dir) continue;
      if (op.type == OpType::kAddDentry) ++entries;
      if (op.type == OpType::kRemoveDentry) --entries;
    }
  }
  return entries == 0;
}

StoreStatus MetaStore::validate(TxnId txn, const Operation& op) const {
  switch (op.type) {
    case OpType::kCreateInode:
      if (effective_inode(txn, op.target)) return StoreStatus::kInodeExists;
      return StoreStatus::kOk;
    case OpType::kRemoveInode: {
      auto ino = effective_inode(txn, op.target);
      if (!ino) return StoreStatus::kInodeNotFound;
      if (ino->is_dir && !effective_dir_empty(txn, op.target)) {
        return StoreStatus::kDirNotEmpty;
      }
      return StoreStatus::kOk;
    }
    case OpType::kSetAttr:
    case OpType::kReadAttr:
    case OpType::kIncLink:
      if (!effective_inode(txn, op.target)) return StoreStatus::kInodeNotFound;
      return StoreStatus::kOk;
    case OpType::kDecLink: {
      auto ino = effective_inode(txn, op.target);
      if (!ino) return StoreStatus::kInodeNotFound;
      if (ino->nlink == 0) return StoreStatus::kLinkUnderflow;
      if (ino->nlink == 1 && ino->is_dir &&
          !effective_dir_empty(txn, op.target)) {
        // The last link is about to drop: an occupied directory must not
        // vanish (it would orphan its children and dangle their dentries).
        return StoreStatus::kDirNotEmpty;
      }
      return StoreStatus::kOk;
    }
    case OpType::kAddDentry: {
      auto dir = effective_inode(txn, op.target);
      if (!dir) return StoreStatus::kInodeNotFound;
      if (!dir->is_dir) return StoreStatus::kNotADirectory;
      if (effective_lookup(txn, op.target, op.name)) {
        return StoreStatus::kDentryExists;
      }
      return StoreStatus::kOk;
    }
    case OpType::kRemoveDentry: {
      auto dir = effective_inode(txn, op.target);
      if (!dir) return StoreStatus::kInodeNotFound;
      if (!dir->is_dir) return StoreStatus::kNotADirectory;
      auto child = effective_lookup(txn, op.target, op.name);
      if (!child) return StoreStatus::kDentryNotFound;
      if (op.child.valid() && *child != op.child) {
        return StoreStatus::kChildMismatch;
      }
      return StoreStatus::kOk;
    }
  }
  return StoreStatus::kOk;
}

StoreStatus MetaStore::apply(TxnId txn, const Operation& op) {
  const StoreStatus st = validate(txn, op);
  if (st != StoreStatus::kOk) return st;
  if (!op_is_read(op.type)) {
    auto [ops, inserted] = pending_.try_emplace(txn);
    if (inserted && !ops_pool_.empty()) {
      *ops = std::move(ops_pool_.back());
      ops_pool_.pop_back();
    }
    ops->push_back(op);
  }
  return StoreStatus::kOk;
}

void MetaStore::apply_to(const Operation& op, InodeTable& inodes,
                         DentryTable& dentries) {
  switch (op.type) {
    case OpType::kCreateInode: {
      // Convention: CreateInode with child==target marks a directory.
      const bool inserted =
          inodes
              .try_emplace(op.target.value(),
                           Inode{op.target, op.child == op.target, 0, 0})
              .second;
      SIM_CHECK_MSG(inserted, "CreateInode on existing inode");
      break;
    }
    case OpType::kRemoveInode:
      SIM_CHECK_MSG(inodes.erase(op.target.value()),
                    "RemoveInode on missing inode");
      break;
    case OpType::kIncLink: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "IncLink on missing inode");
      ++ino->nlink;
      break;
    }
    case OpType::kDecLink: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "DecLink on missing inode");
      SIM_CHECK_MSG(ino->nlink > 0, "DecLink underflow");
      if (--ino->nlink == 0) inodes.erase(op.target.value());
      break;
    }
    case OpType::kSetAttr: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "SetAttr on missing inode");
      ++ino->version;
      break;
    }
    case OpType::kAddDentry:
      SIM_CHECK_MSG(dentries.insert(op.target, op.name, op.child),
                    "AddDentry on existing name");
      break;
    case OpType::kRemoveDentry:
      SIM_CHECK_MSG(dentries.erase(op.target, op.name),
                    "RemoveDentry on missing name");
      break;
    case OpType::kReadAttr:
      break;
  }
}

void MetaStore::recycle_ops(std::vector<Operation>&& ops) {
  if (ops_pool_.size() >= kMaxPooledOps) return;
  ops.clear();
  ops_pool_.push_back(std::move(ops));
}

void MetaStore::commit_mem(TxnId txn) {
  std::vector<Operation>* ops = pending_.find(txn);
  if (ops == nullptr) return;  // read-only or empty share
  SIM_CHECK_MSG(!unflushed_.contains(txn), "commit_mem called twice");
  for (const Operation& op : *ops) {
    apply_to(op, mem_inodes_, mem_dentries_);
  }
  unflushed_.try_emplace(txn, std::move(*ops));
  pending_.erase(txn);
}

void MetaStore::commit_stable(TxnId txn) {
  std::vector<Operation>* ops = unflushed_.find(txn);
  if (ops == nullptr) return;  // read-only or empty share
  for (const Operation& op : *ops) {
    apply_to(op, stable_inodes_, stable_dentries_);
  }
  stable_applied_.insert(txn);
  std::vector<Operation> shell = std::move(*ops);
  unflushed_.erase(txn);
  recycle_ops(std::move(shell));
}

void MetaStore::abort_txn(TxnId txn) {
  SIM_CHECK_MSG(!unflushed_.contains(txn),
                "abort after commit_mem is a protocol bug");
  if (std::vector<Operation>* ops = pending_.find(txn)) {
    std::vector<Operation> shell = std::move(*ops);
    pending_.erase(txn);
    recycle_ops(std::move(shell));
  }
}

void MetaStore::crash() {
  pending_.clear();
  unflushed_.clear();
  mem_inodes_.clone_from(stable_inodes_);
  mem_dentries_.clone_from(stable_dentries_);
}

bool MetaStore::replay_committed(TxnId txn,
                                 const std::vector<Operation>& ops) {
  if (stable_applied_.contains(txn)) return false;
  for (const Operation& op : ops) {
    if (op_is_read(op.type)) continue;
    apply_to(op, stable_inodes_, stable_dentries_);
    apply_to(op, mem_inodes_, mem_dentries_);
  }
  stable_applied_.insert(txn);
  return true;
}

std::optional<Inode> MetaStore::stable_inode(ObjectId id) const {
  const Inode* ino = stable_inodes_.find(id.value());
  if (ino == nullptr) return std::nullopt;
  return *ino;
}

std::optional<ObjectId> MetaStore::stable_lookup(
    ObjectId dir, const std::string& name) const {
  const ObjectId* child = stable_dentries_.find(dir, name);
  if (child == nullptr) return std::nullopt;
  return *child;
}

std::vector<std::tuple<ObjectId, std::string, ObjectId>>
MetaStore::stable_dentries() const {
  std::vector<std::tuple<ObjectId, std::string, ObjectId>> out;
  out.reserve(stable_dentries_.size());
  stable_dentries_.for_each_entry(
      [&out](ObjectId dir, const std::string& name, ObjectId child) {
        out.emplace_back(dir, name, child);
      });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Inode> MetaStore::stable_inodes() const {
  std::vector<Inode> out;
  out.reserve(stable_inodes_.size());
  stable_inodes_.for_each(
      [&out](const std::uint64_t&, const Inode& ino) { out.push_back(ino); });
  std::sort(out.begin(), out.end(),
            [](const Inode& a, const Inode& b) { return a.id < b.id; });
  return out;
}

const std::vector<Operation>& MetaStore::pending_ops(TxnId txn) const {
  const std::vector<Operation>* ops = pending_.find(txn);
  return ops == nullptr ? kNoOps : *ops;
}

void MetaStore::bootstrap_inode(const Inode& ino) {
  mem_inodes_[ino.id.value()] = ino;
  stable_inodes_[ino.id.value()] = ino;
}

void MetaStore::bootstrap_dentry(ObjectId dir, const std::string& name,
                                 ObjectId child) {
  mem_dentries_.upsert(dir, name, child);
  stable_dentries_.upsert(dir, name, child);
}

}  // namespace opc
