#include "mds/store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/check.h"

namespace opc {
namespace {
const std::vector<Operation> kNoOps;
const auto kAllOps = [](const Operation&) { return true; };
constexpr std::size_t kMaxPooledOps = 32;

bool is_dentry_op(OpType t) {
  return t == OpType::kAddDentry || t == OpType::kRemoveDentry;
}

/// True if both ops write the same inode or the same (dir, name) dentry.
bool same_key(const Operation& a, const Operation& b) {
  return a.target == b.target && is_dentry_op(a.type) == is_dentry_op(b.type) &&
         (!is_dentry_op(a.type) || a.name == b.name);
}

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

// --- MetaStore -------------------------------------------------------------

std::optional<Inode> MetaStore::mem_inode(ObjectId id) const {
  const Inode* ino = inodes_.find(id.value());
  if (ino == nullptr) return std::nullopt;
  return *ino;
}

std::optional<ObjectId> MetaStore::mem_lookup(ObjectId dir,
                                              const std::string& name) const {
  const ObjectId* child = dentries_.find(dir, name);
  if (child == nullptr) return std::nullopt;
  return *child;
}

std::vector<std::pair<std::string, ObjectId>> MetaStore::mem_list_dir(
    ObjectId dir) const {
  const auto* es = dentries_.entries(dir);
  if (es == nullptr) return {};
  std::vector<std::pair<std::string, ObjectId>> out = *es;
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::optional<Inode> MetaStore::effective_inode(TxnId txn, ObjectId id) const {
  std::optional<Inode> ino = mem_inode(id);
  const TxnOps* pend = pending_.find(txn);
  if (pend == nullptr) return ino;
  for (const Operation& op : pend->ops) {
    if (op.target != id) continue;
    switch (op.type) {
      case OpType::kCreateInode:
        ino = Inode{id, /*is_dir=*/op.child == id, 0, 0};
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
  const TxnOps* pend = pending_.find(txn);
  if (pend == nullptr) return child;
  for (const Operation& op : pend->ops) {
    if (op.target != dir || op.name != name) continue;
    if (op.type == OpType::kAddDentry) child = op.child;
    if (op.type == OpType::kRemoveDentry) child.reset();
  }
  return child;
}

bool MetaStore::effective_dir_empty(TxnId txn, ObjectId dir) const {
  std::size_t entries = dentries_.entry_count(dir);
  if (const TxnOps* pend = pending_.find(txn)) {
    for (const Operation& op : pend->ops) {
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
    auto [rec, inserted] = pending_.try_emplace(txn);
    if (inserted && !ops_pool_.empty()) {
      *rec = std::move(ops_pool_.back());
      ops_pool_.pop_back();
    }
    rec->ops.push_back(op);
  }
  return StoreStatus::kOk;
}

void MetaStore::apply_to(const Operation& op, PreImage* pre) {
  const std::uint64_t id = op.target.value();
  // Inode ops other than CreateInode: the inode was validated to exist.
  auto live_inode = [&](const char* what) {
    Inode* ino = inodes_.find(id);
    SIM_CHECK_MSG(ino != nullptr, what);
    if (pre != nullptr) *pre = PreImage{true, *ino, ObjectId{}};
    return ino;
  };
  switch (op.type) {
    case OpType::kCreateInode: {
      // Convention: CreateInode with child==target marks a directory.
      const bool inserted =
          inodes_.try_emplace(id, Inode{op.target, op.child == op.target, 0, 0})
              .second;
      SIM_CHECK_MSG(inserted, "CreateInode on existing inode");
      if (pre != nullptr) *pre = PreImage{};
      break;
    }
    case OpType::kIncLink:
      ++live_inode("IncLink on missing inode")->nlink;
      break;
    case OpType::kDecLink: {
      Inode* ino = live_inode("DecLink on missing inode");
      SIM_CHECK_MSG(ino->nlink > 0, "DecLink underflow");
      if (--ino->nlink == 0) inodes_.erase(id);
      break;
    }
    case OpType::kSetAttr:
      ++live_inode("SetAttr on missing inode")->version;
      break;
    case OpType::kAddDentry:
      SIM_CHECK_MSG(dentries_.insert(op.target, op.name, op.child),
                    "AddDentry on existing name");
      if (pre != nullptr) *pre = PreImage{};
      break;
    case OpType::kRemoveDentry: {
      const ObjectId* child = dentries_.find(op.target, op.name);
      SIM_CHECK_MSG(child != nullptr, "RemoveDentry on missing name");
      if (pre != nullptr) *pre = PreImage{true, Inode{}, *child};
      dentries_.erase(op.target, op.name);
      break;
    }
    case OpType::kReadAttr:
      break;
  }
}

void MetaStore::restore(const TxnOps& rec) {
  for (std::size_t i = rec.ops.size(); i-- > 0;) {
    const Operation& op = rec.ops[i];
    const PreImage& pre = rec.pre[i];
    if (is_dentry_op(op.type)) {
      if (pre.existed) {
        dentries_.upsert(op.target, op.name, pre.child);
      } else {
        dentries_.erase(op.target, op.name);
      }
    } else if (pre.existed) {
      inodes_[op.target.value()] = pre.inode;
    } else {
      inodes_.erase(op.target.value());
    }
  }
}

void MetaStore::check_stable_order(std::uint64_t seq,
                                   const std::vector<Operation>& ops) const {
  unflushed_.for_each([&](const TxnId&, const TxnOps& older) {
    if (older.seq >= seq) return;
    for (const Operation& held : older.ops) {
      for (const Operation& op : ops) {
        SIM_CHECK_MSG(op_is_read(op.type) || !same_key(held, op),
                      "transaction became stable ahead of an older "
                      "unflushed write to the same key");
      }
    }
  });
}

void MetaStore::recycle_ops(TxnOps&& rec) {
  if (ops_pool_.size() >= kMaxPooledOps) return;
  rec.ops.clear();
  rec.pre.clear();
  ops_pool_.push_back(std::move(rec));
}

void MetaStore::commit_mem(TxnId txn) {
  TxnOps* rec = pending_.find(txn);
  if (rec == nullptr) return;  // read-only or empty share
  SIM_CHECK_MSG(!unflushed_.contains(txn), "commit_mem called twice");
  rec->pre.resize(rec->ops.size());
  for (std::size_t i = 0; i < rec->ops.size(); ++i) {
    apply_to(rec->ops[i], &rec->pre[i]);
  }
  rec->seq = next_seq_++;
  unflushed_.try_emplace(txn, std::move(*rec));
  pending_.erase(txn);
}

void MetaStore::commit_stable(TxnId txn) {
  TxnOps* rec = unflushed_.find(txn);
  if (rec == nullptr) return;  // read-only or empty share
  check_stable_order(rec->seq, rec->ops);
  stable_applied_.insert(txn);
  TxnOps shell = std::move(*rec);
  unflushed_.erase(txn);
  recycle_ops(std::move(shell));
}

void MetaStore::commit_txn(TxnId txn) {
  TxnOps* rec = pending_.find(txn);
  if (rec == nullptr) return;  // read-only or empty share
  SIM_CHECK_MSG(!unflushed_.contains(txn), "commit_txn after commit_mem");
  check_stable_order(UINT64_MAX, rec->ops);
  for (const Operation& op : rec->ops) apply_to(op, nullptr);
  stable_applied_.insert(txn);
  TxnOps shell = std::move(*rec);
  pending_.erase(txn);
  recycle_ops(std::move(shell));
}

void MetaStore::abort_txn(TxnId txn) {
  SIM_CHECK_MSG(!unflushed_.contains(txn),
                "abort after commit_mem is a protocol bug");
  if (TxnOps* rec = pending_.find(txn)) {
    TxnOps shell = std::move(*rec);
    pending_.erase(txn);
    recycle_ops(std::move(shell));
  }
}

void MetaStore::crash() {
  pending_.clear();
  std::vector<const TxnOps*> newest_first;
  newest_first.reserve(unflushed_.size());
  unflushed_.for_each([&newest_first](const TxnId&, const TxnOps& rec) {
    newest_first.push_back(&rec);
  });
  std::sort(newest_first.begin(), newest_first.end(),
            [](const TxnOps* a, const TxnOps* b) { return a->seq > b->seq; });
  for (const TxnOps* rec : newest_first) restore(*rec);
  unflushed_.clear();
}

bool MetaStore::replay_committed(TxnId txn,
                                 const std::vector<Operation>& ops) {
  if (stable_applied_.contains(txn)) return false;
  check_stable_order(UINT64_MAX, ops);
  for (const Operation& op : ops) apply_to(op, nullptr);
  stable_applied_.insert(txn);
  return true;
}

// Visits the unflushed records in no particular order and keeps, per
// matching key, the pre-image of the record with the lowest seq; within
// one record the first op to touch a key saved its pre-image.
template <class Match>
MetaStore::StableOverlay MetaStore::stable_overlay(Match&& match) const {
  StableOverlay ov;
  const SeqPreImage none{UINT64_MAX, nullptr};
  unflushed_.for_each([&](const TxnId&, const TxnOps& rec) {
    for (std::size_t j = 0; j < rec.ops.size(); ++j) {
      const Operation& op = rec.ops[j];
      if (!match(op)) continue;
      SeqPreImage& slot =
          is_dentry_op(op.type)
              ? ov.dentries.try_emplace({op.target.value(), op.name}, none)
                    .first->second
              : ov.inodes.try_emplace(op.target.value(), none).first->second;
      if (rec.seq < slot.first) slot = {rec.seq, &rec.pre[j]};
    }
  });
  return ov;
}

std::optional<Inode> MetaStore::stable_inode(ObjectId id) const {
  const StableOverlay ov = stable_overlay([id](const Operation& op) {
    return !is_dentry_op(op.type) && op.target == id;
  });
  if (ov.inodes.empty()) return mem_inode(id);
  const PreImage* oldest = ov.inodes.begin()->second.second;
  if (!oldest->existed) return std::nullopt;
  return oldest->inode;
}

std::optional<ObjectId> MetaStore::stable_lookup(
    ObjectId dir, const std::string& name) const {
  const StableOverlay ov = stable_overlay([&dir, &name](const Operation& op) {
    return is_dentry_op(op.type) && op.target == dir && op.name == name;
  });
  if (ov.dentries.empty()) return mem_lookup(dir, name);
  const PreImage* oldest = ov.dentries.begin()->second.second;
  if (!oldest->existed) return std::nullopt;
  return oldest->child;
}

std::size_t MetaStore::stable_inode_count() const {
  return unflushed_.empty() ? inodes_.size() : stable_inodes().size();
}

std::size_t MetaStore::stable_dentry_count() const {
  return unflushed_.empty() ? dentries_.size() : stable_dentries().size();
}

std::vector<std::tuple<ObjectId, std::string, ObjectId>>
MetaStore::stable_dentries() const {
  const StableOverlay ov = stable_overlay(kAllOps);
  std::vector<std::tuple<ObjectId, std::string, ObjectId>> out;
  out.reserve(dentries_.size());
  dentries_.for_each_entry(
      [&](ObjectId dir, const std::string& name, ObjectId child) {
        if (!ov.dentries.contains({dir.value(), name})) {
          out.emplace_back(dir, name, child);
        }
      });
  for (const auto& [key, seq_pre] : ov.dentries) {
    const PreImage* pre = seq_pre.second;
    if (pre->existed) {
      out.emplace_back(ObjectId(key.first), std::string(key.second),
                       pre->child);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Inode> MetaStore::stable_inodes() const {
  const StableOverlay ov = stable_overlay(kAllOps);
  std::vector<Inode> out;
  out.reserve(inodes_.size());
  inodes_.for_each([&](const std::uint64_t& id, const Inode& ino) {
    if (!ov.inodes.contains(id)) out.push_back(ino);
  });
  for (const auto& [id, seq_pre] : ov.inodes) {
    if (seq_pre.second->existed) out.push_back(seq_pre.second->inode);
  }
  std::sort(out.begin(), out.end(),
            [](const Inode& a, const Inode& b) { return a.id < b.id; });
  return out;
}

const std::vector<Operation>& MetaStore::pending_ops(TxnId txn) const {
  const TxnOps* rec = pending_.find(txn);
  return rec == nullptr ? kNoOps : rec->ops;
}

void MetaStore::bootstrap_inode(const Inode& ino) {
  inodes_[ino.id.value()] = ino;
}

void MetaStore::bootstrap_dentry(ObjectId dir, const std::string& name,
                                 ObjectId child) {
  dentries_.upsert(dir, name, child);
}

}  // namespace opc
