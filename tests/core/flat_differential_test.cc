// Differential coverage for the flat hot-path containers (core/flat.h) and
// the structures rebuilt on top of them (mds/store.h, lock/lock_manager.h).
//
// The memory-architecture pass swapped std::map / std::unordered_* for
// open-addressing tables on the storm hot path.  The invariant checkers,
// snapshot comparators and readdir all relied on specific semantics of the
// old containers — ordered iteration, erase-anything-anytime, stability of
// values across growth.  Each test here drives the new structure and an
// old-container reference model through the same randomized operation
// sequence and requires identical observable behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flat.h"
#include "env/sim_env.h"
#include "lock/lock_manager.h"
#include "mds/store.h"
#include "sim/simulator.h"

namespace opc {
namespace {

/// Deterministic xorshift so the differential sequences are reproducible.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

TEST(FlatDifferential, MapMatchesUnorderedMapUnderChurn) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.below(512);  // force collisions and reuse
    switch (rng.below(4)) {
      case 0: {  // insert-or-assign via operator[]
        const std::uint64_t v = rng.next();
        flat[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {  // try_emplace must not clobber
        auto [slot, inserted] = flat.try_emplace(key, round);
        const auto r = ref.try_emplace(key, round);
        ASSERT_EQ(inserted, r.second);
        ASSERT_EQ(*slot, r.first->second);
        break;
      }
      case 2: {  // erase returns whether the key existed
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // lookup
        const std::uint64_t* p = flat.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(p != nullptr, it != ref.end());
        if (p != nullptr) {
          ASSERT_EQ(*p, it->second);
        }
      }
    }
  }
  // Full-contents equality, iteration order ignored (neither container
  // promises one; everything order-sensitive sorts explicitly).
  ASSERT_EQ(flat.size(), ref.size());
  std::size_t visited = 0;
  flat.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    ++visited;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(v, it->second);
  });
  ASSERT_EQ(visited, ref.size());
}

TEST(FlatDifferential, SetMatchesStdSetUnderChurn) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> ref;
  Rng rng;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.below(256);
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(flat.insert(key), ref.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(flat.contains(key), ref.count(key) > 0);
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
}

// The checkers drain containers with an "iterate, collect, erase" pattern
// (release_all, reset, crash).  Backward-shift erase makes live iteration
// mutation undefined for FlatMap, so every such site snapshots keys first —
// this test pins that the snapshot-then-erase idiom drains exactly the keys
// a std::map reference drains.
TEST(FlatDifferential, SnapshotThenEraseDrainsLikeOrderedMap) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = rng.next();
    flat[k] = i;
    ref[k] = i;
  }
  std::vector<std::uint64_t> victims;
  flat.for_each([&victims](const std::uint64_t& k, const std::uint64_t& v) {
    if (v % 3 == 0) victims.push_back(k);
  });
  for (const std::uint64_t k : victims) {
    ASSERT_TRUE(flat.erase(k));
    ASSERT_EQ(ref.erase(k), 1u);
  }
  ASSERT_EQ(flat.size(), ref.size());
  ref.erase(ref.begin(), ref.end());  // drain the rest both ways
  std::vector<std::uint64_t> rest;
  flat.for_each(
      [&rest](const std::uint64_t& k, const std::uint64_t&) { rest.push_back(k); });
  for (const std::uint64_t k : rest) ASSERT_TRUE(flat.erase(k));
  ASSERT_TRUE(flat.empty());
  ASSERT_TRUE(ref.empty());
}

// ObjectId keys survive arbitrary growth: every previously inserted id is
// still found (with its value intact) after the table rehashes many times.
// Slot pointers are explicitly NOT stable across growth — the hot paths
// refetch after any insert — so the test validates values, not addresses.
TEST(FlatDifferential, RehashKeepsObjectIdKeysFindable) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::vector<std::uint64_t> ids;
  Rng rng;
  for (int i = 0; i < 50000; ++i) {
    // Realistic ObjectId shapes: small sequential ids plus sparse hashes.
    const std::uint64_t id =
        (i % 2 == 0) ? static_cast<std::uint64_t>(i) : rng.next();
    if (flat.try_emplace(id, id ^ 0xabcdefull).second) ids.push_back(id);
    if (i % 4096 == 0) {
      for (const std::uint64_t seen : ids) {
        const std::uint64_t* p = flat.find(seen);
        ASSERT_NE(p, nullptr) << "id lost across rehash: " << seen;
        ASSERT_EQ(*p, seen ^ 0xabcdefull);
      }
    }
  }
}

// --- MetaStore vs an ordered reference model -------------------------------
//
// The chaos checkers equality-compare stable_dentries()/stable_inodes()
// dumps across crash/recovery, and readdir listings are name-ordered: all
// three depended on std::map's sorted iteration.  Drive the flat-table store and
// a std::map model through one randomized namespace history and require
// identical ordered dumps and listings at every commit.
TEST(FlatDifferential, StoreDumpsMatchOrderedMapModel) {
  MetaStore store{NodeId(0)};
  std::map<std::uint64_t, Inode> ref_inodes;
  std::map<std::pair<std::uint64_t, std::string>, ObjectId> ref_dentries;

  const ObjectId root(1);
  store.bootstrap_inode(Inode{root, true, 1, 0});
  ref_inodes[root.value()] = Inode{root, true, 1, 0};

  Rng rng;
  TxnId txn = 100;
  std::uint64_t next_id = 2;
  std::vector<std::pair<std::uint64_t, std::string>> live;  // (dir, name)
  for (int round = 0; round < 400; ++round) {
    ++txn;
    if (live.empty() || rng.below(3) != 0) {
      // CREATE: new file inode + dentry under root.
      const ObjectId child(next_id++);
      const std::string name = "f" + std::to_string(child.value());
      ASSERT_EQ(store.apply(txn, Operation{OpType::kCreateInode, child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kIncLink, child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kAddDentry, root, child,
                                           name}),
                StoreStatus::kOk);
      store.commit_txn(txn);
      ref_inodes[child.value()] = Inode{child, false, 1, 0};
      ref_dentries[{root.value(), name}] = child;
      live.emplace_back(root.value(), name);
    } else {
      // UNLINK a random live entry.
      const std::size_t pick = rng.below(live.size());
      const auto [dir, name] = live[pick];
      const ObjectId child = ref_dentries.at({dir, name});
      ASSERT_EQ(store.apply(txn, Operation{OpType::kRemoveDentry,
                                           ObjectId(dir), child, name}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kDecLink, child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      store.commit_txn(txn);
      ref_inodes.erase(child.value());
      ref_dentries.erase({dir, name});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    if (round % 25 != 0) continue;
    // Ordered dumps must equal the std::map model's natural iteration.
    const std::vector<Inode> inodes = store.stable_inodes();
    ASSERT_EQ(inodes.size(), ref_inodes.size());
    std::size_t i = 0;
    for (const auto& [id, ino] : ref_inodes) {
      ASSERT_EQ(inodes[i].id.value(), id);
      ASSERT_EQ(inodes[i], ino);
      ++i;
    }
    const auto dentries = store.stable_dentries();
    ASSERT_EQ(dentries.size(), ref_dentries.size());
    i = 0;
    for (const auto& [key, child] : ref_dentries) {
      ASSERT_EQ(std::get<0>(dentries[i]).value(), key.first);
      ASSERT_EQ(std::get<1>(dentries[i]), key.second);
      ASSERT_EQ(std::get<2>(dentries[i]), child);
      ++i;
    }
    // readdir order == the old map's (dir, name) range scan order.
    const auto listing = store.mem_list_dir(root);
    ASSERT_TRUE(std::is_sorted(
        listing.begin(), listing.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
    ASSERT_EQ(listing.size(), ref_dentries.size());
  }
}

// --- Hashed directories vs an ordered model, through split commit + crash --
//
// Each directory is an unordered entry vector plus an open-addressing index
// of positions; erase moves the last entry into the hole and backward-shifts
// the index.  Drive several directories through a create-heavy, an
// erase-heavy and a mixed phase (one hot directory crosses many index
// growths), renames between directories, the split 1PC commit (commit_mem
// now, commit_stable later, in commit order), aborts, and crashes followed
// by replay_committed of a random durable prefix.  Every create also makes
// the child's inode (CreateInode + IncLink), every unlink drops it
// (DecLink to zero), and attribute transactions SetAttr, IncLink and
// DecLink live inodes, so the undo records cover every op kind.
// At every checkpoint — most of them with transactions still unflushed —
// the mem and stable views must answer lookups for every live and some
// removed names and inodes exactly like std::maps, and the ordered dumps,
// counts and readdir listings must equal the maps' iteration.
TEST(FlatDifferential, HashedDirectoriesMatchOrderedModelThroughSplitCommit) {
  using Key = std::pair<std::uint64_t, std::string>;
  using Table = std::map<Key, ObjectId>;
  struct Model {
    Table dentries;
    std::map<std::uint64_t, Inode> inodes;
    bool operator==(const Model&) const = default;
  };
  using Txn = std::pair<TxnId, std::vector<Operation>>;
  constexpr std::uint64_t kDirs = 5;
  constexpr int kRounds = 24000;

  MetaStore store{NodeId(0)};
  Model ref_mem;
  for (std::uint64_t d = 1; d <= kDirs; ++d) {
    const Inode dir{ObjectId(d), true, 1, 0};
    store.bootstrap_inode(dir);
    ref_mem.inodes[d] = dir;
  }
  Model ref_stable = ref_mem;
  std::vector<Key> live;     // keys of ref_mem.dentries, for random picks
  std::vector<Key> removed;  // names that were live once
  std::vector<std::uint64_t> removed_inodes;
  std::deque<Txn> unflushed;  // mem-committed, awaiting commit_stable
  std::optional<Txn> last_flushed;
  Rng rng;
  TxnId txn = 1000;
  std::uint64_t seq = 0;
  std::uint64_t next_child = 1000;
  std::size_t max_hot = 0;
  std::size_t checks_in_flight = 0;  // checkpoints with records unflushed

  auto apply_model = [](Model& m, const std::vector<Operation>& ops) {
    for (const Operation& op : ops) {
      const std::uint64_t id = op.target.value();
      const Key k{id, op.name};
      switch (op.type) {
        case OpType::kAddDentry:
          ASSERT_TRUE(m.dentries.emplace(k, op.child).second);
          break;
        case OpType::kRemoveDentry:
          ASSERT_EQ(m.dentries.erase(k), 1u);
          break;
        case OpType::kCreateInode:
          ASSERT_TRUE(m.inodes
                          .emplace(id, Inode{op.target, op.child == op.target,
                                             0, 0})
                          .second);
          break;
        case OpType::kIncLink:
          ++m.inodes.at(id).nlink;
          break;
        case OpType::kDecLink:
          if (--m.inodes.at(id).nlink == 0) m.inodes.erase(id);
          break;
        case OpType::kSetAttr:
          ++m.inodes.at(id).version;
          break;
        case OpType::kReadAttr:
          break;
      }
    }
  };
  // The oldest unflushed transaction's force completed.
  auto flush_oldest = [&]() {
    store.commit_stable(unflushed.front().first);
    apply_model(ref_stable, unflushed.front().second);
    last_flushed = std::move(unflushed.front());
    unflushed.pop_front();
  };
  auto lookup = [](const Table& t, const Key& k) -> std::optional<ObjectId> {
    const auto it = t.find(k);
    if (it == t.end()) return std::nullopt;
    return it->second;
  };
  auto inode_of = [](const Model& m,
                     std::uint64_t id) -> std::optional<Inode> {
    const auto it = m.inodes.find(id);
    if (it == m.inodes.end()) return std::nullopt;
    return it->second;
  };
  auto pick_dir = [&]() -> std::uint64_t {
    return rng.below(10) < 6 ? 1 : 2 + rng.below(kDirs - 1);
  };
  // Short (inline) names, long names sharing a prefix longer than one hash
  // word, and names of every tail length.
  auto fresh_name = [&]() -> std::string {
    ++seq;
    switch (rng.below(4)) {
      case 0: return std::to_string(seq);
      case 1: return "f" + std::to_string(seq);
      case 2: return "a_long_shared_prefix_" + std::to_string(seq);
      default: return std::string(1 + rng.below(12), 'x') + std::to_string(seq);
    }
  };
  auto check = [&]() {
    if (!unflushed.empty()) ++checks_in_flight;
    for (const auto& [k, child] : ref_mem.dentries) {
      const auto got = store.mem_lookup(ObjectId(k.first), k.second);
      ASSERT_TRUE(got.has_value()) << k.first << "/" << k.second;
      ASSERT_EQ(*got, child);
    }
    for (const auto& [k, child] : ref_stable.dentries) {
      const auto got = store.stable_lookup(ObjectId(k.first), k.second);
      ASSERT_TRUE(got.has_value()) << k.first << "/" << k.second;
      ASSERT_EQ(*got, child);
    }
    for (int i = 0; i < 256 && !removed.empty(); ++i) {
      const Key& k = removed[rng.below(removed.size())];
      ASSERT_EQ(store.mem_lookup(ObjectId(k.first), k.second),
                lookup(ref_mem.dentries, k));
      ASSERT_EQ(store.stable_lookup(ObjectId(k.first), k.second),
                lookup(ref_stable.dentries, k));
    }
    const auto dump = store.stable_dentries();
    ASSERT_EQ(dump.size(), ref_stable.dentries.size());
    ASSERT_EQ(store.stable_dentry_count(), ref_stable.dentries.size());
    std::size_t i = 0;
    for (const auto& [k, child] : ref_stable.dentries) {
      ASSERT_EQ(std::get<0>(dump[i]).value(), k.first);
      ASSERT_EQ(std::get<1>(dump[i]), k.second);
      ASSERT_EQ(std::get<2>(dump[i]), child);
      ++i;
    }
    for (std::uint64_t d = 1; d <= kDirs; ++d) {
      const auto listing = store.mem_list_dir(ObjectId(d));
      if (d == 1) max_hot = std::max(max_hot, listing.size());
      auto it = ref_mem.dentries.lower_bound(Key{d, ""});
      for (const auto& [name, child] : listing) {
        ASSERT_NE(it, ref_mem.dentries.end());
        ASSERT_EQ(it->first, (Key{d, name}));
        ASSERT_EQ(it->second, child);
        ++it;
      }
      ASSERT_TRUE(it == ref_mem.dentries.end() || it->first.first != d);
    }
    // Inodes: point lookups in both views, the ordered dump and the count.
    for (const auto& [id, ino] : ref_mem.inodes) {
      ASSERT_EQ(store.mem_inode(ObjectId(id)), ino) << id;
    }
    for (const auto& [id, ino] : ref_stable.inodes) {
      ASSERT_EQ(store.stable_inode(ObjectId(id)), ino) << id;
    }
    for (int j = 0; j < 256 && !removed_inodes.empty(); ++j) {
      const std::uint64_t id = removed_inodes[rng.below(removed_inodes.size())];
      ASSERT_EQ(store.mem_inode(ObjectId(id)), inode_of(ref_mem, id)) << id;
      ASSERT_EQ(store.stable_inode(ObjectId(id)), inode_of(ref_stable, id))
          << id;
    }
    const std::vector<Inode> inodes = store.stable_inodes();
    ASSERT_EQ(inodes.size(), ref_stable.inodes.size());
    ASSERT_EQ(store.stable_inode_count(), ref_stable.inodes.size());
    i = 0;
    for (const auto& [id, ino] : ref_stable.inodes) {
      ASSERT_EQ(inodes[i], ino);
      ++i;
    }
  };

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(round);
    const std::uint64_t create_share =
        round < 8000 ? 80 : (round < 16000 ? 25 : 55);
    ++txn;
    std::vector<Operation> ops;
    std::size_t victim = live.size();
    const std::uint64_t r = rng.below(100);
    if (!live.empty() && rng.below(10) == 0) {
      // Attribute transaction on a live inode: touch it, or move its link
      // count without reaching zero.
      const ObjectId child = ref_mem.dentries.at(live[rng.below(live.size())]);
      const std::uint32_t nlink = ref_mem.inodes.at(child.value()).nlink;
      ops.push_back(Operation{OpType::kSetAttr, child, ObjectId{}, ""});
      const std::uint64_t link = rng.below(3);
      if (link == 1 && nlink < 3) {
        ops.push_back(Operation{OpType::kIncLink, child, ObjectId{}, ""});
      } else if (link == 2 && nlink > 1) {
        ops.push_back(Operation{OpType::kDecLink, child, ObjectId{}, ""});
      }
    } else if (live.empty() || r < create_share) {
      Key k{pick_dir(), ""};
      // Every fifth create reuses a removed name when it is free again.
      if (!removed.empty() && rng.below(5) == 0) {
        const Key& old = removed[rng.below(removed.size())];
        if (!ref_mem.dentries.contains(old)) k = old;
      }
      if (k.second.empty()) k.second = fresh_name();
      const ObjectId child(next_child++);
      ops.push_back(Operation{OpType::kCreateInode, child, ObjectId{}, ""});
      ops.push_back(Operation{OpType::kIncLink, child, ObjectId{}, ""});
      ops.push_back(
          Operation{OpType::kAddDentry, ObjectId(k.first), child, k.second});
    } else {
      victim = rng.below(live.size());
      const Key from = live[victim];
      const ObjectId child = ref_mem.dentries.at(from);
      ops.push_back(Operation{OpType::kRemoveDentry, ObjectId(from.first),
                              child, from.second});
      if (r < create_share + 15) {  // rename, possibly keeping the name
        Key to{pick_dir(), from.second};
        if (rng.below(2) == 0 ||
            (to != from && ref_mem.dentries.contains(to))) {
          to.second = fresh_name();
        }
        ops.push_back(Operation{OpType::kAddDentry, ObjectId(to.first), child,
                                to.second});
        if (rng.below(2) == 0) {
          ops.push_back(Operation{OpType::kSetAttr, child, ObjectId{}, ""});
        }
      } else {
        // Unlink drops the inode: one DecLink per remaining link.
        const std::uint32_t nlink = ref_mem.inodes.at(child.value()).nlink;
        for (std::uint32_t l = 0; l < nlink; ++l) {
          ops.push_back(Operation{OpType::kDecLink, child, ObjectId{}, ""});
        }
      }
    }
    for (const Operation& op : ops) {
      ASSERT_EQ(store.apply(txn, op), StoreStatus::kOk);
    }

    const std::uint64_t outcome = rng.below(100);
    if (outcome < 4) {
      store.abort_txn(txn);
    } else {
      if (unflushed.empty() && outcome < 50) {
        store.commit_txn(txn);
        ASSERT_NO_FATAL_FAILURE(apply_model(ref_stable, ops));
        last_flushed = Txn{txn, ops};
      } else {
        store.commit_mem(txn);  // 1PC: visible before the force
        unflushed.emplace_back(txn, ops);
      }
      ASSERT_NO_FATAL_FAILURE(apply_model(ref_mem, ops));
      if (victim < live.size()) {
        removed.push_back(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
      for (const Operation& op : ops) {
        if (op.type == OpType::kAddDentry) {
          live.emplace_back(op.target.value(), op.name);
        }
        if (op.type == OpType::kDecLink) {
          removed_inodes.push_back(op.target.value());
        }
      }
    }
    // The force completes later; stable state follows commit order.
    while (!unflushed.empty() && rng.below(100) < 40) {
      ASSERT_NO_FATAL_FAILURE(flush_oldest());
    }
    ASSERT_EQ(store.unflushed_txns(), unflushed.size());

    if (round % 1500 == 1499) {
      // Crash with one transaction still cached and a random prefix of the
      // unflushed ones durable in the log; recovery replays that prefix.
      ++txn;
      const Key cached{1, fresh_name()};
      const ObjectId cached_child(next_child++);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kCreateInode, cached_child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kAddDentry,
                                           ObjectId(cached.first),
                                           cached_child, cached.second}),
                StoreStatus::kOk);
      removed.push_back(cached);
      removed_inodes.push_back(cached_child.value());
      const std::size_t durable = rng.below(unflushed.size() + 1);
      store.crash();
      for (std::size_t i = 0; i < durable; ++i) {
        ASSERT_TRUE(store.replay_committed(unflushed[i].first,
                                           unflushed[i].second));
        ASSERT_NO_FATAL_FAILURE(apply_model(ref_stable, unflushed[i].second));
      }
      if (last_flushed) {
        ASSERT_FALSE(store.replay_committed(last_flushed->first,
                                            last_flushed->second));
      }
      unflushed.clear();
      ASSERT_EQ(store.unflushed_txns(), 0u);
      ASSERT_TRUE(store.pending_ops(txn).empty());
      ref_mem = ref_stable;
      live.clear();
      for (const auto& [k, child] : ref_mem.dentries) live.push_back(k);
      ASSERT_NO_FATAL_FAILURE(check());
    } else if (round % 500 == 0) {
      ASSERT_NO_FATAL_FAILURE(check());
    }
  }
  while (!unflushed.empty()) {
    ASSERT_NO_FATAL_FAILURE(flush_oldest());
  }
  ASSERT_NO_FATAL_FAILURE(check());
  ASSERT_EQ(ref_mem, ref_stable);
  // The hot directory's index grew from 8 slots to at least 4096.
  EXPECT_GE(max_hot, 2048u);
  // Most mid-run checkpoints saw the stable view through undo records.
  EXPECT_GE(checks_in_flight, 10u);
}

// --- Lock manager vs a FIFO reference model --------------------------------
//
// The lock table's unordered_map+unordered_set trio became pooled flat
// structures; what must survive is the queueing discipline: FIFO grants per
// resource, shared coalescing, and release_all dropping every hold.  Replay
// a contention scenario and compare the observable grant order against a
// hand-computed reference.
TEST(FlatDifferential, LockQueueKeepsFifoGrantOrder) {
  Simulator sim;
  SimEnv env(sim);
  StatsRegistry stats;
  TraceRecorder trace(false);
  LockManager lm(env, "diff", stats, trace);

  std::vector<std::uint64_t> grants;
  const std::uint64_t kRes = 7;
  lm.acquire(1, kRes, LockMode::kExclusive, [&grants] { grants.push_back(1); });
  for (std::uint64_t t = 2; t <= 6; ++t) {
    lm.acquire(t, kRes, LockMode::kExclusive,
               [&grants, t] { grants.push_back(t); });
  }
  sim.run();
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{1}));
  for (std::uint64_t t = 1; t <= 6; ++t) {
    lm.release_all(t);
    sim.run();
  }
  // Waiters drained strictly in arrival order.
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));

  // Shared coalescing: S holders stack, a later X waits for all of them.
  grants.clear();
  lm.acquire(10, kRes, LockMode::kShared, [&grants] { grants.push_back(10); });
  lm.acquire(11, kRes, LockMode::kShared, [&grants] { grants.push_back(11); });
  lm.acquire(12, kRes, LockMode::kExclusive,
             [&grants] { grants.push_back(12); });
  sim.run();
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{10, 11}));
  lm.release_all(10);
  sim.run();
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{10, 11}));  // 11 still holds
  lm.release_all(11);
  sim.run();
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{10, 11, 12}));
  lm.release_all(12);
  sim.run();
}

}  // namespace
}  // namespace opc
