// Metadata placement: which MDS is responsible for which object.
//
// The paper (Fig. 1) assumes a distribution policy that can place a file's
// inode on a different MDS than its parent directory — that is what makes
// CREATE/DELETE distributed in the first place.  Two policies are provided:
//
//   * HashPartitioner — uniform hash placement of every object; with n MDSs
//     a fraction (n-1)/n of creates is distributed.  This reproduces the
//     paper's motivating scenario of spreading one hot directory's files
//     over all servers.
//   * PinnedPartitioner — explicit per-object homes with a default home for
//     new children; the Figure 6 reproduction pins the hot directory and
//     its new inodes to different MDSs so every create is distributed.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/types.h"
#include "txn/types.h"

namespace opc {

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// The MDS hosting an existing object.
  [[nodiscard]] virtual NodeId home_of(ObjectId obj) const = 0;

  /// Chooses (and remembers, if stateful) the MDS for a new child of
  /// `parent_dir`.
  [[nodiscard]] virtual NodeId place_child(ObjectId parent_dir,
                                           ObjectId child) = 0;

  [[nodiscard]] virtual std::uint32_t cluster_size() const = 0;
};

/// Uniform hash placement (stateless: home == hash(object id)).
class HashPartitioner final : public Partitioner {
 public:
  explicit HashPartitioner(std::uint32_t n_servers) : n_(n_servers) {}

  [[nodiscard]] NodeId home_of(ObjectId obj) const override {
    return NodeId(static_cast<std::uint32_t>(mix(obj.value()) % n_));
  }
  [[nodiscard]] NodeId place_child(ObjectId, ObjectId child) override {
    return home_of(child);
  }
  [[nodiscard]] std::uint32_t cluster_size() const override { return n_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  std::uint32_t n_;
};

/// Fully explicit placement with a default home for new children.  The
/// Figure 6 reproduction uses this to force *every* create to be a
/// distributed transaction: the hot directory is pinned to the coordinator
/// MDS and all new inodes to a different node, matching the paper's "100
/// distributed transactions submitted to the same acp server" workload.
class PinnedPartitioner final : public Partitioner {
 public:
  PinnedPartitioner(std::uint32_t n_servers, NodeId default_child_home)
      : n_(n_servers), default_child_home_(default_child_home) {}

  void assign(ObjectId obj, NodeId home) { placed_[obj] = home; }

  [[nodiscard]] NodeId home_of(ObjectId obj) const override {
    auto it = placed_.find(obj);
    return it != placed_.end() ? it->second : default_child_home_;
  }
  [[nodiscard]] NodeId place_child(ObjectId, ObjectId child) override {
    auto it = placed_.find(child);
    if (it != placed_.end()) return it->second;
    placed_[child] = default_child_home_;
    return default_child_home_;
  }
  [[nodiscard]] std::uint32_t cluster_size() const override { return n_; }

 private:
  std::uint32_t n_;
  NodeId default_child_home_;
  std::unordered_map<ObjectId, NodeId> placed_;
};

}  // namespace opc
