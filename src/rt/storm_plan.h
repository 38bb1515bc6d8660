// Pre-planned create storms shared by the rt backend and the sim/rt
// differential test.
//
// Timing-independent by construction: every transaction (coordinator,
// participants, object ids, names) is fixed before the run starts, so two
// executions — one on the deterministic simulator, one on live threads —
// that both drain the plan must converge to the same namespace and the
// same commit/abort totals no matter how their schedules interleave.
//
// Shape: node i owns hot directory dirs[i] and coordinates ops_per_node
// transactions into it.  With `participants` = 2 (the default) each
// transaction creates one file whose inode lands on node (i+1) % n — the
// paper's Fig. 1 two-party scenario, the widest shape 1PC commits without
// degrading.  Wider plans create participants-1 files per transaction, one
// per worker node (i+1)%n .. (i+participants-1)%n, all distinct and never
// the coordinator; 1PC then runs these as presumed-abort (choose_protocol's
// degrade rule, src/acp/protocol.h).
#pragma once

#include <cstdint>
#include <vector>

#include "mds/namespace.h"
#include "txn/types.h"

namespace opc {

/// Stateless placement behind the plan: directory ids 1..n live on node
/// id-1; inode ids are allocated in strides so creator node i's files land
/// on node (i+1) % n.  Thread-safe (pure functions of the id).
class StridedPartitioner final : public Partitioner {
 public:
  explicit StridedPartitioner(std::uint32_t n_nodes) : n_(n_nodes) {}

  [[nodiscard]] NodeId home_of(ObjectId obj) const override {
    const std::uint64_t v = obj.value();
    if (v >= 1 && v <= n_) {  // hot directories
      return NodeId(static_cast<std::uint32_t>(v - 1));
    }
    const std::uint64_t k = v - inode_base();
    return NodeId(static_cast<std::uint32_t>((k % n_ + 1) % n_));
  }
  [[nodiscard]] std::uint32_t cluster_size() const override { return n_; }

  /// First inode id (directories occupy 1..n).
  [[nodiscard]] std::uint64_t inode_base() const { return n_ + 1; }

  /// Inode id of entry `c` of node `i`'s `j`-th transaction in a
  /// `participants`-wide plan: base + (j*(participants-1)+c)*n + (i+c)%n.
  /// The id's residue mod n is (i+c)%n, so home_of places it on node
  /// (i+c+1)%n: entries c = 0..participants-2 land on participants-1
  /// distinct nodes, none of them coordinator i (needs participants <= n).
  /// The quotient (j*(participants-1)+c) decomposes uniquely back into
  /// (j, c), so ids never collide across transactions.  For participants=2
  /// (c=0) this is exactly the classic base + j*n + i stride.
  [[nodiscard]] ObjectId inode_id(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t c = 0,
                                  std::uint32_t participants = 2) const {
    const std::uint64_t q =
        static_cast<std::uint64_t>(j) * (participants - 1) + c;
    return ObjectId(inode_base() + q * n_ + (i + c) % n_);
  }

 private:
  std::uint32_t n_;
};

struct StormPlan {
  std::uint32_t n_nodes = 0;
  std::vector<ObjectId> dirs;                      // dirs[i] homed on node i
  std::vector<std::vector<Transaction>> per_node;  // coordinated by node i
};

/// Builds the plan.  Pure function of (n_nodes, ops_per_node,
/// participants); both backends consume the identical transaction set.
/// `participants` = 2 reproduces the classic two-party plan byte for byte;
/// wider values need participants <= n_nodes.
[[nodiscard]] StormPlan make_storm_plan(std::uint32_t n_nodes,
                                        std::uint32_t ops_per_node,
                                        std::uint32_t participants = 2);

}  // namespace opc
