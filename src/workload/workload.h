// The workload recipe: one namespace plus the closed-loop sources that
// drive it, built on a Cluster from a WorkloadSpec.
//
// Every simulated run that needs "a namespace under load" gets it here, so
// the id allocator, placement policy, planner, bootstrapped directories and
// source wiring exist in exactly one place:
//
//   * kCreateStorm — the paper's Fig. 6 storm (§IV): directories pinned to
//     mds0, every new inode on mds1, so every create is a distributed
//     transaction coordinated by mds0.  `participants` > 2 spreads each
//     create over mds1..mds(participants-1); `batch` > 1 puts that many
//     creates in one transaction instead (the two are alternative shapes).
//     One CreateStormSource per directory, each with concurrency/n_dirs
//     clients, naming its files d<k>_<n>.
//   * kMixed — CREATE/DELETE/RENAME over a hash-partitioned namespace: one
//     MixedSource over all directories, seeded from the cluster's seed.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "workload/source.h"

namespace opc {

enum class WorkloadShape : std::uint8_t { kCreateStorm, kMixed };

struct WorkloadSpec {
  WorkloadShape shape = WorkloadShape::kCreateStorm;
  /// >1 storm directories remove the one directory lock's serialization,
  /// so coordinator-side device contention shows.
  std::uint32_t n_dirs = 1;
  /// 2 is the paper's two-MDS create; wider creates need that many nodes
  /// (1PC degrades past two, src/acp/protocol.h).
  std::uint32_t participants = 2;
  std::uint32_t batch = 1;  // creates per storm transaction (paper §VI)
  MixedSource::Mix mix{};   // operation ratios of the mixed shape
};

class Workload {
 public:
  /// Bootstraps the directories and builds the sources; nothing is
  /// submitted until start().
  Workload(Cluster& cluster, const WorkloadSpec& spec,
           const SourceConfig& source, ThroughputMeter& meter,
           StatsRegistry& stats);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void start();
  /// Stops issuing new work; in-flight transactions drain naturally.
  void stop();

  [[nodiscard]] std::uint64_t committed() const {
    return sum(&ClosedLoopSource::committed);
  }
  [[nodiscard]] std::uint64_t aborted() const {
    return sum(&ClosedLoopSource::aborted);
  }
  [[nodiscard]] std::uint64_t lost() const {
    return sum(&ClosedLoopSource::lost);
  }

  [[nodiscard]] const std::vector<ObjectId>& dirs() const { return dirs_; }
  [[nodiscard]] NamespacePlanner& planner() { return planner_; }
  [[nodiscard]] IdAllocator& ids() { return ids_; }

 private:
  /// `count` summed over every source.
  std::uint64_t sum(std::uint64_t (ClosedLoopSource::*count)() const) const;

  IdAllocator ids_;
  std::variant<PinnedPartitioner, HashPartitioner> placement_;
  NamespacePlanner planner_;
  std::vector<ObjectId> dirs_;
  std::vector<std::unique_ptr<ClosedLoopSource>> sources_;
};

}  // namespace opc
