#include "workload/workload.h"

#include <algorithm>
#include <string>

namespace opc {
namespace {

std::variant<PinnedPartitioner, HashPartitioner> placement_for(
    const WorkloadSpec& spec, std::uint32_t n_nodes) {
  if (spec.shape == WorkloadShape::kMixed) return HashPartitioner(n_nodes);
  // Directories are pinned to mds0 as they are made; every inode not
  // placed explicitly lands on mds1.
  return PinnedPartitioner(n_nodes, NodeId(1));
}

}  // namespace

Workload::Workload(Cluster& cluster, const WorkloadSpec& spec,
                   const SourceConfig& source, ThroughputMeter& meter,
                   StatsRegistry& stats)
    : placement_(placement_for(spec, cluster.size())),
      planner_(std::visit([](Partitioner& p) -> Partitioner& { return p; },
                          placement_),
               OpCosts{}) {
  SIM_CHECK(spec.n_dirs >= 1);
  auto* pinned = std::get_if<PinnedPartitioner>(&placement_);
  dirs_.reserve(spec.n_dirs);
  for (std::uint32_t d = 0; d < spec.n_dirs; ++d) {
    const ObjectId dir = ids_.next();
    if (pinned != nullptr) pinned->assign(dir, NodeId(0));
    cluster.bootstrap_directory(dir, planner_.partitioner().home_of(dir));
    dirs_.push_back(dir);
  }

  if (spec.shape == WorkloadShape::kMixed) {
    SIM_CHECK_MSG(spec.batch == 1, "mixed creates are not batched");
    sources_.push_back(std::make_unique<MixedSource>(
        cluster.env(), cluster, source, meter, stats, planner_, ids_, dirs_,
        spec.mix, cluster.config().seed, spec.participants));
    return;
  }

  SIM_CHECK(cluster.size() >= 2);
  SIM_CHECK_MSG(spec.participants >= 2 && spec.participants <= cluster.size(),
                "storm participants need distinct worker nodes");
  std::vector<NodeId> spread;
  for (std::uint32_t w = 1; spec.participants > 2 && w < spec.participants;
       ++w) {
    spread.push_back(NodeId(w));
  }
  SourceConfig per_dir = source;
  per_dir.concurrency = std::max<std::uint32_t>(
      1, source.concurrency / spec.n_dirs);
  for (std::uint32_t d = 0; d < spec.n_dirs; ++d) {
    sources_.push_back(std::make_unique<CreateStormSource>(
        cluster.env(), cluster, per_dir, meter, stats, planner_, ids_,
        dirs_[d], "d" + std::to_string(d) + "_", spec.batch, spread));
  }
}

void Workload::start() {
  for (auto& s : sources_) s->start();
}

void Workload::stop() {
  for (auto& s : sources_) s->stop();
}

std::uint64_t Workload::sum(
    std::uint64_t (ClosedLoopSource::*count)() const) const {
  std::uint64_t n = 0;
  for (const auto& s : sources_) n += (*s.*count)();
  return n;
}

}  // namespace opc
