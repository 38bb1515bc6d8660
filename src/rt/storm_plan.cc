#include "rt/storm_plan.h"

#include <string>

#include "sim/check.h"

namespace opc {

StormPlan make_storm_plan(std::uint32_t n_nodes, std::uint32_t ops_per_node,
                          std::uint32_t participants) {
  SIM_CHECK_MSG(participants >= 2 && participants <= n_nodes,
                "plan workers must be distinct non-coordinator nodes");
  StormPlan plan;
  plan.n_nodes = n_nodes;

  StridedPartitioner part(n_nodes);
  NamespacePlanner planner(part, OpCosts{});

  plan.dirs.reserve(n_nodes);
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    plan.dirs.emplace_back(static_cast<std::uint64_t>(i) + 1);
  }

  plan.per_node.resize(n_nodes);
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    plan.per_node[i].reserve(ops_per_node);
    for (std::uint32_t j = 0; j < ops_per_node; ++j) {
      if (participants == 2) {
        // The classic two-party plan, byte for byte.
        const std::string name =
            "f" + std::to_string(i) + "_" + std::to_string(j);
        plan.per_node[i].push_back(planner.plan_create(
            plan.dirs[i], name, part.inode_id(i, j), /*is_dir=*/false));
        continue;
      }
      std::vector<std::pair<std::string, ObjectId>> entries;
      std::vector<NodeId> homes;
      entries.reserve(participants - 1);
      homes.reserve(participants - 1);
      for (std::uint32_t c = 0; c + 1 < participants; ++c) {
        const ObjectId inode = part.inode_id(i, j, c, participants);
        entries.emplace_back("f" + std::to_string(i) + "_" +
                                 std::to_string(j) + "_" + std::to_string(c),
                             inode);
        homes.push_back(part.home_of(inode));
      }
      plan.per_node[i].push_back(
          planner.plan_create_batch(plan.dirs[i], entries, homes));
    }
  }
  return plan;
}

}  // namespace opc
