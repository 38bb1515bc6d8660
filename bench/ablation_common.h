// Shared scaffolding for the ablation benches: run the Figure 6 workload
// across a parameter sweep x all four protocols in parallel and print one
// table with PrN-relative gains.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "stats/table.h"

namespace opc::benchutil {

struct SweepPoint {
  std::string label;
  ExperimentConfig cfg;  // protocol is overwritten per column
};

/// Runs every (point, protocol) cell of the sweep and prints a table whose
/// rows are points and columns are protocols, with the 1PC/PrN ratio last.
inline int run_protocol_sweep(const char* title,
                              std::vector<SweepPoint> points,
                              bool scale_is_ops = true) {
  struct Cell {
    std::size_t point;
    ProtocolKind proto;
  };
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (ProtocolKind p : kAllProtocols) cells.push_back({i, p});
  }
  const auto results = ParallelSweep::map<Cell, ExperimentResult>(
      cells, [&](const Cell& c) {
        ExperimentConfig cfg = points[c.point].cfg;
        cfg.cluster.protocol = c.proto;
        return run_experiment(cfg);
      });

  std::printf("=== %s ===\n\n", title);
  TextTable table({"sweep point", "PrN", "PrC", "EP", "1PC", "1PC/PrN"});
  bool clean = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double ops[4] = {};
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].point != i) continue;
      ops[static_cast<int>(cells[c].proto)] = results[c].ops_per_second;
      if (results[c].invariant_violations != 0) clean = false;
    }
    table.add_row({points[i].label, TextTable::num(ops[0], 2),
                   TextTable::num(ops[1], 2), TextTable::num(ops[2], 2),
                   TextTable::num(ops[3], 2),
                   ops[0] > 0 ? TextTable::num(ops[3] / ops[0], 2) + "x"
                              : "-"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%s; all runs invariant-clean: %s\n",
              scale_is_ops ? "cells are namespace operations per second"
                           : "cells as labelled",
              clean ? "yes" : "NO");
  return clean ? 0 : 1;
}

}  // namespace opc::benchutil
