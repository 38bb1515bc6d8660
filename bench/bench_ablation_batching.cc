// Ablation D: operation aggregation (the paper's §VI future work).
//
// "...the MDS responsible for managing the parent directory can aggregate
// multiple namespace operations in only one big transaction, thus reducing
// the number of messages and log writes per block of requests."
//
// Each transaction carries `batch` creates in the hot directory: one
// STARTED force, one directory lock episode, one commit force per batch.
// Throughput is reported in namespace operations (files created) per
// second.
#include <cstdio>

#include "core/experiment.h"
#include "core/sweep.h"
#include "smoke.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace opc;
  const bool smoke = benchutil::smoke_mode(argc, argv);
  const std::uint32_t batches[] = {1, 2, 4, 8, 16, 32, 64};
  struct Cell {
    std::uint32_t batch;
    ProtocolKind proto;
  };
  std::vector<Cell> cells;
  for (std::uint32_t b : batches) {
    cells.push_back({b, ProtocolKind::kPrN});
    cells.push_back({b, ProtocolKind::kOnePC});
  }
  // Keep one PrN/1PC pair: the row loop below walks cells two at a time.
  if (smoke) benchutil::smoke_truncate(cells, 2);
  const auto results = ParallelSweep::map<Cell, ExperimentResult>(
      cells, [smoke](const Cell& c) {
        ExperimentConfig cfg = paper_fig6_config(c.proto);
        cfg.run_for = Duration::seconds(20);
        cfg.warmup = Duration::seconds(4);
        if (smoke) benchutil::smoke_window(cfg);
        cfg.batch = c.batch;
        return run_experiment(cfg);
      });

  std::printf("=== Ablation D: operation aggregation (paper SVI future "
              "work) ===\n\n");
  TextTable table({"batch size", "PrN ops/s", "1PC ops/s", "1PC speedup vs "
                   "batch=1"});
  double base_1pc = 0;
  bool clean = true;
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const double prn = results[i].ops_per_second;
    const double onepc = results[i + 1].ops_per_second;
    if (cells[i].batch == 1) base_1pc = onepc;
    clean = clean && results[i].invariant_violations == 0 &&
            results[i + 1].invariant_violations == 0;
    table.add_row({std::to_string(cells[i].batch), TextTable::num(prn, 1),
                   TextTable::num(onepc, 1),
                   TextTable::num(onepc / base_1pc, 2) + "x"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nall runs invariant-clean: %s\n", clean ? "yes" : "NO");
  return clean ? 0 : 1;
}
