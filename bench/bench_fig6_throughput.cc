// Figure 6 reproduction: distributed namespace operations per second for
// PrN, PrC, EP and 1PC under the paper's parameters (1 µs method compute,
// 100 µs network latency, 400 KB/s log devices, 100 concurrent distributed
// creates against one MDS).
//
// Paper values: PrN 15, PrC 15 (+0.39 %), EP 16 (+6.60 %), 1PC 24 (+>55 %).
#include <cstdio>

#include "core/experiment.h"
#include "core/sweep.h"
#include "smoke.h"
#include "stats/table.h"

namespace {

struct PaperRow {
  opc::ProtocolKind proto;
  double paper_ops;
  const char* paper_gain;
};

constexpr PaperRow kPaper[] = {
    {opc::ProtocolKind::kPrN, 15.0, "baseline"},
    {opc::ProtocolKind::kPrC, 15.0, "+0.39%"},
    {opc::ProtocolKind::kEP, 16.0, "+6.60%"},
    {opc::ProtocolKind::kOnePC, 24.0, "+>55%"},
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = opc::benchutil::smoke_mode(argc, argv);
  std::printf("=== Figure 6: distributed namespace operations per second ===\n");
  std::printf("workload: 100 concurrent distributed CREATEs, one hot "
              "directory, every create spans two MDSs\n");
  std::printf("params: method 1us, network 100us one-way, log device "
              "400 KB/s, 8 KiB forced-write blocks\n\n");

  std::vector<PaperRow> rows(std::begin(kPaper), std::end(kPaper));
  const auto results =
      opc::ParallelSweep::map<PaperRow, opc::ExperimentResult>(
          rows, [smoke](const PaperRow& row) {
            opc::ExperimentConfig cfg = opc::paper_fig6_config(row.proto);
            if (smoke) opc::benchutil::smoke_window(cfg);
            return opc::run_experiment(cfg);
          });

  const double prn = results[0].ops_per_second;
  opc::TextTable table({"protocol", "ops/s (measured)", "ops/s (paper)",
                        "gain vs PrN (measured)", "gain vs PrN (paper)",
                        "p50 latency", "coordinator disk busy"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = results[i];
    const double gain = (r.ops_per_second / prn - 1.0) * 100.0;
    table.add_row({std::string(opc::protocol_name(rows[i].proto)),
                   opc::TextTable::num(r.ops_per_second, 2),
                   opc::TextTable::num(rows[i].paper_ops, 0),
                   (gain >= 0 ? "+" : "") + opc::TextTable::num(gain, 2) + "%",
                   rows[i].paper_gain,
                   opc::to_string(r.latency.quantile_duration(0.5)),
                   opc::TextTable::num(r.coordinator_disk_busy * 100.0, 1) +
                       "%"});
  }
  std::fputs(table.render().c_str(), stdout);

  bool clean = true;
  for (const auto& r : results) {
    if (r.invariant_violations != 0 || r.aborted != 0) clean = false;
  }
  std::printf("\nall runs invariant-clean and abort-free: %s\n",
              clean ? "yes" : "NO");
  std::printf("shape check (paper: 1PC wins by >55%%): 1PC/PrN = %.2fx\n",
              results[3].ops_per_second / prn);
  return clean ? 0 : 1;
}
