// Ablation E: throughput under periodic failures.
//
// Crashes the worker (and optionally the coordinator) every `period` with a
// 500 ms repair time while the Figure 6 storm runs.  Shows the price of
// each protocol's recovery: 2PC-family aborts + decision retries vs 1PC's
// STONITH-fence-and-read rounds.  Atomicity must survive every run (the
// invariant checker gates the exit code).
#include <cstdio>

#include "core/experiment.h"
#include "core/sweep.h"
#include "smoke.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace opc;
  const bool smoke = benchutil::smoke_mode(argc, argv);
  struct Point {
    Duration period;
    std::string label;
  };
  std::vector<Point> points = {
      {Duration::zero(), "no failures"},
      {Duration::seconds(5), "worker crash every 5s"},
      {Duration::seconds(2), "worker crash every 2s"},
      {Duration::seconds(1), "worker crash every 1s"},
  };
  // Smoke keeps one crashing point so the fencing path still executes; the
  // window stays a few seconds so a 1s crash period + 500ms repair fits.
  if (smoke) {
    points = {{Duration::seconds(1), "worker crash every 1s (smoke)"}};
  }
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
        ExperimentConfig cfg = paper_fig6_config(c.proto);
        cfg.run_for = smoke ? Duration::seconds(3) : Duration::seconds(20);
        cfg.warmup = smoke ? Duration::millis(500) : Duration::seconds(4);
        cfg.crash_period = points[c.point].period;
        cfg.crash_worker = true;
        cfg.crash_coordinator = false;
        cfg.crash_reboot_after = Duration::millis(500);
        cfg.cluster.acp.response_timeout = Duration::millis(300);
        cfg.cluster.acp.retry_interval = Duration::millis(100);
        cfg.source.client_timeout = Duration::seconds(15);
        cfg.cluster.heartbeat.enabled = true;
        cfg.cluster.heartbeat.interval = Duration::millis(50);
        cfg.cluster.heartbeat.suspicion_timeout = Duration::millis(250);
        return run_experiment(cfg);
      });

  std::printf("=== Ablation E: throughput under periodic worker crashes "
              "===\n\n");
  TextTable table({"failure rate", "PrN", "PrC", "EP", "1PC",
                   "1PC fencing rounds", "invariants"});
  bool clean = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double ops[4] = {};
    std::int64_t fences = 0;
    bool row_clean = true;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].point != i) continue;
      ops[static_cast<int>(cells[c].proto)] = results[c].ops_per_second;
      row_clean = row_clean && results[c].invariant_violations == 0;
      if (cells[c].proto == ProtocolKind::kOnePC) {
        fences = results[c].stats.get("acp.onepc.fencing_recoveries");
      }
    }
    clean = clean && row_clean;
    table.add_row({points[i].label, TextTable::num(ops[0], 1),
                   TextTable::num(ops[1], 1), TextTable::num(ops[2], 1),
                   TextTable::num(ops[3], 1), std::to_string(fences),
                   row_clean ? "clean" : "VIOLATED"});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nall runs atomicity-clean: %s\n", clean ? "yes" : "NO");
  return clean ? 0 : 1;
}
