// Ablation F: WAL group commit.
//
// Paper §VI: the MDS can "interleave expensive log writes with many
// operations in order to reduce the impact of the protocol on the
// performance".  Group commit is the WAL-level half of that idea: forces
// that arrive while one is in flight coalesce into a single device write.
//
// Two regimes are measured:
//   * 1 hot directory  — the paper's storm.  The directory lock serializes
//     the coordinator, so there is almost nothing to coalesce: group
//     commit is expected to be a no-op.  (The lock-level half of §VI —
//     transaction batching — is Ablation D.)
//   * 8 hot directories — independent directories on one coordinator
//     contend on its log device; coalescing their STARTED/commit forces
//     into shared blocks multiplies throughput.
#include <cstdio>

#include "core/experiment.h"
#include "core/sweep.h"
#include "smoke.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace opc;
  const bool smoke = benchutil::smoke_mode(argc, argv);
  struct Cell {
    ProtocolKind proto;
    std::uint32_t dirs;
    bool group_commit;
  };
  std::vector<Cell> cells;
  for (ProtocolKind p : kAllProtocols) {
    for (std::uint32_t dirs : {1u, 8u}) {
      cells.push_back({p, dirs, false});
      cells.push_back({p, dirs, true});
    }
  }
  // Keep one off/on pair: the row loop below walks cells two at a time.
  if (smoke) benchutil::smoke_truncate(cells, 2);
  const auto results = ParallelSweep::map<Cell, ExperimentResult>(
      cells, [smoke](const Cell& c) {
        ExperimentConfig cfg = paper_fig6_config(c.proto);
        cfg.run_for = Duration::seconds(20);
        cfg.warmup = Duration::seconds(4);
        if (smoke) benchutil::smoke_window(cfg);
        cfg.n_dirs = c.dirs;
        cfg.cluster.wal.group_commit = c.group_commit;
        return run_experiment(cfg);
      });

  std::printf("=== Ablation F: WAL group commit (paper SVI: interleave log "
              "writes with many operations) ===\n\n");
  TextTable table({"protocol", "hot dirs", "ops/s (individual)",
                   "ops/s (group commit)", "gain", "coalesced forces"});
  bool clean = true;
  for (std::size_t i = 0; i < cells.size(); i += 2) {
    const auto& off = results[i];
    const auto& on = results[i + 1];
    clean = clean && off.invariant_violations == 0 &&
            on.invariant_violations == 0;
    table.add_row({std::string(protocol_name(cells[i].proto)),
                   std::to_string(cells[i].dirs),
                   TextTable::num(off.ops_per_second, 2),
                   TextTable::num(on.ops_per_second, 2),
                   TextTable::num(
                       (on.ops_per_second / off.ops_per_second - 1) * 100.0,
                       1) + "%",
                   std::to_string(on.stats.get("wal.force.coalesced"))});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nall runs invariant-clean: %s\n", clean ? "yes" : "NO");
  return clean ? 0 : 1;
}
