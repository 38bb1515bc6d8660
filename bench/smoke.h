// `--smoke` support for the bench binaries (DESIGN.md §5).
//
// Every bench accepts `--smoke` and collapses to a single fast iteration:
// sweeps keep their first point(s), simulated windows shrink from tens of
// seconds to half a second.  The numbers printed under smoke are
// meaningless — the mode exists so `ctest -L bench` executes every bench's
// code path on every tier-1 run and a refactor cannot bit-rot a bench
// binary silently.  Exit-code checks (invariants, abort-freedom) still apply
// where the shrunk run keeps them meaningful; PaperTableOne pins Table I.
#pragma once

#include <cstring>

#include "sim/time.h"

namespace opc::benchutil {

/// True when `--smoke` appears anywhere on the command line.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  return false;
}

/// Shrinks an experiment's measured window to smoke scale (0.1 s warmup +
/// 0.4 s measured).  Works on any config with `run_for`/`warmup` members.
template <typename Config>
void smoke_window(Config& cfg) {
  cfg.run_for = Duration::millis(500);
  cfg.warmup = Duration::millis(100);
}

/// Truncates a sweep (points, cells, rates, ...) to its first `keep`
/// entries.  Callers whose result-rendering walks cells in fixed-size
/// groups must keep `keep` a multiple of the group size.
template <typename Vec>
void smoke_truncate(Vec& v, std::size_t keep) {
  if (v.size() > keep) v.resize(keep);
}

}  // namespace opc::benchutil
