// The benchmark's three workloads.  Parameters are fixed here, in one
// place; README.md explains each choice.
#pragma once

#include <cstdint>
#include <vector>

#include "checks.h"
#include "common.h"

namespace opcbench {

// A run measures rounds of fixed work, each on a fresh fixture, repeating
// while another round as long as the last still fits in --seconds (the
// first always runs).

/// The fewest setups setup_s is a median of (per point for sim_fig6), so
/// that it rests on many samples even when one round fills the run.
inline constexpr std::size_t kSetupSamples = 40;

// ---- served workloads: 3-node 1PC cluster behind RpcServer over UDS ------

struct ChurnParams {
  std::uint32_t ops = 10000;     // creates + removes per round
  std::uint32_t window = 32;     // requests outstanding (closed loop)
  std::uint32_t live = 256;      // live names per hot directory
  std::uint32_t dirs = 3;        // hot directories 1..dirs
};

/// What one served round leaves behind for the output check.
struct ServedCheck {
  DirEntries expected;  // from the generator's acknowledged operations
  DirEntries actual;    // read back from the servers' stores
  std::size_t invariant_violations = 0;
  std::string violation_report;
};

[[nodiscard]] RunResult run_serve_churn(const Options& opt,
                                        const ChurnParams& p = {});
/// serve_storm's rate, mix and size are constants of served.cc.
[[nodiscard]] RunResult run_serve_storm(const Options& opt);

/// One churn round with no metrics, for the checks' tests.
[[nodiscard]] ServedCheck churn_round_for_test(const Options& opt,
                                               const ChurnParams& p);

// ---- simulated workload: the paper's Fig. 6 storm ------------------------

inline constexpr double kSimRunSeconds = 60.0;    // simulated s per point
inline constexpr double kSimWarmupSeconds = 5.0;  // not in sim_ops_s (§IV)
inline constexpr std::uint32_t kSimWidths[] = {2, 3};  // participants

[[nodiscard]] RunResult run_sim_fig6(const Options& opt);

/// One pass over every protocol and width; the points the check compares.
[[nodiscard]] std::vector<SimPoint> sim_points_for_test(std::uint64_t seed);

}  // namespace opcbench
