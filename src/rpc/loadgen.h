// Open-loop load generator for the opc serving path.
//
// Each thread owns one RpcClient and fires requests at Poisson arrival
// times drawn for a fixed offered rate — arrivals do NOT wait for replies.
// Latency is measured from the *scheduled* arrival time, not the send
// time, so queueing delay inside the generator (and the server pushing
// back) shows up in the tail instead of being silently omitted — the
// coordinated-omission trap a closed-loop generator falls into
// (docs/SERVING.md §5).  So the schedule itself must hold: the client's
// waits end at the arrival time to the nanosecond, generator threads run
// at 1 ns timer slack, and `late` reports how far behind schedule each
// request was sent.
//
// Workload shape: a create/mkdir/rename mix over hot directories 1..n_dirs
// with optional Zipf(s) skew.  Renames only touch names whose create has
// already been acknowledged, so the offered stream is always semantically
// valid and aborts measure protocol behaviour, not generator races.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"
#include "stats/histogram.h"

namespace opc::rpc {

struct LoadgenConfig {
  // Target: exactly one of uds_path / tcp_port.
  std::string uds_path;
  std::uint16_t tcp_port = 0;

  std::uint32_t threads = 4;
  double rate = 10000.0;  // offered ops/s across all threads
  Duration duration = Duration::seconds(10);
  std::uint64_t seed = 1;

  std::uint32_t n_dirs = 3;  // request dirs 1..n_dirs (must be bootstrapped)
  double zipf_s = 0.0;       // directory skew exponent; 0 = uniform

  /// Participants per create transaction.  2 sends classic kCreate; >2
  /// sends kCreateSpread so the server plans one atomic create spanning
  /// participants MDSs (must be <= the server's cluster size, else the
  /// server answers BadRequest).  Mkdirs and renames are unaffected.
  std::uint32_t participants = 2;

  // Op mix weights (normalized internally).
  double create_weight = 0.8;
  double mkdir_weight = 0.1;
  double rename_weight = 0.1;

  /// Safety valve: past this many unanswered requests a thread skips sends
  /// (counted in `skipped`) instead of growing without bound — an overload
  /// signal, not a normal-operation path.
  std::uint64_t max_outstanding = 100000;

  /// Extra wall time after the offered window to collect stragglers.
  double drain_timeout_s = 15.0;
};

struct LoadgenResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;         // committed
  std::uint64_t aborted = 0;    // protocol abort
  std::uint64_t busy = 0;       // shed by server backpressure
  std::uint64_t not_found = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t timeouts = 0;   // server-side request deadline replies
  std::uint64_t shutdown = 0;   // server draining
  std::uint64_t skipped = 0;    // suppressed by max_outstanding
  std::uint64_t lost = 0;       // sent but never answered
  std::uint64_t transport_errors = 0;  // threads that hit a socket error
  Histogram latency;            // ns, scheduled-arrival -> reply, ok+aborted
  Histogram late;               // ns, scheduled-arrival -> send, every send
  double offered_rate = 0.0;
  double achieved_rate = 0.0;   // answered (ok+aborted) per wall second
  double wall_seconds = 0.0;
  std::string error;            // first transport error message, if any

  /// Replies that reflect a server-processed transaction.
  [[nodiscard]] std::uint64_t answered() const { return ok + aborted; }
  /// Anything that violates the "zero lost/errored replies" bar.
  [[nodiscard]] std::uint64_t hard_failures() const {
    return lost + transport_errors + bad_request;
  }
};

/// Runs the generator to completion (blocks for ~duration + drain).
[[nodiscard]] LoadgenResult run_loadgen(const LoadgenConfig& cfg);

}  // namespace opc::rpc
