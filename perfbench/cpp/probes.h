// Per-layer probes that re-run a workload's own inputs through one layer's
// public API after the measured round (traced runs only).
#pragma once

#include <cstdint>
#include <vector>

#include "checks.h"
#include "common.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace opcbench {

/// Wire codec cost per frame: encode_* of each operation's request,
/// decode_frame of it, encode_reply of its answer.  Median of a few passes.
[[nodiscard]] double codec_ns_per_frame(const std::vector<AckedOp>& ops,
                                        const std::vector<bool>& is_dir);

/// Metadata-store cost per operation near the final directory size: the
/// acknowledged operations are replayed in order into a fresh MetaStore
/// (apply + commit_txn), and only the last `tail` of them are timed.
[[nodiscard]] double mds_ns_per_op(const std::vector<std::uint64_t>& dirs,
                                   const std::vector<AckedOp>& ops,
                                   std::size_t tail = 2000);

/// The per-layer figures a workload measures itself; a layer the workload
/// does not touch stays 0.
struct OwnLayers {
  double rpc_overhead_p50_ms = 0.0;
  double rpc_codec_ns = 0.0;
  double rpc_busy_share = 0.0;
  double rt_post_wait_us = 0.0;
  double server_cpu_us_per_op = 0.0;
  double mds_create_ns = 0.0;
  double mds_max_dir_entries = 0.0;
  double sim_events_s = 0.0;
  double sim_events_per_txn = 0.0;
  double mem_allocs_per_txn = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order: the workload's own
/// figures plus those read the same way on every workload from the merged
/// counters and histograms (engine client latency, lock waits, both in ns).
[[nodiscard]] std::vector<Metric> layer_metrics(
    const OwnLayers& own, const opc::StatsRegistry& st,
    const opc::Histogram& engine_latency, const opc::Histogram& lock_wait,
    std::int64_t committed);

}  // namespace opcbench
