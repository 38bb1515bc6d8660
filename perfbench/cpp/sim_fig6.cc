// sim_fig6: the paper's Fig. 6 create storm on the simulator, for PrN,
// PrC, EP and 1PC at 2 and 3 participants.
//
// The storm fixture is the one run_create_storm builds (paper cost model
// from paper_fig6_config, one hot directory on mds0, 100 concurrent
// closed-loop creates), assembled here from Simulator + Cluster +
// CreateStormSource so the benchmark owns the Simulator and can read its
// dispatched-event count.
//
// The timed passes record no history, as run_create_storm does, and are
// checked against the pinned outputs.  After them, one check pass runs with
// history recording on, for the serializability check (quadratic in the
// hot directory's transactions, so it is not repeated or timed).
#include <algorithm>
#include <charconv>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>

#include "cluster/cluster.h"
#include "core/experiment.h"
#include "mds/partition.h"
#include "probes.h"
#include "sim/simulator.h"
#include "stats/meter.h"
#include "workload/source.h"
#include "workloads.h"

namespace opcbench {
namespace {

using namespace opc;

constexpr ProtocolKind kProtocols[] = {ProtocolKind::kPrN, ProtocolKind::kPrC,
                                       ProtocolKind::kEP, ProtocolKind::kOnePC};

/// One storm point, constructed ready to run (first event dispatched).
class Storm {
 public:
  Storm(ProtocolKind proto, std::uint32_t width, std::uint64_t seed,
        bool record_history)
      : cfg_(paper_fig6_config(proto)), width_(width), trace_(false),
        part_(std::max<std::uint32_t>(2, width), NodeId(1)),
        planner_(part_, OpCosts{}) {
    cfg_.cluster.n_nodes = std::max<std::uint32_t>(2, width);
    cfg_.cluster.seed = seed;
    cfg_.cluster.record_history = record_history;
    cfg_.run_for = Duration::from_seconds_f(kSimRunSeconds);
    cfg_.warmup = Duration::from_seconds_f(kSimWarmupSeconds);
    cluster_ = std::make_unique<Cluster>(sim_, cfg_.cluster, stats_, trace_);
    meter_.set_warmup_until(SimTime::zero() + cfg_.warmup);
    meter_.set_cutoff(SimTime::zero() + cfg_.run_for);
    dir_ = ids_.next();
    part_.assign(dir_, NodeId(0));
    cluster_->bootstrap_directory(dir_, NodeId(0));
    std::vector<NodeId> spread;
    for (std::uint32_t w = 1; width > 2 && w < width; ++w) {
      spread.push_back(NodeId(w));
    }
    source_ = std::make_unique<CreateStormSource>(
        cluster_->env(), *cluster_, cfg_.source, meter_, stats_, planner_,
        ids_, dir_, "d0_", /*batch=*/1, std::move(spread));
    source_->start();
    sim_.step();
  }

  /// Runs the measured window, stops the clients and drains to quiescence
  /// (as run_create_storm does).
  void run() {
    sim_.run_until(SimTime::zero() + cfg_.run_for);
    source_->stop();
    const SimTime deadline =
        SimTime::zero() + cfg_.run_for + Duration::seconds(600);
    while (sim_.now() < deadline) {
      bool quiescent = true;
      for (std::uint32_t n = 0; n < cluster_->size(); ++n) {
        AcpEngine& e = cluster_->engine(NodeId(n));
        if (e.active_coordinations() != 0 || e.active_participations() != 0) {
          quiescent = false;
          break;
        }
      }
      if (quiescent) break;
      sim_.run_for(Duration::seconds(1));
    }
  }

  [[nodiscard]] SimPoint point() const {
    SimPoint pt;
    pt.protocol = std::string(protocol_name(cfg_.cluster.protocol));
    pt.width = width_;
    pt.committed = source_->committed();
    pt.aborted = source_->aborted();
    pt.sim_ops_s = meter_.events_per_second_over(cfg_.run_for - cfg_.warmup);
    pt.state_hash = state_hash();
    return pt;
  }

  /// Hash of what the run computed in simulated terms: outcomes, the
  /// Table I costs (messages, forced log writes), every client-visible
  /// commit latency (as count, sum, min, max) and the final stable
  /// namespace of every node.  Kernel-internal counts such as dispatched
  /// events stay out: an optimization may legitimately change them.
  [[nodiscard]] std::uint64_t state_hash() const {
    Fnv h;
    h.u64(source_->committed());
    h.u64(source_->aborted());
    h.u64(source_->lost());
    for (const char* name : {"acp.msg.total", "wal.force.count"}) {
      h.u64(static_cast<std::uint64_t>(stats_.get(name)));
    }
    for (std::uint32_t n = 0; n < cluster_->size(); ++n) {
      const Histogram& lat = cluster_->node(NodeId(n)).engine().client_latency();
      h.u64(lat.count());
      h.f64(lat.sum());
      h.f64(lat.min());
      h.f64(lat.max());
      for (const auto& [dir, name, child] :
           cluster_->node(NodeId(n)).store().stable_dentries()) {
        h.u64(dir.value());
        h.str(name);
        h.u64(child.value());
      }
      for (const Inode& ino : cluster_->node(NodeId(n)).store().stable_inodes()) {
        h.u64(ino.id.value());
        h.u64(ino.is_dir ? 1 : 0);
        h.u64(ino.nlink);
        h.u64(ino.version);
      }
    }
    return h.value();
  }

  std::string check() {
    std::string out;
    const auto violations = cluster_->check_invariants({dir_});
    if (!violations.empty()) out += render_violations(violations);
    if (cluster_->history() != nullptr && !cluster_->history()->serializable()) {
      out += "history not serializable; ";
    }
    if (source_->lost() != 0) {
      out += std::to_string(source_->lost()) + " lost transactions; ";
    }
    return out;
  }

  [[nodiscard]] std::uint64_t events() const { return sim_.dispatched_events(); }
  [[nodiscard]] std::uint64_t issued() const {
    return source_->committed() + source_->aborted() + source_->lost();
  }
  [[nodiscard]] std::uint64_t committed() const { return source_->committed(); }
  [[nodiscard]] std::uint64_t failed() const {
    return source_->aborted() + source_->lost();
  }
  [[nodiscard]] const StatsRegistry& stats() const { return stats_; }
  [[nodiscard]] Cluster& cluster() { return *cluster_; }

  /// The hot directory's entries in creation order (names are
  /// "d0_<counter>").
  [[nodiscard]] std::vector<AckedOp> created() const {
    std::vector<std::pair<std::uint64_t, std::string>> byseq;
    for (const auto& [name, child] :
         cluster_->node(NodeId(0)).store().mem_list_dir(dir_)) {
      std::uint64_t seq = 0;
      std::from_chars(name.data() + 3, name.data() + name.size(), seq);
      byseq.emplace_back(seq, name);
    }
    std::sort(byseq.begin(), byseq.end());
    std::vector<AckedOp> out;
    out.reserve(byseq.size());
    for (auto& [seq, name] : byseq) {
      out.push_back(AckedOp{AckedOp::Kind::kCreate, dir_.value(),
                            std::move(name), {}});
    }
    return out;
  }
  [[nodiscard]] std::uint64_t dir() const { return dir_.value(); }

 private:
  ExperimentConfig cfg_;
  std::uint32_t width_;
  Simulator sim_;
  StatsRegistry stats_;
  TraceRecorder trace_;
  ThroughputMeter meter_;
  std::unique_ptr<Cluster> cluster_;
  IdAllocator ids_;
  ObjectId dir_;
  PinnedPartitioner part_;
  NamespacePlanner planner_;
  std::unique_ptr<CreateStormSource> source_;
};

/// Totals of one pass over every protocol and width.
struct Pass {
  double run_s = 0.0;  // run + drain wall time, summed
  std::uint64_t committed = 0;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t events = 0;
  std::vector<SimPoint> got;
  // Simulator-thread CPU seconds per point, parallel to `got`.
  std::vector<double> point_run_cpu_s;
  std::vector<double> point_setup_cpu_s;
  std::vector<std::string> errors;

  // Traced pass only.
  StatsRegistry stats;
  Histogram engine_latency;
  Histogram lock_wait;
  std::uint64_t allocs = 0;
  double cpu_s = 0.0;
  std::size_t max_dir_entries = 0;
  std::vector<AckedOp> largest_dir;
  std::uint64_t largest_dir_id = 0;
};

Pass run_pass(std::uint64_t seed, SpanLog& spans, std::uint64_t round,
              bool record_history) {
  Pass pass;
  const std::uint64_t round_span = spans.open("round", round);
  for (const std::uint32_t width : kSimWidths) {
    for (const ProtocolKind proto : kProtocols) {
      const std::uint64_t point_span = spans.open("sim.point", round, round_span);
      const std::uint64_t setup_span = spans.open("setup", round, point_span);
      const double u0 = thread_cpu_s();
      Storm storm(proto, width, seed, record_history);
      const double u1 = thread_cpu_s();
      const double t1 = wall_now();
      spans.close(setup_span);

      const std::uint64_t run_span = spans.open("sim", round, point_span);
      const std::uint64_t a0 = alloc_count();
      const double c0 = process_cpu_s();
      storm.run();
      const double c1 = process_cpu_s();
      const double u2 = thread_cpu_s();
      const std::uint64_t a1 = alloc_count();
      const double t2 = wall_now();
      spans.close(run_span);

      const std::uint64_t check_span = spans.open("check", round, point_span);
      SimPoint pt = storm.point();
      if (std::string err = storm.check(); !err.empty()) {
        pass.errors.push_back(pt.protocol + "@" + std::to_string(width) +
                              "p: " + err);
      }
      spans.close(check_span);
      spans.close(point_span);

      pass.cpu_s += c1 - c0;
      pass.run_s += t2 - t1;
      pass.committed += storm.committed();
      pass.issued += storm.issued();
      pass.failed += storm.failed();
      pass.events += storm.events();
      pass.got.push_back(pt);
      pass.point_run_cpu_s.push_back(u2 - u1);
      pass.point_setup_cpu_s.push_back(u1 - u0);

      if (spans.enabled()) {
        pass.stats.merge(storm.stats());
        for (std::uint32_t n = 0; n < storm.cluster().size(); ++n) {
          MdsNode& node = storm.cluster().node(NodeId(n));
          pass.engine_latency.merge(node.engine().client_latency());
          pass.lock_wait.merge(node.locks().wait_times());
        }
        pass.allocs += a1 - a0;
        std::vector<AckedOp> created = storm.created();
        if (created.size() > pass.max_dir_entries) {
          pass.max_dir_entries = created.size();
          pass.largest_dir = std::move(created);
          pass.largest_dir_id = storm.dir();
        }
      }
    }
  }
  spans.close(round_span);
  return pass;
}

}  // namespace

std::vector<SimPoint> sim_points_for_test(std::uint64_t seed) {
  SpanLog off(false);
  return run_pass(seed, off, 0, /*record_history=*/false).got;
}

RunResult run_sim_fig6(const Options& opt) {
  RunResult res;
  SpanLog spans(opt.trace);

  // Every pass does the same (pinned) work, so each point is timed in
  // simulator-thread CPU time, which leaves out the time the host takes
  // the vCPU away (steal): the simulator is single-threaded.  A point's
  // run time is its fastest over the run: per-point bests repeat across
  // runs within a few percent, while per-pass wall times drift by up to
  // ~2x with the host's load (README.md, "Noise").  A point's setup time
  // is its median over every fixture built.
  const std::size_t n_points = std::size(kSimWidths) * std::size(kProtocols);
  std::vector<double> best_run_s(n_points, 1e300);
  std::vector<std::vector<double>> point_setups(n_points);
  auto add_setups = [&](const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) point_setups[i].push_back(v[i]);
  };

  const std::vector<SimPoint>& pins = sim_fig6_pins();
  if (pins.empty()) res.fail("no pinned sim_fig6 outputs");
  std::vector<double> ops_samples;
  std::vector<Pass> passes;
  double rss_mb = 0.0;  // high-water mark after the first timed pass
  const double start = wall_now();
  double last = 0.0;
  do {
    const double t0 = wall_now();
    Pass pass = run_pass(opt.seed, spans, passes.size() + 1,
                         /*record_history=*/false);
    last = wall_now() - t0;
    if (passes.empty()) rss_mb = peak_rss_mb();
    ops_samples.push_back(static_cast<double>(pass.committed) / pass.run_s);
    for (std::size_t i = 0; i < n_points; ++i) {
      best_run_s[i] = std::min(best_run_s[i], pass.point_run_cpu_s[i]);
    }
    add_setups(pass.point_setup_cpu_s);
    res.attempted += pass.issued;
    res.failed += pass.failed;
    for (const std::string& e : pass.errors) res.fail(e);
    for (const std::string& d : diff_sim_points(pins, pass.got)) res.fail(d);
    passes.push_back(std::move(pass));
  } while (wall_now() - start + last <= opt.seconds);

  const Pass checked = run_pass(opt.seed, spans, 0, /*record_history=*/true);
  for (const std::string& e : checked.errors) res.fail("check pass: " + e);
  for (const std::string& d : diff_sim_points(pins, checked.got)) {
    res.fail("check pass: " + d);
  }

  // Extra setups, up to kSetupSamples per point: every point's fixture,
  // constructed and dropped.
  for (std::size_t i = passes.size(); i < kSetupSamples; ++i) {
    std::vector<double> point_setup_s;
    for (const std::uint32_t width : kSimWidths) {
      for (const ProtocolKind proto : kProtocols) {
        const double u0 = thread_cpu_s();
        Storm storm(proto, width, opt.seed, /*record_history=*/false);
        point_setup_s.push_back(thread_cpu_s() - u0);
      }
    }
    add_setups(point_setup_s);
  }

  for (const SimPoint& pt : checked.got) {
    std::printf("point %s@%up committed=%llu aborted=%llu sim_ops_s=%.17g "
                "state_hash=%llu\n",
                pt.protocol.c_str(), pt.width,
                static_cast<unsigned long long>(pt.committed),
                static_cast<unsigned long long>(pt.aborted), pt.sim_ops_s,
                static_cast<unsigned long long>(pt.state_hash));
  }
  std::printf("rounds = %zu\n", passes.size());

  std::vector<double> setup_s;
  for (const auto& v : point_setups) setup_s.push_back(median(v));
  print_spread("wall ops_s", ops_samples);
  print_spread("point setup_s", setup_s);
  print_spread("point run_s", best_run_s);
  const double best_total_s =
      std::accumulate(best_run_s.begin(), best_run_s.end(), 0.0);
  const double ops_s =
      static_cast<double>(passes.front().committed) / best_total_s;
  res.end_to_end = {
      {"ops_s", ops_s, "1/s"},
      // The median Fig. 6 point's time: what a researcher waits for one.
      {"p50_ms", median(best_run_s) * 1e3, "ms"},
      {"setup_s", std::accumulate(setup_s.begin(), setup_s.end(), 0.0), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };

  if (opt.trace) {
    // Every pass is identical in simulated terms; the final one carries
    // the counters.
    const Pass& fin = passes.back();
    const auto committed = static_cast<std::int64_t>(fin.committed);
    OwnLayers own;
    own.rpc_codec_ns = codec_ns_per_frame(
        fin.largest_dir, std::vector<bool>(fin.largest_dir.size(), false));
    const std::uint64_t mds_span = spans.open("mds", 0);
    own.mds_create_ns = mds_ns_per_op({fin.largest_dir_id}, fin.largest_dir);
    spans.close(mds_span);
    own.server_cpu_us_per_op =
        fin.cpu_s * 1e6 / static_cast<double>(committed);
    own.mds_max_dir_entries = static_cast<double>(fin.max_dir_entries);
    own.sim_events_s = static_cast<double>(fin.events) / best_total_s;
    own.sim_events_per_txn =
        share(static_cast<std::int64_t>(fin.events), committed);
    own.mem_allocs_per_txn =
        share(static_cast<std::int64_t>(fin.allocs), committed);
    res.per_layer = layer_metrics(own, fin.stats, fin.engine_latency,
                                  fin.lock_wait, committed);
    res.per_layer.push_back({"traced.ops_s", ops_s, "1/s"});
    report_spans(opt, spans);
  }
  return res;
}

}  // namespace opcbench
