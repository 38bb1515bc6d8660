#include "report/bench_report.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include <map>

#include "cluster/cluster.h"
#include "obs/assembler.h"
#include "obs/phase.h"
#include "report/alloc_hook.h"
#include "sim/simulator.h"
#include "stats/table.h"
#include "workload/workload.h"

namespace opc::benchreport {
namespace {

using Clock = std::chrono::steady_clock;

/// One measured region.  Rates: runs `body` (which returns the number of
/// kernel events it dispatched) repeatedly until ~0.4 s of wall clock
/// accumulates.  Allocations: counted over one call of `fixed_work` (default
/// `body`), a fixed amount of work, so allocs/event does not depend on how
/// many bodies fit in the wall-clock window.  Smoke mode runs each once —
/// the point is executing the code path, not a stable number.
BenchSample measure(const std::string& name, bool smoke,
                    const std::function<std::uint64_t()>& body,
                    const std::function<std::uint64_t()>& fixed_work = {}) {
  BenchSample s;
  s.name = name;
  const double min_wall = smoke ? 0.0 : 0.4;
  // Untimed warm-up pass: first-touch page faults and lazy init land here.
  if (!smoke) body();
  const std::uint64_t allocs0 = allocation_count();
  const std::uint64_t fixed_events = fixed_work ? fixed_work() : body();
  const std::uint64_t allocs = allocation_count() - allocs0;
  if (fixed_events > 0) {
    s.allocs_per_event =
        static_cast<double>(allocs) / static_cast<double>(fixed_events);
  }
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    s.events += body();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_wall);
  s.wall_seconds = elapsed;
  if (s.events > 0 && elapsed > 0) {
    s.events_per_sec = static_cast<double>(s.events) / elapsed;
    s.ns_per_event = elapsed * 1e9 / static_cast<double>(s.events);
  }
  return s;
}

/// The dominant cycle in isolation: schedule N small-capture callbacks,
/// drain the queue.  Mirrors BM_EventScheduleDispatch/16384.
std::uint64_t schedule_dispatch_pass(int batch) {
  Simulator sim;
  std::uint64_t sink = 0;
  for (int i = 0; i < batch; ++i) {
    sim.schedule_after(Duration::nanos(i % 977), [&sink] { ++sink; });
  }
  sim.run();
  SIM_CHECK(sink == static_cast<std::uint64_t>(batch));
  return sim.dispatched_events();
}

/// Timer churn: every event is scheduled, cancelled and rescheduled —
/// the timeout-bookkeeping pattern of src/acp and src/wal.
std::uint64_t cancel_churn_pass(int batch) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    handles.push_back(sim.schedule_after(Duration::micros(1), [] {}));
  }
  for (EventHandle& h : handles) sim.cancel(h);
  for (int i = 0; i < batch; ++i) {
    sim.schedule_after(Duration::micros(2), [] {});
  }
  sim.run();
  return static_cast<std::uint64_t>(batch) * 2;  // cancel + dispatch ops
}

/// The bench storm's cluster: default costs, one node per participant
/// (at least two).
ClusterConfig storm_cluster(ProtocolKind proto, std::uint32_t participants,
                            obs::PhaseLog* phase_log) {
  ClusterConfig cc;
  cc.n_nodes = std::max<std::uint32_t>(2, participants);
  cc.protocol = proto;
  cc.phase_log = phase_log;
  return cc;
}

/// The paper's 100 concurrent creates.
constexpr SourceConfig kStormClients{.concurrency = 100};

/// Fixed-seed Figure-6 storm (2 MDSs, 100 concurrent creates): the
/// workload whose wall-clock speed bounds every sweep in the repo.
/// Constructed once per bench row, then stepped over successive windows of
/// simulated time, so the row reports the steady-state storm — the regime
/// every sweep actually spends its wall clock in — rather than re-paying
/// construction and the cold-start issue burst on every pass.
class StormFixture {
 public:
  explicit StormFixture(ProtocolKind proto, std::uint32_t participants = 2)
      : trace_(false),
        cluster_(sim_, storm_cluster(proto, participants, nullptr), stats_,
                 trace_),
        workload_(cluster_, WorkloadSpec{.participants = participants},
                  kStormClients, meter_, stats_) {
    workload_.start();
  }

  /// Advances one window of simulated time.  Returns kernel events
  /// dispatched in the window; *out_sim_ops gets the window's
  /// simulated-time op rate.
  std::uint64_t step(Duration window, double* out_sim_ops) {
    const std::uint64_t ev0 = sim_.dispatched_events();
    const std::uint64_t ops0 = meter_.measured_events();
    deadline_ = deadline_ + window;
    sim_.run_until(deadline_);
    if (out_sim_ops != nullptr) {
      *out_sim_ops = static_cast<double>(meter_.measured_events() - ops0) /
                     window.to_seconds_f();
    }
    return sim_.dispatched_events() - ev0;
  }

 private:
  Simulator sim_;
  StatsRegistry stats_;
  TraceRecorder trace_;
  Cluster cluster_;
  ThroughputMeter meter_;
  Workload workload_;
  SimTime deadline_ = SimTime::zero();
};

/// Hot-counter updates through StatsRegistry: after the first touch of a
/// name the transparent-comparator lookup must be allocation-free (the
/// whole point of CounterMap using std::less<>).  Asserted here so the
/// bench smoke — which tier-1 runs via `ctest -L bench` — catches a
/// regression to per-update std::string temporaries.
std::uint64_t stats_counter_pass(int batch) {
  StatsRegistry stats;
  static constexpr std::string_view kHot[] = {
      "acp.msg.total", "wal.force.count", "lock.grants.immediate",
      "net.delivered"};
  for (const std::string_view name : kHot) stats.add(name, 0);
  const std::uint64_t allocs0 = allocation_count();
  for (int i = 0; i < batch; ++i) {
    stats.add(kHot[i & 3]);
  }
  const std::uint64_t delta = allocation_count() - allocs0;
  SIM_CHECK_MSG(delta == 0, "hot counter updates must not allocate");
  SIM_CHECK(stats.get("acp.msg.total") > 0);
  return static_cast<std::uint64_t>(batch);
}

}  // namespace

std::vector<PhaseBreakdownSample> storm_phase_breakdown(double sim_seconds) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(true);  // instrumented pass, never a timed region
  obs::PhaseLog phases;
  Cluster cluster(sim, storm_cluster(ProtocolKind::kOnePC, 2, &phases), stats,
                  trace);
  ThroughputMeter meter;
  Workload workload(cluster, WorkloadSpec{}, kStormClients, meter, stats);
  workload.start();
  sim.run_until(SimTime::zero() + Duration::from_seconds_f(sim_seconds));

  const obs::SpanSet spans = obs::assemble_spans(trace.events(), &phases);
  std::map<std::string, PhaseBreakdownSample> agg;
  for (const obs::Span& s : spans.spans) {
    if (s.kind != obs::SpanKind::kPhase) continue;
    PhaseBreakdownSample& row = agg[s.name];
    row.phase = s.name;
    row.count += 1;
    row.total_ns += s.duration_ns();
  }
  std::vector<PhaseBreakdownSample> out;
  for (auto& [name, row] : agg) {
    row.mean_ns = row.count > 0 ? row.total_ns / row.count : 0;
    out.push_back(row);
  }
  return out;
}

std::vector<BenchSample> run_kernel_report(const ReportOptions& opt) {
  std::vector<BenchSample> out;
  const int batch = opt.smoke ? 256 : 16384;
  out.push_back(measure("kernel_schedule_dispatch_16384", opt.smoke,
                        [batch] { return schedule_dispatch_pass(batch); }));
  const int churn = opt.smoke ? 256 : 4096;
  out.push_back(measure("kernel_cancel_churn_4096", opt.smoke,
                        [churn] { return cancel_churn_pass(churn); }));
  // One storm row per protocol so the allocation profile of every engine
  // stays visible and regression-gated (the 1PC row is the one the
  // committed baseline has always carried).
  static constexpr struct {
    const char* name;
    ProtocolKind proto;
    std::uint32_t participants;
  } kStorms[] = {
      {"fig6_storm_prn", ProtocolKind::kPrN, 2},
      {"fig6_storm_prc", ProtocolKind::kPrC, 2},
      {"fig6_storm_ep", ProtocolKind::kEP, 2},
      {"fig6_storm_1pc", ProtocolKind::kOnePC, 2},
      // 3-participant rows (ISSUE 10): one create spread across two worker
      // MDSs, so the per-participant ACK/vote bookkeeping stays gated.  The
      // 1PC row measures the presumed-abort degradation path.
      {"fig6_storm_prn_3p", ProtocolKind::kPrN, 3},
      {"fig6_storm_prc_3p", ProtocolKind::kPrC, 3},
      {"fig6_storm_ep_3p", ProtocolKind::kEP, 3},
      {"fig6_storm_1pc_3p", ProtocolKind::kOnePC, 3},
  };
  const Duration window = Duration::from_seconds_f(opt.smoke ? 0.05 : 1.0);
  // A storm directory only grows (creates, no deletes), and the flat dentry
  // table pays O(n) per insert into a big directory — so an unbounded
  // fixture would decelerate instead of reaching a steady state.  Recycling
  // the fixture every few windows bounds directory size; the reconstruction
  // cost lands inside the measured region and amortizes to well under one
  // alloc per event.  Allocations are counted over exactly one such cycle
  // from a fresh fixture: how far into a cycle the wall-clock loop stops
  // depends on host speed, and per-window allocs vary with directory size.
  constexpr int kRecycleWindows = 16;
  for (const auto& cfg : kStorms) {
    auto fx = std::make_unique<StormFixture>(cfg.proto, cfg.participants);
    int windows = 0;
    double sim_ops = 0;
    const auto one_cycle = [&cfg, window] {
      StormFixture fresh(cfg.proto, cfg.participants);
      std::uint64_t events = 0;
      for (int w = 0; w < kRecycleWindows; ++w) {
        events += fresh.step(window, nullptr);
      }
      return events;
    };
    BenchSample storm =
        measure(cfg.name, opt.smoke,
                [&cfg, &fx, &windows, window, &sim_ops] {
                  if (windows == kRecycleWindows) {
                    fx = std::make_unique<StormFixture>(cfg.proto,
                                                        cfg.participants);
                    windows = 0;
                  }
                  ++windows;
                  return fx->step(window, &sim_ops);
                },
                one_cycle);
    storm.sim_ops_per_sec = sim_ops;
    out.push_back(storm);
  }
  // New since the committed baseline; tools/bench_diff.py only compares
  // benches present in the baseline, so this sample is baseline-safe.
  const int counter_batch = opt.smoke ? 4096 : 65536;
  out.push_back(measure("stats_counter_add_65536", opt.smoke,
                        [counter_batch] {
                          return stats_counter_pass(counter_batch);
                        }));
  return out;
}

std::string render_json(const std::vector<BenchSample>& samples, bool smoke,
                        const std::vector<PhaseBreakdownSample>& breakdown) {
  std::string json = "{\n  \"schema\": 1,\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"benches\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const BenchSample& s = samples[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %llu, "
                  "\"events_per_sec\": %.1f, \"ns_per_event\": %.2f, "
                  "\"allocs_per_event\": %.4f, \"sim_ops_per_sec\": %.3f}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.events),
                  s.events_per_sec, s.ns_per_event, s.allocs_per_event,
                  s.sim_ops_per_sec, i + 1 < samples.size() ? "," : "");
    json += buf;
  }
  json += "  ]";
  if (!breakdown.empty()) {
    json += ",\n  \"storm_phase_breakdown\": [\n";
    for (std::size_t i = 0; i < breakdown.size(); ++i) {
      const PhaseBreakdownSample& b = breakdown[i];
      std::snprintf(buf, sizeof(buf),
                    "    {\"phase\": \"%s\", \"count\": %lld, "
                    "\"total_ns\": %lld, \"mean_ns\": %lld}%s\n",
                    b.phase.c_str(), static_cast<long long>(b.count),
                    static_cast<long long>(b.total_ns),
                    static_cast<long long>(b.mean_ns),
                    i + 1 < breakdown.size() ? "," : "");
      json += buf;
    }
    json += "  ]";
  }
  json += "\n}\n";
  return json;
}

int run_bench_command(const ReportOptions& opt) {
  const std::vector<BenchSample> samples = run_kernel_report(opt);

  TextTable table({"bench", "events/sec", "ns/event", "allocs/event",
                   "sim ops/s"});
  for (const BenchSample& s : samples) {
    table.add_row({s.name, TextTable::num(s.events_per_sec, 0),
                   TextTable::num(s.ns_per_event, 2),
                   TextTable::num(s.allocs_per_event, 4),
                   TextTable::num(s.sim_ops_per_sec, 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  // Untimed, traced storm pass: where simulated time goes per phase.
  const std::vector<PhaseBreakdownSample> breakdown =
      storm_phase_breakdown(opt.smoke ? 0.05 : 0.5);
  TextTable ptable({"storm phase", "count", "total ns", "mean ns"});
  for (const PhaseBreakdownSample& b : breakdown) {
    ptable.add_row({b.phase, std::to_string(b.count),
                    std::to_string(b.total_ns), std::to_string(b.mean_ns)});
  }
  std::fputs(ptable.render().c_str(), stdout);

  if (!opt.json_path.empty()) {
    const std::string json = render_json(samples, opt.smoke, breakdown);
    FILE* f = std::fopen(opt.json_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", opt.json_path.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  return 0;
}

}  // namespace opc::benchreport
