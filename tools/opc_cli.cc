// opc — command-line driver for the simulation library and the serving path.
//
// Runs any experiment the benches run, but parameterized from the command
// line and with optional CSV output, so new studies don't need a recompile:
//
//   opc storm  --proto 1pc --concurrency 100 --seconds 30
//   opc storm  --proto all --net-latency-us 5000 --csv
//   opc mixed  --nodes 8 --dirs 16 --ops 5000 --creates 0.5 --deletes 0.3
//   opc sweep  --param disk-bw --values 102400,409600,1638400 --csv
//   opc serve  --protocol 1pc --nodes 3 --uds /tmp/opc.sock
//   opc loadgen --uds /tmp/opc.sock --rate 20000 --duration 10s
//   opc timeline --proto prc
//   opc table1
//
// Run `opc help` for the full reference.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chaos/explorer.h"
#include "chaos/shrinker.h"
#include "cli_flags.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "core/timeline.h"
#include "obs/assembler.h"
#include "obs/export_chrome.h"
#include "obs/report.h"
#include "report/bench_report.h"
#include "rpc/loadgen.h"
#include "rpc/server.h"
#include "rt/rt_cluster.h"
#include "stats/table.h"

namespace {

using namespace opc;
using cli::Args;
using cli::CommonFlags;
using cli::parse_common;
using cli::parse_protocols;

ExperimentConfig config_from_args(const Args& a, const CommonFlags& cf,
                                  ProtocolKind proto) {
  ExperimentConfig cfg = paper_fig6_config(proto);
  cfg.cluster.n_nodes = static_cast<std::uint32_t>(a.num("nodes", 2));
  cfg.participants = cf.participants;
  // Wide txns need one distinct worker node per participant; raise the
  // cluster rather than failing so `--participants 3` works bare.
  if (cfg.cluster.n_nodes < cf.participants) {
    cfg.cluster.n_nodes = cf.participants;
  }
  cfg.cluster.net.latency = Duration::micros(a.num("net-latency-us", 100));
  cfg.cluster.disk.bytes_per_second = a.real("disk-bw", 400.0 * 1024.0);
  cfg.cluster.wal.force_pad_to =
      static_cast<std::uint64_t>(a.num("block", 8192));
  cfg.cluster.wal.group_commit = a.flag("group-commit");
  cfg.cluster.seed = cf.seed;
  cfg.source.concurrency =
      static_cast<std::uint32_t>(a.num("concurrency", 100));
  cfg.run_for = cf.duration;
  const auto run_secs =
      static_cast<std::int64_t>(cf.duration.to_seconds_f());
  cfg.warmup = Duration::seconds(
      std::max<std::int64_t>(1, a.num("warmup", run_secs / 6)));
  cfg.n_dirs = static_cast<std::uint32_t>(a.num("dirs", 1));
  if (a.num("crash-period-ms", 0) > 0) {
    cfg.crash_period = Duration::millis(a.num("crash-period-ms", 0));
    cfg.cluster.acp.response_timeout = Duration::millis(300);
    cfg.cluster.acp.retry_interval = Duration::millis(100);
    cfg.cluster.heartbeat.enabled = true;
    cfg.source.client_timeout = Duration::seconds(15);
  }
  return cfg;
}

/// Checks every cell, then runs them in parallel (results in cell order).
/// Returns the exit status: 2 when a cell holds a value the simulator would
/// abort on (a SIM_CHECK) or silently bend (concurrency 0 running as 1), in
/// which case the message names the flag and no cell runs; 1 when a run
/// broke an invariant; else 0.  Upper bounds keep a typo, or a negative
/// value wrapped to a huge unsigned one, from sizing a run past memory.
int run_cells(const std::vector<ExperimentConfig>& cells,
              std::vector<ExperimentResult>& results) {
  for (const ExperimentConfig& c : cells) {
    const Duration latency = c.cluster.net.latency;
    const std::pair<bool, const char*> rules[] = {
        {c.cluster.n_nodes <= 1024, "--nodes must be at most 1024"},
        {c.n_dirs >= 1 && c.n_dirs <= 65536, "--dirs must be in [1, 65536]"},
        {c.source.concurrency >= 1 && c.source.concurrency <= 65536,
         "--concurrency must be in [1, 65536]"},
        {c.batch >= 1 && c.batch <= 4096, "--batch must be in [1, 4096]"},
        {latency >= Duration::zero() && latency <= Duration::seconds(60),
         "--net-latency-us must be in [0, 60000000]"},
        {c.cluster.disk.bytes_per_second >= 1.0, "--disk-bw must be >= 1"},
        {c.cluster.wal.force_pad_to <= (1u << 30),
         "--block must be in [0, 1073741824]"},
        {c.run_for > Duration::zero(), "--duration/--seconds must be > 0"},
        {c.mix.create >= 0 && c.mix.remove >= 0 &&
             c.mix.create + c.mix.remove <= 1.0,
         "--creates and --deletes must be >= 0 and sum to at most 1"},
    };
    for (const auto& [ok, rule] : rules) {
      if (!ok) {
        std::fprintf(stderr, "%s\n", rule);
        return 2;
      }
    }
  }
  results = ParallelSweep::map<ExperimentConfig, ExperimentResult>(
      cells, run_experiment);
  for (const auto& r : results) {
    if (r.invariant_violations != 0) return 1;
  }
  return 0;
}

void print_results(const std::vector<ProtocolKind>& protos,
                   const std::vector<ExperimentResult>& results, bool csv) {
  TextTable table({"protocol", "ops_per_second", "committed", "aborted",
                   "lost", "p50_latency_ms", "p99_latency_ms",
                   "coordinator_disk_busy", "invariant_violations"});
  for (std::size_t i = 0; i < protos.size(); ++i) {
    const auto& r = results[i];
    table.add_row({std::string(protocol_name(protos[i])),
                   TextTable::num(r.ops_per_second, 3),
                   std::to_string(r.committed), std::to_string(r.aborted),
                   std::to_string(r.lost),
                   TextTable::num(r.latency.quantile_duration(0.5).to_millis_f(), 2),
                   TextTable::num(r.latency.quantile_duration(0.99).to_millis_f(), 2),
                   TextTable::num(r.coordinator_disk_busy, 3),
                   std::to_string(r.invariant_violations)});
  }
  std::fputs(csv ? table.render_csv().c_str() : table.render().c_str(),
             stdout);
}

int run_storm_cmd(const Args& a, bool batch_mode) {
  CommonFlags cf;
  if (!parse_common(a, "all", 30, cf)) return 2;
  if (batch_mode && cf.participants > 2) {
    std::fprintf(stderr,
                 "batch and --participants > 2 are alternative wide "
                 "shapes; use storm --participants N\n");
    return 2;
  }
  std::vector<ExperimentConfig> cells;
  for (ProtocolKind p : cf.protocols) {
    ExperimentConfig cfg = config_from_args(a, cf, p);
    if (batch_mode) cfg.batch = static_cast<std::uint32_t>(a.num("batch", 1));
    cfg.trace = a.flag("trace-hash");
    cells.push_back(cfg);
  }
  std::vector<ExperimentResult> results;
  const int rc = run_cells(cells, results);
  if (rc == 2) return rc;
  print_results(cf.protocols, results, cf.csv);
  if (a.flag("trace-hash")) {
    // The run's full-history FNV hash: equal seeds must print equal hashes
    // (the determinism contract tests/core asserts).
    for (std::size_t i = 0; i < cf.protocols.size(); ++i) {
      std::printf("trace_hash %s 0x%016llx\n",
                  std::string(protocol_name(cf.protocols[i])).c_str(),
                  static_cast<unsigned long long>(results[i].trace_hash));
    }
  }
  return rc;
}

int cmd_storm(const Args& a) { return run_storm_cmd(a, /*batch_mode=*/false); }
int cmd_batch(const Args& a) { return run_storm_cmd(a, /*batch_mode=*/true); }

int cmd_mixed(const Args& a) {
  CommonFlags cf;
  if (!parse_common(a, "1pc", 30, cf)) return 2;
  std::vector<ExperimentConfig> cells;
  for (ProtocolKind p : cf.protocols) {
    ExperimentConfig cfg = config_from_args(a, cf, p);
    cfg.shape = WorkloadShape::kMixed;
    // Renames take whatever --creates and --deletes leave.
    cfg.mix.create = a.real("creates", 0.6);
    cfg.mix.remove = a.real("deletes", 0.25);
    cfg.n_dirs = static_cast<std::uint32_t>(a.num("dirs", 8));
    // Four nodes unless --nodes asks for three or more.
    if (a.num("nodes", 2) < 3) {
      cfg.cluster.n_nodes = std::max<std::uint32_t>(4, cf.participants);
    }
    cfg.cluster.record_history = true;
    cfg.source.concurrency =
        static_cast<std::uint32_t>(a.num("concurrency", 8));
    cfg.source.max_ops = static_cast<std::uint64_t>(a.num("ops", 2000));
    cells.push_back(cfg);
  }
  std::vector<ExperimentResult> results;
  const int rc = run_cells(cells, results);
  if (rc == 2) return rc;
  print_results(cf.protocols, results, cf.csv);
  return rc;
}

/// Parses "v1,v2,..."; false (with a message) on an entry that is not a
/// number.  The magnitude bound keeps every value in range of an int64.
bool parse_values(const std::string& text, std::vector<double>& out) {
  for (std::size_t pos = 0, comma = 0; comma != std::string::npos;
       pos = comma + 1) {
    comma = text.find(',', pos);
    const std::string item = text.substr(pos, comma - pos);
    char* end = nullptr;
    out.push_back(std::strtod(item.c_str(), &end));
    if (item.empty() || *end != '\0' || !(std::abs(out.back()) <= 1e15)) {
      std::fprintf(stderr, "bad --values entry '%s' (want a number)\n",
                   item.c_str());
      return false;
    }
  }
  return true;
}

int cmd_sweep(const Args& a) {
  const std::string param = a.str("param", "");
  std::vector<double> vals;
  CommonFlags cf;
  if (!parse_values(a.str("values", ""), vals) ||
      !parse_common(a, "all", 30, cf)) {
    return 2;
  }
  // Each --param sets its namesake flag's field; a negative integer wraps.
  const auto u32 = [](double v) {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(v));
  };
  std::vector<ExperimentConfig> cells;
  for (double v : vals) {
    for (ProtocolKind p : cf.protocols) {
      ExperimentConfig cfg = config_from_args(a, cf, p);
      if (param == "net-latency-us") {
        cfg.cluster.net.latency =
            Duration::micros(static_cast<std::int64_t>(v));
      } else if (param == "disk-bw") {
        cfg.cluster.disk.bytes_per_second = v;
      } else if (param == "concurrency") {
        cfg.source.concurrency = u32(v);
      } else if (param == "dirs") {
        cfg.n_dirs = u32(v);
      } else {
        std::fprintf(stderr,
                     "usage: opc sweep --param "
                     "(net-latency-us|disk-bw|concurrency|dirs) --values "
                     "v1,v2,... [--proto all] [--csv]\n");
        return 2;
      }
      cells.push_back(cfg);
    }
  }
  std::vector<ExperimentResult> results;
  const int rc = run_cells(cells, results);
  if (rc == 2) return rc;

  TextTable table({param, "protocol", "ops_per_second",
                   "invariant_violations"});
  const std::size_t n = cf.protocols.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.add_row({TextTable::num(vals[i / n], 0),
                   std::string(protocol_name(cf.protocols[i % n])),
                   TextTable::num(results[i].ops_per_second, 3),
                   std::to_string(results[i].invariant_violations)});
  }
  std::fputs(cf.csv ? table.render_csv().c_str() : table.render().c_str(),
             stdout);
  return rc;
}

// Whole-file I/O for repro files, reports and traces; failures name the file.
bool read_file(const std::string& path, std::string& out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return true;
}

bool write_file(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// opc chaos — fault-schedule exploration, replay and shrinking.
// ---------------------------------------------------------------------------

std::string describe_schedule(const FaultSchedule& s) {
  std::string text = render_schedule(s);
  if (text.empty()) text = "(no faults)\n";
  return text;
}

int chaos_replay(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) return 2;
  ChaosRunConfig cfg;
  FaultSchedule schedule;
  if (!parse_repro(text, cfg, schedule)) {
    std::fprintf(stderr, "malformed repro file '%s'\n", path.c_str());
    return 2;
  }
  std::printf("replaying %s: proto=%s nodes=%u seed=%llu, %zu fault(s), "
              "%zu trigger(s)\n",
              path.c_str(), std::string(protocol_name(cfg.protocol)).c_str(),
              cfg.n_nodes, static_cast<unsigned long long>(cfg.seed),
              schedule.events.size(), schedule.triggers.size());
  const ChaosRunResult r = run_schedule(cfg, schedule);
  std::printf("trace_hash 0x%016llx  committed %llu  aborted %llu\n",
              static_cast<unsigned long long>(r.trace_hash),
              static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.aborted));
  if (r.passed) {
    std::printf("all checkers green — failure did NOT reproduce\n");
    return 0;
  }
  std::printf("failure reproduced:\n%s",
              render_failures(r.failures).c_str());
  return 1;
}

int cmd_chaos(const Args& a) {
  const std::string replay = a.str("replay", "");
  if (!replay.empty()) return chaos_replay(replay);

  std::vector<ProtocolKind> protos;
  // Accept both --protocol and --proto; a single protocol per exploration.
  if (!parse_protocols(a.str("protocol", a.str("proto", "1pc")), protos) ||
      protos.size() != 1) {
    std::fprintf(stderr, "chaos needs one --protocol (prn|prc|ep|1pc|pra)\n");
    return 2;
  }

  ExplorerConfig cfg;
  cfg.base.protocol = protos[0];
  cfg.base.n_nodes = static_cast<std::uint32_t>(a.num("nodes", 3));
  if (!cli::parse_participants(a, cfg.base.participants)) return 2;
  // Each participant occupies a distinct MDS; raise the cluster rather
  // than failing so `--participants 5` works without --nodes.
  if (cfg.base.n_nodes < cfg.base.participants) {
    cfg.base.n_nodes = cfg.base.participants;
  }
  cfg.base.concurrency = static_cast<std::uint32_t>(a.num("concurrency", 6));
  cfg.base.n_dirs = static_cast<std::uint32_t>(a.num("dirs", 4));
  cfg.base.run_for = Duration::seconds(a.num("seconds", 8));
  cfg.base.unsafe_skip_fencing = a.flag("bug");
  cfg.n_schedules = static_cast<std::uint32_t>(a.num("schedules", 100));
  cfg.seed = static_cast<std::uint64_t>(a.num("seed", 42));
  cfg.max_faults = static_cast<std::uint32_t>(a.num("max-faults", 4));
  cfg.systematic = a.flag("systematic");
  cfg.max_systematic = static_cast<std::uint32_t>(a.num("max-systematic", 64));
  cfg.threads = static_cast<unsigned>(a.num("threads", 0));

  std::printf("exploring %u random schedule(s)%s, proto %s, master seed "
              "%llu%s\n",
              cfg.n_schedules,
              cfg.systematic ? " + systematic crash points" : "",
              std::string(protocol_name(cfg.base.protocol)).c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.base.unsafe_skip_fencing
                  ? " [BUG INJECTED: fencing skipped]"
                  : "");
  const ExplorationReport report = explore(cfg);
  std::printf("schedules %zu  passed %u  failed %u  combined_hash 0x%016llx\n",
              report.outcomes.size(), report.passed, report.failed,
              static_cast<unsigned long long>(report.combined_hash));
  if (report.failed == 0) {
    std::printf("all checkers green\n");
    return 0;
  }

  const ScheduleOutcome* fail = report.first_failure();
  std::printf("\nfirst failure: schedule #%u (seed %llu%s)\n%s%s",
              fail->index, static_cast<unsigned long long>(fail->seed),
              fail->systematic ? ", systematic" : "",
              describe_schedule(fail->schedule).c_str(),
              render_failures(fail->result.failures).c_str());

  ChaosRunConfig rcfg = cfg.base;
  rcfg.seed = fail->seed;
  std::printf("\nshrinking...\n");
  const ShrinkResult shrunk = shrink(rcfg, fail->schedule);
  std::printf("minimal repro after %u run(s): %zu of %zu item(s)\n%s%s",
              shrunk.runs, shrunk.minimal.size(), fail->schedule.size(),
              describe_schedule(shrunk.minimal).c_str(),
              render_failures(shrunk.result.failures).c_str());

  const std::string out_path = a.str("out", "chaos.repro");
  if (write_file(out_path, render_repro(rcfg, shrunk.minimal))) {
    std::printf("\nrepro written to %s — replay with: opc chaos --replay "
                "%s\n",
                out_path.c_str(), out_path.c_str());
  }
  return 1;
}

// ---------------------------------------------------------------------------
// opc trace — span assembly, exporters, run reports (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

struct TracedStorm {
  ProtocolKind proto = ProtocolKind::kOnePC;
  ExperimentResult result;
  obs::SpanSet spans;
  obs::RunReport report;
};

/// One traced seeded create storm: run, assemble spans, build the report.
/// Takes the same cluster/workload flags as `opc storm`, but defaults to a
/// short window — tracing keeps every event in memory.
bool run_traced_storm(const Args& a, TracedStorm& out) {
  CommonFlags cf;
  if (!parse_common(a, "1pc", 2, cf) || cf.protocols.size() != 1) {
    std::fprintf(stderr, "trace needs one --proto (prn|prc|ep|1pc|pra)\n");
    return false;
  }
  out.proto = cf.protocols[0];
  ExperimentConfig cfg = config_from_args(a, cf, out.proto);
  cfg.trace = true;
  std::vector<ExperimentResult> results;
  if (run_cells({cfg}, results) == 2) return false;
  out.result = std::move(results[0]);
  out.spans = obs::assemble_spans(out.result.trace_events, &out.result.phases);

  obs::ReportInputs in;
  in.meta.protocol = std::string(protocol_name(out.proto));
  in.meta.workload = "create_storm";
  in.meta.seed = cfg.cluster.seed;
  in.meta.nodes = static_cast<int>(cfg.cluster.n_nodes);
  in.meta.sim_duration_ns = (cfg.warmup + cfg.run_for).count_nanos();
  in.spans = &out.spans;
  in.stats = &out.result.stats;
  in.latency = &out.result.latency;
  in.committed = static_cast<std::int64_t>(out.result.committed);
  in.aborted = static_cast<std::int64_t>(out.result.aborted);
  in.lost = static_cast<std::int64_t>(out.result.lost);
  in.ops_per_second = out.result.ops_per_second;
  in.trace_hash = out.result.trace_hash;
  out.report = obs::build_report(in);
  return true;
}

int trace_diff(const std::string& path_a, const std::string& path_b) {
  std::string text_a, text_b;
  if (!read_file(path_a, text_a) || !read_file(path_b, text_b)) return 2;
  obs::RunReport ra, rb;
  if (!obs::report_from_json(text_a, ra)) {
    std::fprintf(stderr, "malformed report '%s'\n", path_a.c_str());
    return 2;
  }
  if (!obs::report_from_json(text_b, rb)) {
    std::fprintf(stderr, "malformed report '%s'\n", path_b.c_str());
    return 2;
  }
  std::fputs(obs::render_report_diff(ra, rb).c_str(), stdout);
  return 0;
}

int cmd_trace(const Args& a) {
  const std::vector<std::string>& pos = a.positionals();
  const std::string action = pos.empty() ? "" : pos[0];

  if (action == "diff") {
    if (pos.size() != 3) {
      std::fprintf(stderr, "usage: opc trace diff A.json B.json\n");
      return 2;
    }
    return trace_diff(pos[1], pos[2]);
  }

  const std::string exp = a.str("export", "");
  if (!exp.empty()) {
    if (exp != "chrome") {
      std::fprintf(stderr, "unknown --export format (chrome)\n");
      return 2;
    }
    // With --export, the positional (if any) is the output path.
    const std::string out_path = !pos.empty() ? pos[0] : "trace.json";
    TracedStorm run;
    if (!run_traced_storm(a, run)) return 2;
    const std::string data = obs::export_chrome_trace(run.spans);
    if (!write_file(out_path, data)) return 2;
    std::printf("wrote %s (%zu spans, %zu bytes)\n", out_path.c_str(),
                run.spans.size(), data.size());
    return 0;
  }

  if (!action.empty() && action != "report" && action != "top" &&
      action != "phases") {
    std::fprintf(stderr,
                 "usage: opc trace [report|top|phases|diff A.json B.json] "
                 "[--export chrome OUT] [--proto P] [--seconds N] "
                 "[--json FILE] [--n N]\n");
    return 2;
  }

  TracedStorm run;
  if (!run_traced_storm(a, run)) return 2;

  if (action == "top") {
    const auto n = static_cast<std::size_t>(a.num("n", 10));
    TextTable table({"txn", "op", "begin_ms", "duration_ms",
                     "slowest phases"});
    std::size_t shown = 0;
    for (const obs::SlowTxnRow& row : run.report.slowest) {
      if (shown++ >= n) break;
      std::string phases;
      std::size_t count = 0;
      for (const auto& [name, ns] : row.phases) {
        if (count++ >= 3) break;
        if (!phases.empty()) phases += ", ";
        phases += name + "=" + TextTable::num(
                                   static_cast<double>(ns) / 1e6, 3) + "ms";
      }
      table.add_row({std::to_string(row.txn), row.name,
                     TextTable::num(static_cast<double>(row.begin_ns) / 1e6,
                                    3),
                     TextTable::num(
                         static_cast<double>(row.duration_ns) / 1e6, 3),
                     phases});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }

  if (action == "phases") {
    TextTable table({"phase", "count", "total_ns", "mean_ns", "max_ns"});
    for (const obs::PhaseBreakdownRow& row : run.report.phases) {
      table.add_row({row.name, std::to_string(row.count),
                     std::to_string(row.total_ns),
                     std::to_string(row.mean_ns),
                     std::to_string(row.max_ns)});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }

  // Default action: full report text, optional REPORT.json.
  std::fputs(obs::render_report_text(run.report).c_str(), stdout);
  const std::string json_path = a.str("json", "");
  if (!json_path.empty()) {
    if (!write_file(json_path, obs::report_to_json(run.report))) return 2;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// opc rtstorm — live multi-threaded storm on the real-time backend.
// ---------------------------------------------------------------------------

int cmd_rtstorm(const Args& a) {
  CommonFlags cf;
  if (!parse_common(a, "1pc", 0, cf)) return 2;
  const bool smoke = a.flag("smoke");

  RtClusterConfig base;
  base.n_nodes = static_cast<std::uint32_t>(a.num("nodes", 2));
  if (base.n_nodes < cf.participants) base.n_nodes = cf.participants;
  base.seed = cf.seed;
  base.net.latency = Duration::micros(a.num("net-latency-us", 100));
  // Real seconds, not simulated ones: default to a device fast enough that
  // a live run finishes promptly; --disk-bw restores the paper's 400 KB/s.
  base.disk.bytes_per_second = a.real("disk-bw", 4.0 * 1024.0 * 1024.0);
  base.wal.force_pad_to = static_cast<std::uint64_t>(a.num("block", 8192));
  base.wal.group_commit = a.flag("group-commit");

  const auto ops = static_cast<std::uint32_t>(
      a.num("ops", smoke ? 50 : 2000));  // per node
  const auto concurrency =
      static_cast<std::uint32_t>(a.num("concurrency", smoke ? 8 : 32));
  const Duration max_wall = cf.duration;
  if (!cf.report.empty() && cf.protocols.size() != 1) {
    std::fprintf(stderr, "--report needs a single --protocol\n");
    return 2;
  }

  int rc = 0;
  TextTable table({"protocol", "ops_per_second", "timer_late_p50_ns",
                   "timer_late_p99_ns", "committed", "aborted",
                   "p50_latency_ms", "p99_latency_ms", "wall_seconds",
                   "invariant_violations"});
  for (ProtocolKind p : cf.protocols) {
    RtClusterConfig cfg = base;
    cfg.protocol = p;
    const StormPlan plan = make_storm_plan(cfg.n_nodes, ops, cf.participants);
    RtCluster cluster(cfg);
    const RtCluster::StormResult res =
        cluster.run_storm(plan, concurrency, max_wall);
    const auto violations = cluster.check_invariants(plan.dirs);
    if (!violations.empty()) rc = 1;

    table.add_row(
        {std::string(protocol_name(p)), TextTable::num(res.ops_per_second, 3),
         std::to_string(res.stats.get("rt.timer.late_p50_ns")),
         std::to_string(res.stats.get("rt.timer.late_p99_ns")),
         std::to_string(res.committed), std::to_string(res.aborted),
         TextTable::num(res.latency.quantile_duration(0.5).to_millis_f(), 2),
         TextTable::num(res.latency.quantile_duration(0.99).to_millis_f(), 2),
         TextTable::num(res.wall_seconds, 3),
         std::to_string(violations.size())});

    if (!cf.report.empty()) {
      obs::ReportInputs in;
      in.meta.protocol = std::string(protocol_name(p));
      in.meta.workload = "rtstorm";
      in.meta.seed = cfg.seed;
      in.meta.nodes = static_cast<int>(cfg.n_nodes);
      in.meta.sim_duration_ns =
          static_cast<std::int64_t>(res.wall_seconds * 1e9);
      in.stats = &res.stats;
      in.latency = &res.latency;
      in.committed = static_cast<std::int64_t>(res.committed);
      in.aborted = static_cast<std::int64_t>(res.aborted);
      in.ops_per_second = res.ops_per_second;
      if (!write_file(cf.report,
                      obs::report_to_json(obs::build_report(in)))) {
        return 2;
      }
    }
  }
  std::fputs(cf.csv ? table.render_csv().c_str() : table.render().c_str(),
             stdout);
  return rc;
}

// ---------------------------------------------------------------------------
// opc serve / opc loadgen — the real serving path (docs/SERVING.md).
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal(int) { g_serve_stop = 1; }

constexpr const char* kDefaultSock = "/tmp/opc-serve.sock";

int cmd_serve(const Args& a) {
  CommonFlags cf;
  if (!parse_common(a, "1pc", 0, cf) || cf.protocols.size() != 1) {
    std::fprintf(stderr, "serve needs one --protocol (prn|prc|ep|1pc|pra)\n");
    return 2;
  }

  RtClusterConfig cfg;
  cfg.protocol = cf.protocols[0];
  cfg.n_nodes = static_cast<std::uint32_t>(a.num("nodes", 3));
  cfg.seed = cf.seed;
  cfg.net.latency = Duration::micros(a.num("net-latency-us", 0));
  // Serving default: a device that sustains tens of thousands of 8 KiB
  // commit forces per second (NVMe-class), so the socket path — not the
  // modeled disk — is what a loadgen measures.  --disk-bw dials it down.
  cfg.disk.bytes_per_second = a.real("disk-bw", 2.0 * 1024 * 1024 * 1024);
  cfg.wal.force_pad_to = static_cast<std::uint64_t>(a.num("block", 8192));
  cfg.wal.group_commit = a.flag("group-commit");

  RtCluster cluster(cfg);
  // Bootstrap the hot directories the StridedPartitioner serves: ids
  // 1..n_nodes, homed on nodes 0..n-1 (same namespace as rtstorm plans).
  for (std::uint32_t i = 0; i < cfg.n_nodes; ++i) {
    cluster.bootstrap_directory(ObjectId(i + 1), NodeId(i));
  }

  rpc::RpcServerConfig scfg;
  scfg.uds_path = a.str("uds", "");
  scfg.tcp = a.flag("tcp") || a.has("port");
  scfg.tcp_port = static_cast<std::uint16_t>(a.num("port", 0));
  if (scfg.uds_path.empty() && !scfg.tcp) scfg.uds_path = kDefaultSock;
  scfg.event_threads = static_cast<std::uint32_t>(a.num("event-threads", 1));
  scfg.max_inflight = static_cast<std::uint32_t>(a.num("max-inflight", 1024));
  if (a.num("timeout-ms", 0) > 0) {
    scfg.request_timeout = Duration::millis(a.num("timeout-ms", 0));
  }

  rpc::RpcServer server(cluster, scfg);
  if (!server.start()) return 2;
  std::printf("serving %s on %s%s (nodes=%u, max-inflight=%u)\n",
              std::string(protocol_name(cfg.protocol)).c_str(),
              scfg.uds_path.empty() ? "tcp 127.0.0.1:" : scfg.uds_path.c_str(),
              scfg.uds_path.empty()
                  ? std::to_string(server.tcp_port()).c_str()
                  : "",
              cfg.n_nodes, scfg.max_inflight);
  std::fflush(stdout);

  std::signal(SIGINT, serve_signal);
  std::signal(SIGTERM, serve_signal);
  const auto start = std::chrono::steady_clock::now();
  const bool bounded = cf.duration > Duration::zero();
  while (g_serve_stop == 0) {
    if (bounded && std::chrono::steady_clock::now() - start >=
                       std::chrono::nanoseconds(cf.duration.count_nanos())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.stop();
  cluster.env().wait_idle();

  // Quiescent now: fold the nodes' results (acp, wal, lock, rt.timer) and
  // the server's counters.
  RtCluster::StormResult res = cluster.fold_results();
  server.export_stats(res.stats);

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  TextTable table({"protocol", "committed", "aborted", "busy_shed",
                   "p50_latency_ms", "p99_latency_ms", "timer_late_p50_ns",
                   "wall_seconds"});
  table.add_row(
      {std::string(protocol_name(cfg.protocol)),
       std::to_string(res.committed), std::to_string(res.aborted),
       std::to_string(server.busy_count()),
       TextTable::num(res.latency.quantile_duration(0.5).to_millis_f(), 2),
       TextTable::num(res.latency.quantile_duration(0.99).to_millis_f(), 2),
       std::to_string(res.stats.get("rt.timer.late_p50_ns")),
       TextTable::num(wall, 3)});
  std::fputs(cf.csv ? table.render_csv().c_str() : table.render().c_str(),
             stdout);

  if (!cf.report.empty()) {
    obs::ReportInputs in;
    in.meta.protocol = std::string(protocol_name(cfg.protocol));
    in.meta.workload = "serve";
    in.meta.seed = cfg.seed;
    in.meta.nodes = static_cast<int>(cfg.n_nodes);
    in.meta.sim_duration_ns = static_cast<std::int64_t>(wall * 1e9);
    in.stats = &res.stats;
    in.latency = &res.latency;
    in.committed = static_cast<std::int64_t>(res.committed);
    in.aborted = static_cast<std::int64_t>(res.aborted);
    in.ops_per_second =
        wall > 0 ? static_cast<double>(res.committed + res.aborted) / wall
                 : 0.0;
    if (!write_file(cf.report, obs::report_to_json(obs::build_report(in)))) {
      return 2;
    }
  }
  return 0;
}

int cmd_loadgen(const Args& a) {
  CommonFlags cf;
  if (!parse_common(a, "1pc", 10, cf) || cf.protocols.size() != 1) {
    std::fprintf(stderr,
                 "loadgen labels its report with one --protocol "
                 "(prn|prc|ep|1pc|pra)\n");
    return 2;
  }

  rpc::LoadgenConfig lc;
  lc.uds_path = a.str("uds", "");
  lc.tcp_port = static_cast<std::uint16_t>(a.num("port", 0));
  if (lc.uds_path.empty() && lc.tcp_port == 0) lc.uds_path = kDefaultSock;
  lc.threads = static_cast<std::uint32_t>(a.num("threads", 4));
  lc.rate = a.real("rate", 10000.0);
  lc.duration = cf.duration;
  lc.seed = cf.seed;
  lc.n_dirs = static_cast<std::uint32_t>(a.num("dirs", 3));
  lc.zipf_s = a.real("zipf", 0.0);
  lc.participants = cf.participants;
  lc.create_weight = a.real("creates", 0.8);
  lc.mkdir_weight = a.real("mkdirs", 0.1);
  lc.rename_weight = a.real("renames", 0.1);

  const rpc::LoadgenResult res = rpc::run_loadgen(lc);
  if (res.transport_errors > 0) {
    std::fprintf(stderr, "loadgen transport error: %s\n", res.error.c_str());
  }

  TextTable table({"offered_rate", "achieved_rate", "sent", "ok", "aborted",
                   "busy", "errors", "lost", "p50_ms", "p95_ms", "p99_ms",
                   "p999_ms", "late_p50_ms", "late_p99_ms"});
  const auto ms = [](const Histogram& h, double q) {
    return TextTable::num(h.quantile_duration(q).to_millis_f(), 3);
  };
  table.add_row({TextTable::num(res.offered_rate, 0),
                 TextTable::num(res.achieved_rate, 0),
                 std::to_string(res.sent), std::to_string(res.ok),
                 std::to_string(res.aborted), std::to_string(res.busy),
                 std::to_string(res.not_found + res.bad_request +
                                res.timeouts + res.shutdown +
                                res.transport_errors),
                 std::to_string(res.lost), ms(res.latency, 0.5),
                 ms(res.latency, 0.95), ms(res.latency, 0.99),
                 ms(res.latency, 0.999), ms(res.late, 0.5),
                 ms(res.late, 0.99)});
  std::fputs(cf.csv ? table.render_csv().c_str() : table.render().c_str(),
             stdout);

  if (!cf.report.empty()) {
    StatsRegistry stats;
    stats.set("loadgen.sent", static_cast<std::int64_t>(res.sent));
    stats.set("loadgen.ok", static_cast<std::int64_t>(res.ok));
    stats.set("loadgen.aborted", static_cast<std::int64_t>(res.aborted));
    stats.set("loadgen.busy", static_cast<std::int64_t>(res.busy));
    stats.set("loadgen.not_found", static_cast<std::int64_t>(res.not_found));
    stats.set("loadgen.bad_request",
              static_cast<std::int64_t>(res.bad_request));
    stats.set("loadgen.timeouts", static_cast<std::int64_t>(res.timeouts));
    stats.set("loadgen.shutdown", static_cast<std::int64_t>(res.shutdown));
    stats.set("loadgen.skipped", static_cast<std::int64_t>(res.skipped));
    stats.set("loadgen.transport_errors",
              static_cast<std::int64_t>(res.transport_errors));
    stats.set("loadgen.late_p50_us",
              static_cast<std::int64_t>(res.late.quantile(0.5) * 1e-3));
    stats.set("loadgen.late_p99_us",
              static_cast<std::int64_t>(res.late.quantile(0.99) * 1e-3));
    obs::ReportInputs in;
    in.meta.protocol = std::string(protocol_name(cf.protocols[0]));
    in.meta.workload = "loadgen";
    in.meta.seed = cf.seed;
    in.meta.nodes = static_cast<int>(a.num("nodes", 0));
    in.meta.sim_duration_ns =
        static_cast<std::int64_t>(res.wall_seconds * 1e9);
    in.stats = &stats;
    in.latency = &res.latency;
    in.committed = static_cast<std::int64_t>(res.ok);
    in.aborted = static_cast<std::int64_t>(res.aborted);
    in.lost = static_cast<std::int64_t>(res.lost);
    in.ops_per_second = res.achieved_rate;
    if (!write_file(cf.report, obs::report_to_json(obs::build_report(in)))) {
      return 2;
    }
  }

  if (res.transport_errors > 0) return 2;
  if (res.hard_failures() > 0) return 1;
  const double p99_bound_ms = a.real("max-p99-ms", 0.0);
  if (p99_bound_ms > 0 &&
      res.latency.quantile_duration(0.99).to_millis_f() > p99_bound_ms) {
    std::fprintf(stderr, "p99 %.3f ms exceeds --max-p99-ms %.3f\n",
                 res.latency.quantile_duration(0.99).to_millis_f(),
                 p99_bound_ms);
    return 1;
  }
  return 0;
}

int cmd_bench(const Args& a) {
  benchreport::ReportOptions opt;
  opt.smoke = a.flag("smoke");
  opt.json_path = a.str("json", "");
  return benchreport::run_bench_command(opt);
}

int cmd_timeline(const Args& a) {
  std::vector<ProtocolKind> protos;
  if (!parse_protocols(a.str("proto", "all"), protos)) return 2;
  for (ProtocolKind p : protos) {
    const TimelineResult r = run_single_create(p);
    std::printf("=== %s: one distributed CREATE ===\n",
                std::string(protocol_name(p)).c_str());
    std::printf("client latency %s, finished %s; writes (sync,async) total "
                "(%d,%d) critical (%d,%d); extra msgs %d (critical %d)\n\n",
                to_string(r.client_latency).c_str(),
                to_string(r.txn_complete).c_str(), r.sync_writes,
                r.async_writes, r.sync_writes_critical,
                r.async_writes_critical, r.extra_msgs,
                r.extra_msgs_critical);
    std::fputs(r.chart.c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}

int cmd_table1(const Args&) {
  TextTable table({"protocol", "total (sync,async)", "critical (sync,async)",
                   "total msgs", "critical msgs"});
  for (ProtocolKind p : kAllProtocolsExt) {
    const TimelineResult r = run_single_create(p);
    table.add_row({std::string(protocol_name(p)),
                   "(" + std::to_string(r.sync_writes) + ", " +
                       std::to_string(r.async_writes) + ")",
                   "(" + std::to_string(r.sync_writes_critical) + ", " +
                       std::to_string(r.async_writes_critical) + ")",
                   std::to_string(r.extra_msgs),
                   std::to_string(r.extra_msgs_critical)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_help(const Args&);

// ---------------------------------------------------------------------------
// Verb registry: dispatch and the help listing are generated from the same
// table, so `opc help` cannot silently miss a verb (the CLI smoke test
// asserts each name below appears in the output).
// ---------------------------------------------------------------------------
struct Verb {
  const char* name;
  const char* summary;
  int (*fn)(const Args&);
};

const Verb kVerbs[] = {
    {"storm", "create storm into hot directories (the paper's Fig. 6)",
     cmd_storm},
    {"batch", "storm with aggregated transactions (--batch N)", cmd_batch},
    {"mixed", "mixed CREATE/DELETE/RENAME over a hash-partitioned tree",
     cmd_mixed},
    {"sweep", "parameter sweep (--param X --values a,b,c)", cmd_sweep},
    {"rtstorm", "live storm on the real-time threaded backend", cmd_rtstorm},
    {"serve", "serve an RtCluster over UDS/TCP (docs/SERVING.md)", cmd_serve},
    {"loadgen", "open-loop load generator against a running opc serve",
     cmd_loadgen},
    {"chaos", "property-based fault-schedule exploration", cmd_chaos},
    {"bench", "kernel benchmark report (--json FILE, --smoke)", cmd_bench},
    {"trace", "traced storm -> causal spans + run report", cmd_trace},
    {"timeline", "message/log-write chart of one CREATE (Figs. 2-5)",
     cmd_timeline},
    {"table1", "per-protocol cost counters (Table I, + PrA extension)",
     cmd_table1},
    {"help", "this text", cmd_help},
};

int cmd_help(const Args&) {
  std::puts("opc — One Phase Commit metadata-service simulator\n");
  std::puts("subcommands:");
  for (const Verb& v : kVerbs) {
    std::printf("  %-9s %s\n", v.name, v.summary);
  }
  std::puts(
      "\n"
      "common flags (every traffic verb):\n"
      "  --protocol|--proto prn|prc|ep|1pc|pra|all|all+\n"
      "  --seed 1           deterministic workload seed\n"
      "  --duration 10s     run window (10s, 500ms, ...; or --seconds N)\n"
      "  --report FILE      write the run's RunReport JSON\n"
      "  --csv              machine-readable output\n"
      "  --participants 2   MDSs per transaction (storm/mixed/rtstorm/\n"
      "                     chaos/loadgen; >2 spreads each create over\n"
      "                     N-1 workers and 1PC degrades to pra)\n"
      "\n"
      "storm/mixed/sweep flags (with defaults):\n"
      "  --nodes 2          metadata servers\n"
      "  --concurrency 100  outstanding client operations\n"
      "  --dirs 1           hot directories (all on mds0)\n"
      "  --net-latency-us 100\n"
      "  --disk-bw 409600   log device bytes/second\n"
      "  --block 8192       forced-write block size\n"
      "  --group-commit     coalesce concurrent log forces\n"
      "  --crash-period-ms 0  inject worker crashes on a period\n"
      "  --batch 1          creates per transaction (batch subcommand)\n"
      "  --trace-hash       print the run's history hash (storm)\n"
      "  --ops 2000 --creates 0.6 --deletes 0.25   mixed op count and mix\n"
      "                     (renames take the rest)\n"
      "\n"
      "rtstorm flags (with defaults):\n"
      "  --nodes 2          one worker thread per node\n"
      "  --ops 2000         creates per node (fixed-count closed loop)\n"
      "  --concurrency 32   outstanding transactions per node\n"
      "  --disk-bw 4194304  modeled log-device bytes/second (real delays)\n"
      "  --smoke            small fast run (50 ops, concurrency 8)\n"
      "\n"
      "serve flags (with defaults):\n"
      "  --nodes 3          cluster size (one worker thread per node)\n"
      "  --uds /tmp/opc-serve.sock   Unix-domain listen path\n"
      "  --port 0 | --tcp   listen on 127.0.0.1 (0 = ephemeral)\n"
      "  --max-inflight 1024  admitted requests before BUSY shedding\n"
      "  --event-threads 1  poll loops\n"
      "  --timeout-ms 0     server-side request deadline (0 = off)\n"
      "  --disk-bw 2147483648  modeled log device (NVMe-class default)\n"
      "  --duration 0       serve window (0 = until SIGINT)\n"
      "\n"
      "loadgen flags (with defaults):\n"
      "  --uds /tmp/opc-serve.sock | --port P   target server\n"
      "  --rate 10000       offered ops/second (open loop, Poisson)\n"
      "  --threads 4        client connections\n"
      "  --dirs 3           hot directories 1..N (must be served)\n"
      "  --zipf 0           directory skew exponent (0 = uniform)\n"
      "  --creates 0.8 --mkdirs 0.1 --renames 0.1   op mix\n"
      "  --max-p99-ms 0     fail the run above this p99 (0 = off)\n"
      "  --participants 2   >2 sends wide creates (<= server --nodes)\n"
      "\n"
      "chaos flags (with defaults):\n"
      "  --protocol 1pc     one protocol per exploration\n"
      "  --schedules 100    random fault schedules to explore\n"
      "  --seed 42          master seed (equal seeds => identical output)\n"
      "  --max-faults 4     faults per random schedule\n"
      "  --participants 2   MDSs per transaction (raises --nodes if needed)\n"
      "  --systematic       also enumerate trace-keyed crash points\n"
      "  --seconds 8        workload window per schedule\n"
      "  --bug              inject the skip-fencing bug (oracle demo)\n"
      "  --out chaos.repro  minimal-repro output file on failure\n"
      "  --replay FILE      re-run one repro file deterministically\n"
      "\n"
      "trace actions (seeded 2 s storm unless --seconds given):\n"
      "  trace report [--json REPORT.json]   full run report\n"
      "  trace top [--n 10]                  slowest transactions\n"
      "  trace phases                        per-phase time breakdown\n"
      "  trace diff A.json B.json            compare two REPORT.json files\n"
      "  trace --export chrome out.json      Perfetto/chrome trace_event\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "help" : argv[1];
  const Args args(argc, argv, 2);
  for (const Verb& v : kVerbs) {
    if (cmd == v.name) return v.fn(args);
  }
  if (cmd == "--help" || cmd == "-h") return cmd_help(args);
  std::fprintf(stderr, "unknown subcommand '%s'\n\n", cmd.c_str());
  cmd_help(args);
  return 2;
}
