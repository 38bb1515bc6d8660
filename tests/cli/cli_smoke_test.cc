// CLI surface smoke (ISSUE 6 satellite): `opc --help` must list every verb
// in the registry, and the exit-code contract must hold.  This is the
// tripwire for "added a verb but forgot the help text" and for regressions
// in the shared flag layer's dispatch.
//
// The binary path is injected by CMake as OPC_BIN.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run(const std::string& args) {
  const std::string cmd = std::string(OPC_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) {
    r.output.append(buf, n);
  }
  const int status = ::pclose(p);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(CliSmoke, HelpListsEveryVerb) {
  const RunResult r = run("--help");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Keep in lockstep with kVerbs[] in tools/opc_cli.cc.
  const char* verbs[] = {"storm",  "batch",   "mixed", "sweep",    "rtstorm",
                         "serve",  "loadgen", "chaos", "bench",    "trace",
                         "timeline", "table1", "help"};
  for (const char* v : verbs) {
    EXPECT_NE(r.output.find(std::string("\n  ") + v), std::string::npos)
        << "verb '" << v << "' missing from --help output:\n"
        << r.output;
  }
}

TEST(CliSmoke, HelpDocumentsSharedFlags) {
  const RunResult r = run("help");
  EXPECT_EQ(r.exit_code, 0);
  // The shared flag layer (tools/cli_flags.h) must be surfaced for the
  // verbs that use it, with the common spellings present.
  for (const char* flag :
       {"--protocol", "--seed", "--duration", "--report", "--participants"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "shared flag " << flag << " missing from help";
  }
  // And the serving path's own flags.
  for (const char* flag : {"--uds", "--rate", "--max-inflight"}) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "serving flag " << flag << " missing from help";
  }
}

TEST(CliSmoke, UnknownSubcommandExitsNonzero) {
  const RunResult r = run("frobnicate");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos);
}

TEST(CliSmoke, BadFlagValueExitsNonzero) {
  const RunResult r = run("storm --duration banana");
  EXPECT_NE(r.exit_code, 0) << r.output;
}

TEST(CliSmoke, ParticipantsOutOfRangeRejected) {
  // One spelling, one validator (tools/cli_flags.h parse_participants).
  const RunResult low = run("storm --participants 1 --duration 250ms");
  EXPECT_EQ(low.exit_code, 2) << low.output;
  EXPECT_NE(low.output.find("--participants"), std::string::npos);
  const RunResult high = run("chaos --participants 65 --schedules 1");
  EXPECT_EQ(high.exit_code, 2) << high.output;
}

TEST(CliSmoke, WideStormRunsAndRaisesNodes) {
  // --participants 3 with the default --nodes 2 must auto-raise the
  // cluster instead of tripping the experiment's SIM_CHECK.
  const RunResult r =
      run("storm --protocol prn --participants 3 --duration 250ms");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CliSmoke, MixedHonoursParticipants) {
  // Same cluster and seed: wider creates must change the run.
  const std::string base = "mixed --protocol prn --nodes 4 --ops 200 --seconds 5";
  const RunResult two = run(base);
  const RunResult three = run(base + " --participants 3");
  EXPECT_EQ(two.exit_code, 0) << two.output;
  EXPECT_EQ(three.exit_code, 0) << three.output;
  EXPECT_NE(two.output, three.output)
      << "--participants 3 left the mixed run unchanged";
}

TEST(CliSmoke, BatchRejectsWideParticipants) {
  // A batch and a spread are alternative wide shapes of one storm create.
  const RunResult r =
      run("batch --protocol 1pc --batch 4 --participants 3 --duration 250ms");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--participants"), std::string::npos) << r.output;
}

TEST(CliSmoke, DurationSpellingsParse) {
  // 250ms of 1PC sim storm: fast, and proves the suffix parser reaches the
  // sim through the shared CommonFlags path.
  const RunResult r = run("storm --protocol 1pc --duration 250ms --nodes 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1PC"), std::string::npos) << r.output;
}

// Table I, Figs. 2-5 and Ablations A-C are reproduced by these verbs.
TEST(CliSmoke, Table1PrintsFiveProtocolRows) {
  const RunResult r = run("table1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* proto : {"PrN", "PrC", "EP", "1PC", "PrA"}) {
    EXPECT_NE(r.output.find(std::string("\n| ") + proto + " "),
              std::string::npos) << r.output;
  }
}

TEST(CliSmoke, TimelinePrintsChartHeader) {
  const RunResult r = run("timeline --proto 1pc");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("=== 1PC: one distributed CREATE ==="),
            std::string::npos) << r.output;
}

TEST(CliSmoke, SweepRunsOneRowPerProtocol) {
  const RunResult r =
      run("sweep --param dirs --values 1 --proto all --seconds 2 --csv");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // A header line plus one row per protocol.
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '\n'), 5) << r.output;
}

// Malformed input exits 2 naming the flag, before any run starts: never a
// SIM_CHECK abort (134), never a run with a silently bent value.
struct Malformed {
  const char* name;
  const char* args;
  const char* message;
};

const Malformed kMalformed[] = {
    {"ZeroDirs", "storm --dirs 0", "--dirs"},
    {"ZeroDiskBandwidth", "storm --disk-bw 0", "--disk-bw"},
    {"NegativeLatency", "storm --net-latency-us -5", "--net-latency-us"},
    {"ZeroConcurrency", "storm --concurrency 0", "--concurrency"},
    {"SweepZeroDirs", "sweep --param dirs --values 0", "--dirs"},
    {"SweepUnknownParam", "sweep --param foo --values 1,2", "usage"},
    {"SweepUnparsedValue", "sweep --param dirs --values 4,x", "'x'"},
    // The verbs that build no ExperimentConfig check their own flags.  A
    // regression runs one schedule, a smoke storm, a 250 ms server or a
    // loadgen against no server: never the count a bad value asks for.
    {"ChaosZeroDirs", "chaos --dirs 0 --schedules 1", "--dirs"},
    {"ChaosZeroMaxFaults", "chaos --max-faults 0 --schedules 1",
     "--max-faults"},
    {"RtstormZeroConcurrency", "rtstorm --smoke --concurrency 0",
     "--concurrency"},
    {"RtstormNegativeLatency", "rtstorm --smoke --net-latency-us -5",
     "--net-latency-us"},
    {"ServeZeroEventThreads",
     "serve --event-threads 0 --uds /tmp/opc-cli-malformed.sock",
     "--event-threads"},
    {"LoadgenZeroThreads",
     "loadgen --threads 0 --uds /tmp/opc-cli-malformed.sock", "--threads"},
    {"LoadgenZeroRate", "loadgen --rate 0 --uds /tmp/opc-cli-malformed.sock",
     "--rate"},
};

// ctest names a value-parameterized test after the printed parameter.  The
// default printer dumps the struct's bytes, here three string pointers that
// move with every load of the binary, so print the expected message instead.
void PrintTo(const Malformed& m, std::ostream* os) { *os << m.message; }

class CliMalformed : public ::testing::TestWithParam<Malformed> {};

TEST_P(CliMalformed, ExitsTwoWithMessage) {
  // A short 1PC window keeps a regression that does start a run cheap.
  const RunResult r =
      run(std::string(GetParam().args) + " --proto 1pc --duration 250ms");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(GetParam().message), std::string::npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(CliSmoke, CliMalformed,
                         ::testing::ValuesIn(kMalformed),
                         [](const auto& info) { return info.param.name; });

TEST(CliSmoke, RtstormPrintsTimerLateness) {
  // The worker wake-up accuracy (RtEnv dispatch lateness) sits next to
  // ops/s in the summary; its value is host-dependent, so only the columns
  // are checked.
  const RunResult r = run("rtstorm --smoke --protocol 1pc");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("timer_late_p50_ns"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("timer_late_p99_ns"), std::string::npos) << r.output;
}

TEST(CliSmoke, ServeReportsTimerLatenessAndNodeCounters) {
  // `opc serve`'s shutdown summary carries the workers' wake-up accuracy,
  // and its report the per-node acp/wal/lock counters next to rpc.*.
  const std::string base = "/tmp/opc-cli-serve-" + std::to_string(::getpid());
  const std::string sock = base + ".sock";
  const std::string report = base + ".json";
  const RunResult r = run(
      "serve --protocol 1pc --nodes 3 --uds " + sock +
      " --duration 2s --report " + report + " & SRV=$!; " + OPC_BIN +
      " loadgen --uds " + sock + " --rate 300 --duration 500ms --threads 1;"
      " RC=$?; wait $SRV || RC=$((RC + 100)); exit $RC");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("timer_late_p50_ns"), std::string::npos) << r.output;
  std::ifstream in(report);
  std::stringstream json;
  json << in.rdbuf();
  for (const char* key : {"\"acp.committed\"", "\"wal.force.count\"",
                          "\"lock.releases\"", "\"rpc.requests\"",
                          "\"rt.timer.late_p50_ns\"", "\"rt.timer.spin_ns\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos)
        << key << " missing from the serve report:\n"
        << json.str();
  }
  std::remove(report.c_str());
}

}  // namespace
