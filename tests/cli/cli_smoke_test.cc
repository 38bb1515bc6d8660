// CLI surface smoke (ISSUE 6 satellite): `opc --help` must list every verb
// in the registry, and the exit-code contract must hold.  This is the
// tripwire for "added a verb but forgot the help text" and for regressions
// in the shared flag layer's dispatch.
//
// The binary path is injected by CMake as OPC_BIN.
#include <gtest/gtest.h>

#include <cstdio>
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

TEST(CliSmoke, DurationSpellingsParse) {
  // 250ms of 1PC sim storm: fast, and proves the suffix parser reaches the
  // sim through the shared CommonFlags path.
  const RunResult r = run("storm --protocol 1pc --duration 250ms --nodes 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1PC"), std::string::npos) << r.output;
}

TEST(CliSmoke, RtstormPrintsTimerLateness) {
  // The worker wake-up accuracy (RtEnv dispatch lateness) sits next to
  // ops/s in the summary; its value is host-dependent, so only the columns
  // are checked.
  const RunResult r = run("rtstorm --smoke --protocol 1pc");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("timer_late_p50_ns"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("timer_late_p99_ns"), std::string::npos) << r.output;
}

}  // namespace
