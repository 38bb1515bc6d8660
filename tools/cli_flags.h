// Shared flag handling for the opc CLI.
//
// Every traffic-generating verb (storm, rtstorm, loadgen, serve) parses
// `--protocol/--proto`, `--seed`, `--duration|--seconds` and `--report`
// through CommonFlags so the verbs cannot drift apart in spelling or
// semantics; the CLI smoke test (tests/cli/cli_smoke_test.cc) additionally
// pins that the help output lists every registered verb.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "acp/protocol.h"
#include "sim/time.h"

namespace opc::cli {

// ---------------------------------------------------------------------------
// Tiny argument parser: --key value pairs after the subcommand.
// ---------------------------------------------------------------------------
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        // Bare tokens are positional operands (e.g. the output file of
        // `opc trace --export chrome out.json`, or the two inputs of
        // `opc trace diff A.json B.json`).
        pos_.emplace_back(argv[i]);
        i += 1;
        continue;
      }
      // `--flag value` consumes two arguments; a `--flag` followed by
      // another `--flag` (or nothing) is boolean (e.g. --csv --smoke).
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        kv_[argv[i] + 2] = argv[i + 1];
        i += 2;
      } else {
        kv_[argv[i] + 2] = "true";
        i += 1;
      }
    }
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  [[nodiscard]] std::int64_t num(const std::string& key,
                                 std::int64_t dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atoll(it->second.c_str());
  }
  [[nodiscard]] double real(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    auto it = kv_.find(key);
    return it != kv_.end() && it->second != "false" && it->second != "0";
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.count(key) != 0;
  }
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return pos_;
  }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> pos_;
};

inline bool parse_protocols(const std::string& s,
                            std::vector<ProtocolKind>& out) {
  if (s == "all") {
    out.assign(std::begin(kAllProtocols), std::end(kAllProtocols));
    return true;
  }
  if (s == "all+") {
    out.assign(std::begin(kAllProtocolsExt), std::end(kAllProtocolsExt));
    return true;
  }
  if (s == "prn") out = {ProtocolKind::kPrN};
  else if (s == "prc") out = {ProtocolKind::kPrC};
  else if (s == "ep") out = {ProtocolKind::kEP};
  else if (s == "1pc") out = {ProtocolKind::kOnePC};
  else if (s == "pra") out = {ProtocolKind::kPrA};
  else return false;
  return true;
}

/// Parses "10s" / "500ms" / "250us" / "2m" / bare seconds ("10", "7.5").
inline bool parse_duration(const std::string& s, Duration& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) return false;
  const std::string unit(end);
  if (unit.empty() || unit == "s") out = Duration::from_seconds_f(v);
  else if (unit == "ms") out = Duration::from_seconds_f(v / 1e3);
  else if (unit == "us") out = Duration::from_seconds_f(v / 1e6);
  else if (unit == "m") out = Duration::from_seconds_f(v * 60.0);
  else return false;
  return true;
}

/// Participants per transaction, one spelling for every traffic verb
/// (storm/mixed/rtstorm/chaos/loadgen; batch accepts only 2):
/// `--participants N`, N in [2, 64].
/// 2 is the paper's two-MDS transaction; wider values spread each create
/// over N-1 distinct worker nodes (and 1PC degrades to presumed-abort,
/// src/acp/protocol.h).
inline bool parse_participants(const Args& a, std::uint32_t& out) {
  const std::int64_t v = a.num("participants", 2);
  if (v < 2 || v > 64) {
    std::fprintf(stderr, "--participants must be in [2, 64]\n");
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Flags every traffic verb shares.  `--protocol` and `--proto` are
/// synonyms everywhere; `--duration 10s` and the legacy `--seconds 10`
/// both feed `duration`; `--report FILE` (legacy `--json FILE` where it
/// existed) names a RunReport JSON output; `--participants N` widens every
/// transaction (see parse_participants).
struct CommonFlags {
  std::vector<ProtocolKind> protocols;
  std::uint64_t seed = 1;
  Duration duration = Duration::zero();
  std::string report;
  bool csv = false;
  std::uint32_t participants = 2;
};

inline bool parse_common(const Args& a, const char* default_proto,
                         std::int64_t default_seconds, CommonFlags& out) {
  if (!parse_protocols(a.str("protocol", a.str("proto", default_proto)),
                       out.protocols)) {
    std::fprintf(stderr,
                 "unknown --protocol (prn|prc|ep|1pc|pra|all|all+)\n");
    return false;
  }
  out.seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const std::string dur = a.str("duration", "");
  if (!dur.empty()) {
    if (!parse_duration(dur, out.duration)) {
      std::fprintf(stderr, "bad --duration '%s' (want e.g. 10s, 500ms)\n",
                   dur.c_str());
      return false;
    }
  } else {
    out.duration = Duration::seconds(a.num("seconds", default_seconds));
  }
  out.report = a.str("report", a.str("json", ""));
  out.csv = a.flag("csv");
  return parse_participants(a, out.participants);
}

}  // namespace opc::cli
