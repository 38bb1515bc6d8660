// The paper's motivating workload: an HPC application creating thousands
// of files in ONE directory, with the directory's entries and the files'
// inodes on different metadata servers (paper §I: "it therefore makes
// sense to spread the files within the directory across multiple MDSs and
// use the proposed protocol to handle distributed transactions").
//
// Runs the storm under a chosen protocol and reports throughput, latency
// distribution and device utilization.
//
//   $ ./create_storm [prn|prc|ep|1pc] [concurrency] [seconds]
//   $ ./create_storm all            # compare all four protocols
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/experiment.h"
#include "core/sweep.h"
#include "stats/table.h"

namespace {

bool parse_protocol(const char* s, opc::ProtocolKind& out) {
  if (std::strcmp(s, "prn") == 0) out = opc::ProtocolKind::kPrN;
  else if (std::strcmp(s, "prc") == 0) out = opc::ProtocolKind::kPrC;
  else if (std::strcmp(s, "ep") == 0) out = opc::ProtocolKind::kEP;
  else if (std::strcmp(s, "1pc") == 0) out = opc::ProtocolKind::kOnePC;
  else return false;
  return true;
}

void report(const opc::ExperimentResult& r, opc::ProtocolKind proto) {
  std::printf("protocol %-4s: %7.2f creates/s   committed=%llu aborted=%llu"
              "   p50=%s p99=%s   coordinator log device %4.1f%% busy\n",
              std::string(opc::protocol_name(proto)).c_str(),
              r.ops_per_second, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.aborted),
              opc::to_string(r.latency.quantile_duration(0.5)).c_str(),
              opc::to_string(r.latency.quantile_duration(0.99)).c_str(),
              r.coordinator_disk_busy * 100.0);
  if (r.invariant_violations != 0) {
    std::printf("  !!! invariant violations:\n%s", r.violation_report.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opc;
  std::uint32_t concurrency = 100;
  std::int64_t seconds = 30;
  if (argc >= 3) concurrency = static_cast<std::uint32_t>(std::atoi(argv[2]));
  if (argc >= 4) seconds = std::atoll(argv[3]);

  auto config = [&](ProtocolKind p) {
    ExperimentConfig cfg = paper_fig6_config(p);
    cfg.source.concurrency = concurrency;
    cfg.run_for = Duration::seconds(seconds);
    cfg.warmup = Duration::seconds(std::max<std::int64_t>(1, seconds / 6));
    return cfg;
  };

  std::printf("create storm: %u concurrent clients, one hot directory, "
              "%lld simulated seconds\n\n", concurrency,
              static_cast<long long>(seconds));

  if (argc < 2 || std::strcmp(argv[1], "all") == 0) {
    std::vector<ProtocolKind> protos(std::begin(kAllProtocols),
                                     std::end(kAllProtocols));
    const auto results = ParallelSweep::map<ProtocolKind, ExperimentResult>(
        protos, [&](const ProtocolKind& p) {
          return run_experiment(config(p));
        });
    for (std::size_t i = 0; i < protos.size(); ++i) {
      report(results[i], protos[i]);
    }
    std::printf("\n1PC speedup over PrN: %.2fx (paper: >1.55x)\n",
                results[3].ops_per_second / results[0].ops_per_second);
    return 0;
  }

  ProtocolKind proto;
  if (!parse_protocol(argv[1], proto)) {
    std::fprintf(stderr,
                 "usage: %s [prn|prc|ep|1pc|all] [concurrency] [seconds]\n",
                 argv[0]);
    return 2;
  }
  report(run_experiment(config(proto)), proto);
  return 0;
}
