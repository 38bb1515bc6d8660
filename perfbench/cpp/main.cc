// opcbench: runs one benchmark workload and prints every metric by name and
// unit, then one JSON result line.
//
//   opcbench --workload serve_churn|serve_storm|sim_fig6 --seed N
//            --seconds S --trace 0|1
//
// Exit status: 0 when the workload's output check passed, 1 when it failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: opcbench --workload serve_churn|serve_storm|sim_fig6 "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  opcbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed" && parse_u64(val, n)) {
      opt.seed = n;
    } else if (flag == "--seconds" && parse_u64(val, n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(val, n) && n <= 1) {
      opt.trace = n == 1;
    } else {
      return usage();
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (opt.trace && !opcbench::alloc_counting()) {
    std::fprintf(stderr, "--trace 1 needs the opcbench_traced binary\n");
    return 2;
  }

  opcbench::RunResult r;
  if (opt.workload == "serve_churn") {
    r = opcbench::run_serve_churn(opt);
  } else if (opt.workload == "serve_storm") {
    r = opcbench::run_serve_storm(opt);
  } else if (opt.workload == "sim_fig6") {
    r = opcbench::run_sim_fig6(opt);
  } else {
    return usage();
  }
  std::printf("workload = %s, seed = %llu, trace = %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  opcbench::print_result(opt, r);
  return r.correct ? 0 : 1;
}
