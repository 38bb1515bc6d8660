#include "checks.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace opcbench {

DirEntries expected_namespace(const std::vector<std::uint64_t>& dirs,
                              const std::vector<AckedOp>& acked) {
  std::map<std::uint64_t, std::set<std::string>> live;
  for (const std::uint64_t d : dirs) live[d];
  for (const AckedOp& op : acked) {
    auto& names = live[op.dir];
    switch (op.kind) {
      case AckedOp::Kind::kCreate: names.insert(op.name); break;
      case AckedOp::Kind::kRemove: names.erase(op.name); break;
      case AckedOp::Kind::kRename:
        names.erase(op.name);
        names.insert(op.name2);
        break;
    }
  }
  DirEntries out;
  for (auto& [d, names] : live) {
    out[d] = std::vector<std::string>(names.begin(), names.end());
  }
  return out;
}

std::vector<std::string> diff_namespace(const DirEntries& expected,
                                        const DirEntries& actual,
                                        std::size_t max_lines) {
  std::vector<std::string> out;
  std::size_t total = 0;
  auto note = [&](std::string line) {
    if (out.size() < max_lines) out.push_back(std::move(line));
    ++total;
  };
  static const std::vector<std::string> kNone;
  std::set<std::uint64_t> dirs;
  for (const auto& [d, _] : expected) dirs.insert(d);
  for (const auto& [d, _] : actual) dirs.insert(d);
  for (const std::uint64_t d : dirs) {
    const auto ei = expected.find(d);
    const auto ai = actual.find(d);
    const auto& e = ei == expected.end() ? kNone : ei->second;
    const auto& a = ai == actual.end() ? kNone : ai->second;
    std::vector<std::string> missing;
    std::vector<std::string> extra;
    std::set_difference(e.begin(), e.end(), a.begin(), a.end(),
                        std::back_inserter(missing));
    std::set_difference(a.begin(), a.end(), e.begin(), e.end(),
                        std::back_inserter(extra));
    for (const auto& n : missing) {
      note("dir " + std::to_string(d) + ": acknowledged entry '" + n +
           "' is missing");
    }
    for (const auto& n : extra) {
      note("dir " + std::to_string(d) + ": unexpected entry '" + n + "'");
    }
  }
  if (total > out.size()) {
    out.push_back("... " + std::to_string(total - out.size()) +
                  " more namespace differences");
  }
  return out;
}

std::vector<std::string> diff_sim_points(const std::vector<SimPoint>& pinned,
                                         const std::vector<SimPoint>& got) {
  std::vector<std::string> out;
  for (const SimPoint& p : pinned) {
    const auto it = std::find_if(got.begin(), got.end(), [&](const SimPoint& g) {
      return g.protocol == p.protocol && g.width == p.width;
    });
    const std::string key = p.protocol + "@" + std::to_string(p.width) + "p";
    if (it == got.end()) {
      out.push_back(key + ": not run");
      continue;
    }
    auto mismatch = [&](const char* what, const std::string& want,
                        const std::string& have) {
      out.push_back(key + ": " + what + " " + have + " != pinned " + want);
    };
    if (it->committed != p.committed) {
      mismatch("committed", std::to_string(p.committed),
               std::to_string(it->committed));
    }
    if (it->aborted != p.aborted) {
      mismatch("aborted", std::to_string(p.aborted),
               std::to_string(it->aborted));
    }
    if (it->sim_ops_s != p.sim_ops_s) {
      mismatch("sim_ops_s", std::to_string(p.sim_ops_s),
               std::to_string(it->sim_ops_s));
    }
    if (it->state_hash != p.state_hash) {
      mismatch("state_hash", std::to_string(p.state_hash),
               std::to_string(it->state_hash));
    }
  }
  return out;
}

void Fnv::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Fnv::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

const std::vector<SimPoint>& sim_fig6_pins() {
  // Produced by the parent commit of the benchmark (see README.md,
  // "Pinned simulator outputs"); a change that moves any of them changes
  // what the simulator computes, not how fast.
  static const std::vector<SimPoint> kPins = {
      // protocol, width, committed, aborted, sim_ops_s, state_hash
      {"PrN", 2, 1092, 0, 16.545454545454547, 15921530254367193496ULL},
      {"PrC", 2, 1093, 0, 16.563636363636363, 10493320768068396282ULL},
      {"EP", 2, 1096, 0, 16.600000000000001, 15409804369834700797ULL},
      {"1PC", 2, 1592, 0, 24.872727272727271, 9760180170922278638ULL},
      {"PrN", 3, 1092, 0, 16.545454545454547, 8697715998815809283ULL},
      {"PrC", 3, 1093, 0, 16.563636363636363, 6079377017416262464ULL},
      {"EP", 3, 1096, 0, 16.600000000000001, 12074986154892508612ULL},
      {"1PC", 3, 1092, 0, 16.545454545454547, 8697715998815809283ULL},
  };
  return kPins;
}

}  // namespace opcbench
