// Output checks of the benchmark workloads, kept apart from the workload
// code so the benchmark's own tests can feed them planted wrong outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace opcbench {

/// Hot directory id -> its entry names, sorted.
using DirEntries = std::map<std::uint64_t, std::vector<std::string>>;

/// One namespace operation the server acknowledged OK, in reply order.
struct AckedOp {
  enum class Kind : std::uint8_t { kCreate, kRemove, kRename };
  Kind kind = Kind::kCreate;  // mkdirs are creates of a directory entry
  std::uint64_t dir = 0;
  std::string name;   // created / removed / rename source
  std::string name2;  // rename destination (same directory)
};

/// The namespace a client that saw `acked` must find: every acknowledged
/// create, net of acknowledged removes and renames.  Every directory in
/// `dirs` gets an entry, even when empty.
[[nodiscard]] DirEntries expected_namespace(
    const std::vector<std::uint64_t>& dirs, const std::vector<AckedOp>& acked);

/// Differences between the expected and the served namespace, one line
/// each (at most `max_lines`, then a count); empty when they match.
[[nodiscard]] std::vector<std::string> diff_namespace(
    const DirEntries& expected, const DirEntries& actual,
    std::size_t max_lines = 8);

/// One Fig. 6 storm point: protocol at a participant width, run for the
/// benchmark's fixed simulated time.  Deterministic for a given build.
struct SimPoint {
  std::string protocol;
  std::uint32_t width = 2;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double sim_ops_s = 0.0;
  std::uint64_t state_hash = 0;
};

/// The values the parent commit produced, pinned.
[[nodiscard]] const std::vector<SimPoint>& sim_fig6_pins();

/// Differences between pinned and measured points (matched by protocol and
/// width; a missing point is a difference); empty when all match exactly.
[[nodiscard]] std::vector<std::string> diff_sim_points(
    const std::vector<SimPoint>& pinned, const std::vector<SimPoint>& got);

/// FNV-1a, used for the sim state hash.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v);
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace opcbench
