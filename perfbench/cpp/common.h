// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills, clocks and process probes, and the span log
// of traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace opcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // wall-time budget for the measured rounds
  bool trace = false;     // per-layer run: spans, probes, counters
  std::string out_dir = ".bench_out";  // spans and sockets, under the cwd
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // reported with --trace 0
  std::vector<Metric> per_layer;   // reported with --trace 1
  std::vector<std::string> errors;  // output-check failures, one per line

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

// ---- statistics over samples -------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double share(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Prints "<what> per round: min p10 median p90 max (n)".
void print_spread(const char* what, const std::vector<double>& v);

// ---- clocks and process probes -----------------------------------------

/// Steady-clock seconds.
[[nodiscard]] double wall_now();
/// Steady-clock nanoseconds.
[[nodiscard]] std::int64_t wall_ns();
/// CPU seconds consumed by the whole process / by the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of the process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Global operator-new count (traced binary only; 0 otherwise).
[[nodiscard]] std::uint64_t alloc_count();
[[nodiscard]] bool alloc_counting();

// ---- spans (traced runs) -------------------------------------------------

/// One timed interval recorded around a call into a layer.  Spans of one
/// request share `req`; `parent` is the id of the enclosing span (0 for a
/// root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t req = 0;
  std::uint64_t parent = 0;
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store; written out once when the run ends.  Disabled
/// logs record nothing and hand out id 0.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id.
  std::uint64_t add(const char* layer, std::uint64_t req,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);
  /// Opens a span whose end is filled in by close().
  std::uint64_t open(const char* layer, std::uint64_t req,
                     std::uint64_t parent = 0);
  void close(std::uint64_t id, std::int64_t end_ns = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time in seconds: each span's duration minus the part
  /// covered by its children, summed by layer, in first-seen layer order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;

  /// Writes one JSON object per line.  False on I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Prints each layer's self time and writes the spans to
/// <out_dir>/spans_<workload>.jsonl.
void report_spans(const Options& opt, const SpanLog& spans);

/// Prints "name = value unit" lines and the final JSON result line.
void print_result(const Options& opt, const RunResult& r);

}  // namespace opcbench
