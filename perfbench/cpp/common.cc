#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <unordered_map>

namespace opcbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void print_spread(const char* what, const std::vector<double>& v) {
  std::printf("%s per round: min %.6g p10 %.6g median %.6g p90 %.6g max %.6g (%zu)\n",
              what, quantile(v, 0.0), quantile(v, 0.1), quantile(v, 0.5),
              quantile(v, 0.9), quantile(v, 1.0), v.size());
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started by a larger parent (run.py's Python) would report the
  // parent's high-water mark.
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- SpanLog -------------------------------------------------------------

std::uint64_t SpanLog::add(const char* layer, std::uint64_t req,
                           std::uint64_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, req, parent, layer, start_ns, end_ns});
  return id;
}

std::uint64_t SpanLog::open(const char* layer, std::uint64_t req,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::int64_t now = wall_ns();
  return add(layer, req, parent, now, now);
}

void SpanLog::close(std::uint64_t id, std::int64_t end_ns) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = end_ns != 0 ? end_ns : wall_ns();
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  // Children intervals per parent, then the covered length of each
  // parent's own interval.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      kids;
  for (const Span& s : spans_) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::pair<std::string, double>> out;
  std::unordered_map<std::string, std::size_t> slot;
  for (const Span& s : spans_) {
    std::int64_t self = s.end_ns - s.start_ns;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = 0;
      bool have = false;
      std::int64_t covered = 0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (have && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
      if (have) covered += cur_hi - cur_lo;
      self -= covered;
    }
    auto [it, fresh] = slot.emplace(s.layer, out.size());
    if (fresh) out.emplace_back(s.layer, 0.0);
    out[it->second].second += static_cast<double>(self) * 1e-9;
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  for (const Span& s : spans_) {
    f << "{\"id\":" << s.id << ",\"req\":" << s.req << ",\"parent\":"
      << s.parent << ",\"layer\":\"" << s.layer << "\",\"start_ns\":"
      << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(f.flush());
}

void report_spans(const Options& opt, const SpanLog& spans) {
  for (const auto& [layer, secs] : spans.self_seconds()) {
    std::printf("self %s = %.6f s\n", layer.c_str(), secs);
  }
  const std::string path = opt.out_dir + "/spans_" + opt.workload + ".jsonl";
  if (spans.write_jsonl(path)) {
    std::printf("spans = %zu, written to %s\n", spans.spans().size(),
                path.c_str());
  } else {
    std::printf("spans: could not write %s\n", path.c_str());
  }
}

// ---- result output --------------------------------------------------------

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_lines(const char* tag, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%s %s = %s %s\n", tag, m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

void print_result(const Options& opt, const RunResult& r) {
  for (const std::string& e : r.errors) {
    std::printf("check FAILED: %s\n", e.c_str());
  }
  print_lines(opt.trace ? "traced" : "metric", r.end_to_end);
  if (opt.trace) print_lines("layer", r.per_layer);
  std::printf("attempted = %llu, failed = %llu, correct = %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "true" : "false");

  const std::vector<Metric>& out = opt.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace opcbench
