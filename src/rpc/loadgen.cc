#include "rpc/loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/client.h"
#include "sim/rng.h"

namespace opc::rpc {
namespace {

/// Zipf(s) sampler over 1..n via a precomputed CDF + binary search.
class ZipfPicker {
 public:
  ZipfPicker(std::uint32_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::uint32_t k = 1; k <= n; ++k) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[k - 1] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::uint64_t pick(double u01) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u01);
    return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;  // dir ids 1..n
  }

 private:
  std::vector<double> cdf_;
};

enum class Op : std::uint8_t { kCreate, kMkdir, kRename };

struct PendingReq {
  double scheduled = 0.0;  // wall seconds: latency baseline (open loop)
  Op op = Op::kCreate;
  std::uint64_t dir = 0;
  std::string name;  // create: new entry; rename: destination entry
};

struct ThreadResult {
  LoadgenResult r;  // per-thread slice; merged by run_loadgen
};

void worker(const LoadgenConfig& cfg, std::uint32_t t, double start,
            ThreadResult* out) {
  // A normal thread's timed waits overshoot by its timer slack, 50 us by
  // default, and every such overshoot delays a send past its schedule.
  // 1 ns is the least the kernel accepts (0 means "reset to the default").
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  LoadgenResult& res = out->r;
  RpcClient client;
  const bool connected =
      cfg.tcp_port != 0 ? client.connect_tcp(cfg.tcp_port)
                        : client.connect_uds(cfg.uds_path);
  if (!connected) {
    res.transport_errors = 1;
    res.error = client.error();
    return;
  }

  Rng rng(cfg.seed, /*stream=*/t + 1);
  const ZipfPicker zipf(cfg.n_dirs, cfg.zipf_s);
  const double thread_rate = cfg.rate / cfg.threads;
  const Duration mean_gap = Duration::from_seconds_f(1.0 / thread_rate);
  const double w_create = cfg.create_weight;
  const double w_mkdir = w_create + cfg.mkdir_weight;
  const double w_total = w_mkdir + cfg.rename_weight;

  const double end = start + cfg.duration.to_seconds_f();
  std::unordered_map<std::uint64_t, PendingReq> pending;
  // Names whose create was acknowledged OK, per directory — the only
  // legal rename sources.
  std::unordered_map<std::uint64_t, std::vector<std::string>> confirmed;
  std::uint64_t seq = 0;

  auto consume = [&](const Reply& rep) {
    const auto it = pending.find(rep.id);
    if (it == pending.end()) return;  // duplicate id cannot happen; be safe
    const PendingReq& pr = it->second;
    switch (rep.status) {
      case Status::kOk:
        ++res.ok;
        res.latency.record((wall_now() - pr.scheduled) * 1e9);
        confirmed[pr.dir].push_back(pr.name);
        break;
      case Status::kAborted:
        ++res.aborted;
        res.latency.record((wall_now() - pr.scheduled) * 1e9);
        break;
      case Status::kBusy: ++res.busy; break;
      case Status::kNotFound: ++res.not_found; break;
      case Status::kBadRequest: ++res.bad_request; break;
      case Status::kTimeout: ++res.timeouts; break;
      case Status::kShutdown: ++res.shutdown; break;
    }
    pending.erase(it);
  };

  double scheduled = start;
  bool broken = false;
  while (!broken) {
    scheduled += rng.exponential(mean_gap).to_seconds_f();
    if (scheduled >= end) break;

    // Between arrivals: push pending writes and absorb replies.
    while (true) {
      const double gap = scheduled - wall_now();
      if (gap <= 0) break;
      Reply rep;
      if (client.recv_reply(rep, gap)) {
        consume(rep);
      } else if (client.broken()) {
        broken = true;
        break;
      }
      // recv_reply timing out just means the arrival time came.
    }
    if (broken) break;

    if (client.outstanding() >= cfg.max_outstanding) {
      ++res.skipped;
      continue;
    }

    const double send_at = wall_now();
    const double u = rng.uniform01() * w_total;
    const std::uint64_t dir = zipf.pick(rng.uniform01());
    std::uint64_t id = 0;
    PendingReq pr;
    pr.scheduled = scheduled;
    pr.dir = dir;
    const auto send_one_create = [&](bool is_dir) {
      if (!is_dir && cfg.participants > 2) {
        return client.send_create_spread(
            dir, pr.name, static_cast<std::uint8_t>(cfg.participants));
      }
      return client.send_create(dir, pr.name, is_dir);
    };
    if (u < w_create || u < w_mkdir) {
      pr.op = u < w_create ? Op::kCreate : Op::kMkdir;
      pr.name = "t" + std::to_string(t) + "_" + std::to_string(seq++);
      id = send_one_create(pr.op == Op::kMkdir);
    } else {
      auto& names = confirmed[dir];
      if (names.empty()) {  // nothing to rename here yet: create instead
        pr.op = Op::kCreate;
        pr.name = "t" + std::to_string(t) + "_" + std::to_string(seq++);
        id = send_one_create(false);
      } else {
        pr.op = Op::kRename;
        const std::string src = std::move(names.back());
        names.pop_back();
        pr.name = "t" + std::to_string(t) + "_r" + std::to_string(seq++);
        id = client.send_rename(dir, src, dir, pr.name);
      }
    }
    ++res.sent;
    res.late.record((send_at - pr.scheduled) * 1e9);
    pending.emplace(id, std::move(pr));
    if (!client.flush(/*timeout_s=*/1.0) && client.broken()) broken = true;
  }

  // Drain stragglers.  Keyed on `pending`, not client.outstanding(): a
  // reply can already be decoded into the client's ready queue (during a
  // flush) without having been consumed here, and it must not count lost.
  const double drain_end = wall_now() + cfg.drain_timeout_s;
  while (!broken && !pending.empty() && wall_now() < drain_end) {
    Reply rep;
    if (client.recv_reply(rep, std::min(1.0, drain_end - wall_now()))) {
      consume(rep);
    } else if (client.broken()) {
      broken = true;
    }
  }

  if (broken) {
    res.transport_errors = 1;
    res.error = client.error();
  }
  res.lost = pending.size();
}

}  // namespace

LoadgenResult run_loadgen(const LoadgenConfig& cfg) {
  LoadgenConfig c = cfg;
  if (c.threads == 0) c.threads = 1;
  if (c.rate <= 0.0) c.rate = 1.0;
  if (c.n_dirs == 0) c.n_dirs = 1;
  if (c.participants < 2) c.participants = 2;

  std::vector<ThreadResult> slices(c.threads);
  const double start = wall_now() + 0.05;  // common epoch for all threads
  std::vector<std::thread> threads;
  threads.reserve(c.threads);
  for (std::uint32_t t = 0; t < c.threads; ++t) {
    threads.emplace_back(worker, std::cref(c), t, start, &slices[t]);
  }
  for (auto& th : threads) th.join();
  const double wall = wall_now() - start;

  LoadgenResult total;
  for (const ThreadResult& s : slices) {
    total.sent += s.r.sent;
    total.ok += s.r.ok;
    total.aborted += s.r.aborted;
    total.busy += s.r.busy;
    total.not_found += s.r.not_found;
    total.bad_request += s.r.bad_request;
    total.timeouts += s.r.timeouts;
    total.shutdown += s.r.shutdown;
    total.skipped += s.r.skipped;
    total.lost += s.r.lost;
    total.transport_errors += s.r.transport_errors;
    total.latency.merge(s.r.latency);
    total.late.merge(s.r.late);
    if (total.error.empty() && !s.r.error.empty()) total.error = s.r.error;
  }
  total.offered_rate = c.rate;
  total.wall_seconds = wall;
  total.achieved_rate = wall > 0 ? total.answered() / wall : 0.0;
  return total;
}

}  // namespace opc::rpc
