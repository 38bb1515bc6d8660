// The served workloads: a 3-node 1PC RtCluster behind an RpcServer on a
// Unix-domain socket, wired as `opc serve` wires it (zero network delay,
// 2 GiB/s modeled log device, 8 KiB force blocks, no group commit, one
// event loop, 1024 admitted requests), driven by one generator thread over
// one RpcClient connection.
//
//   serve_churn  closed loop, fixed window: create a fresh name, and once a
//                directory holds `live` names remove its oldest one, so
//                directories stay small and mds work stays negligible.
//   serve_storm  open loop, Poisson arrivals at a fixed rate, the
//                `opc loadgen` mix (create/mkdir/rename of names like
//                t0_123, not in sorted order); directories grow to tens of
//                thousands of entries.
//
// Every round builds a fresh cluster, so every round starts and ends in
// the same namespace state.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "probes.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rt/rt_cluster.h"
#include "rt/storm_plan.h"
#include "sim/rng.h"
#include "workloads.h"

namespace opcbench {
namespace {

using namespace opc;
using rpc::Reply;
using rpc::Status;

constexpr std::uint32_t kNodes = 3;
constexpr double kReplyTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 15.0;

// serve_storm: the `opc loadgen` default mix at a fixed offered rate.
constexpr std::uint32_t kStormOps = 90000;  // requests per round (30 s)
constexpr double kStormRate = 3000.0;       // offered ops/s, Poisson arrivals
constexpr std::uint32_t kStormDirs = 3;
constexpr double kStormCreateWeight = 0.8;
constexpr double kStormMkdirWeight = 0.1;
constexpr double kStormRenameWeight = 0.1;
constexpr std::uint32_t kStormSetupEvery = 4500;  // requests between bursts

/// Cluster + server + connected client of one round.
struct Fixture {
  std::unique_ptr<RtCluster> cluster;
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;
  double setup_s = 0.0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { stop(); }

  /// Constructs everything and waits for the first served reply (a ping).
  /// setup_s is the calling thread's CPU time over all of it: waiting for
  /// an idle vCPU to wake up costs none, so the figure is the construction
  /// work alone.  (Process CPU time, which adds the server's own threads,
  /// varied up to fivefold between setups of one run.)
  /// Returns an error message, empty on success.
  std::string start(const Options& opt, std::uint64_t seed) {
    const double t0 = thread_cpu_s();
    RtClusterConfig cfg;
    cfg.n_nodes = kNodes;
    cfg.protocol = ProtocolKind::kOnePC;
    cfg.seed = seed;
    cfg.net.latency = Duration::zero();
    cfg.disk.bytes_per_second = 2.0 * 1024 * 1024 * 1024;
    cfg.wal.force_pad_to = 8192;
    cfg.wal.group_commit = false;
    cluster = std::make_unique<RtCluster>(cfg);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      cluster->bootstrap_directory(ObjectId(i + 1), NodeId(i));
    }
    rpc::RpcServerConfig scfg;
    // Relative to the working directory: a short path fits sun_path.
    // One path per fixture: a setup burst may run beside a live round's.
    static std::uint64_t fixtures = 0;
    scfg.uds_path = opt.out_dir + "/s" + std::to_string(::getpid()) + "_" +
                    std::to_string(++fixtures) + ".sock";
    scfg.event_threads = 1;
    scfg.max_inflight = 1024;
    server = std::make_unique<rpc::RpcServer>(*cluster, scfg);
    if (!server->start()) return "server failed to start on " + scfg.uds_path;
    client = std::make_unique<rpc::RpcClient>();
    if (!client->connect_uds(scfg.uds_path)) {
      return "connect failed: " + client->error();
    }
    Reply r;
    if (!client->call_ping(r, kReplyTimeoutS) || r.status != Status::kOk) {
      return "first ping failed: " + client->error();
    }
    setup_s = thread_cpu_s() - t0;
    return {};
  }

  /// Drains the server and waits until the cluster is quiescent; the
  /// stores may be read afterwards.
  void quiesce() {
    if (client) client->close();
    if (server) server->stop();
    if (cluster) cluster->env().wait_idle();
  }

  void stop() {
    quiesce();
    server.reset();
    cluster.reset();
  }

  [[nodiscard]] DirEntries namespace_of(std::uint32_t dirs) const {
    DirEntries out;
    for (std::uint32_t d = 1; d <= dirs; ++d) {
      auto& names = out[d];
      for (const auto& [name, child] :
           cluster->node(NodeId(d - 1)).store().mem_list_dir(ObjectId(d))) {
        names.push_back(name);
      }
      std::sort(names.begin(), names.end());
    }
    return out;
  }
};

/// Times setup_s: fixtures built and dropped in bursts spread over the run
/// (before every round, and inside serve_storm's one long round), because
/// the host's speed drifts (README.md, "Noise"): the median of a burst of
/// setups taken in one spot varied by up to 2x between runs.  A burst's
/// first fixture follows a round's teardown and costs about 3x as much
/// CPU (cold caches and heap), so it is not kept.  Neither are the rounds'
/// own setups: their share of the samples would vary with the round count.
class SetupSampler {
 public:
  explicit SetupSampler(const Options& opt) : opt_(opt) {}

  /// Builds 1 + kKept fixtures; returns an error message, empty on success.
  std::string burst() {
    for (std::size_t i = 0; i <= kKept; ++i) {
      Fixture fx;
      if (std::string err = fx.start(opt_, opt_.seed); !err.empty()) return err;
      if (i > 0) samples_.push_back(fx.setup_s);
    }
    return {};
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kKept = 2;
  const Options& opt_;
  std::vector<double> samples_;
};

/// One request of a round, from send to reply.
struct Req {
  AckedOp op;
  bool is_dir = false;
  double scheduled = 0.0;  // open loop: when it was due; closed: = sent
  double sent = 0.0;
  double replied = 0.0;
  std::uint64_t reply_seq = 0;  // 1 + replies processed before this one
  Status status = Status::kOk;
  bool answered = false;
};

/// What a round measured; one sample per metric.
struct Round {
  std::string error;  // fixture or transport failure
  double setup_s = 0.0;
  double ops_s = 0.0;
  std::vector<double> latency_ms;  // ok + aborted
  std::vector<double> late_ms;     // open loop: send - scheduled
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t aborted = 0;
  std::uint64_t busy = 0;
  std::uint64_t other_status = 0;  // not-found, bad-request, timeout, ...
  std::uint64_t lost = 0;
  bool transport_error = false;
  ServedCheck check;
  std::vector<Metric> layers;  // traced rounds only

  [[nodiscard]] std::uint64_t failures() const {
    return aborted + busy + other_status + lost + (transport_error ? 1 : 0);
  }
};

/// Timestamped RtEnv::post probes, one per worker, every kEvery requests.
class PostProbes {
 public:
  PostProbes(RtEnv& env, bool on) : env_(env), on_(on), waits_(env.workers()) {}

  void maybe_fire(std::uint64_t n) {
    if (!on_ || n % kEvery != 0) return;
    for (std::uint32_t w = 0; w < env_.workers(); ++w) {
      std::vector<double>* out = &waits_[w];
      RtEnv* env = &env_;
      const std::int64_t t = env_.now().count_nanos();
      env_.post(w, [out, env, t] {
        out->push_back(static_cast<double>(env->now().count_nanos() - t));
      });
    }
  }

  /// Post-to-run p50 in µs; call once the env is idle.
  [[nodiscard]] double p50_us() const {
    std::vector<double> all;
    for (const auto& v : waits_) all.insert(all.end(), v.begin(), v.end());
    return median(std::move(all)) * 1e-3;
  }

 private:
  static constexpr std::uint64_t kEvery = 64;
  RtEnv& env_;
  bool on_;
  std::vector<std::vector<double>> waits_;  // worker w writes only waits_[w]
};

/// Fills `r.layers` from the quiesced fixture and the round's requests.
void measure_layers(Fixture& fx, const std::vector<Req>& reqs,
                    const std::vector<AckedOp>& acked,
                    const std::vector<std::uint64_t>& dirs, double cpu_s,
                    const PostProbes& probes, SpanLog& spans,
                    std::uint64_t round, std::uint64_t parent, Round& r) {
  // RtCluster keeps its per-node registries private; run_storm with an
  // empty plan is the public call that returns them merged (plus the
  // engines' latency histograms) once the cluster is idle.
  const StormPlan empty = make_storm_plan(kNodes, 0);
  const RtCluster::StormResult merged = fx.cluster->run_storm(empty, 1);
  StatsRegistry rpc_stats;
  fx.server->export_stats(rpc_stats);
  Histogram lock_wait;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    lock_wait.merge(fx.cluster->node(NodeId(i)).locks().wait_times());
  }

  std::vector<AckedOp> frames;
  std::vector<bool> is_dir;
  frames.reserve(reqs.size());
  for (const Req& q : reqs) {
    frames.push_back(q.op);
    is_dir.push_back(q.is_dir);
  }
  OwnLayers own;
  const std::uint64_t codec_span = spans.open("rpc.codec", round, parent);
  own.rpc_codec_ns = codec_ns_per_frame(frames, is_dir);
  spans.close(codec_span);
  const std::uint64_t mds_span = spans.open("mds", round, parent);
  own.mds_create_ns = mds_ns_per_op(dirs, acked);
  spans.close(mds_span);
  for (const auto& [d, names] : r.check.actual) {
    own.mds_max_dir_entries =
        std::max(own.mds_max_dir_entries, static_cast<double>(names.size()));
  }
  own.rpc_overhead_p50_ms =
      median(r.latency_ms) - merged.latency.quantile(0.5) * 1e-6;
  own.rpc_busy_share =
      share(rpc_stats.get("rpc.busy"), rpc_stats.get("rpc.requests"));
  own.rt_post_wait_us = probes.p50_us();
  own.server_cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(r.ok);
  // mem.allocs_per_txn stays 0: the process-wide allocation counter would
  // count the generator thread's own allocations here too.
  r.layers = layer_metrics(own, merged.stats, merged.latency, lock_wait,
                           static_cast<std::int64_t>(r.ok));
}

/// Shared tail of a round: quiesce, read the namespace back, check it,
/// and (traced) measure the layers.
void finish_round(Fixture& fx, const std::vector<Req>& reqs,
                  const std::vector<std::uint64_t>& dirs, double cpu_s,
                  const PostProbes& probes, SpanLog& spans,
                  std::uint64_t round, std::uint64_t parent, Round& r) {
  std::vector<AckedOp> acked;
  std::vector<std::pair<std::uint64_t, std::size_t>> order;  // seq, index
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].answered && reqs[i].status == Status::kOk) {
      order.emplace_back(reqs[i].reply_seq, i);
    }
  }
  std::sort(order.begin(), order.end());
  acked.reserve(order.size());
  for (const auto& [t, i] : order) acked.push_back(reqs[i].op);

  const std::uint64_t check_span = spans.open("check", round, parent);
  fx.quiesce();
  r.check.expected = expected_namespace(dirs, acked);
  r.check.actual = fx.namespace_of(static_cast<std::uint32_t>(dirs.size()));
  std::vector<ObjectId> roots;
  for (const std::uint64_t d : dirs) roots.emplace_back(d);
  const auto violations = fx.cluster->check_invariants(roots);
  r.check.invariant_violations = violations.size();
  r.check.violation_report = render_violations(violations);
  spans.close(check_span);

  if (spans.enabled()) {
    measure_layers(fx, reqs, acked, dirs, cpu_s, probes, spans, round, parent,
                   r);
  }
}

std::vector<std::uint64_t> dir_ids(std::uint32_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint32_t d = 1; d <= n; ++d) out.push_back(d);
  return out;
}

// ---- serve_churn -----------------------------------------------------------

struct ChurnPlan {
  std::vector<AckedOp> ops;
  std::vector<std::int64_t> create_of;  // remove i -> index of its create
};

/// The whole request stream, fixed by the seed before the round starts.
ChurnPlan plan_churn(const ChurnParams& p, std::uint64_t seed) {
  ChurnPlan plan;
  plan.ops.reserve(p.ops);
  plan.create_of.assign(p.ops, -1);
  Rng rng(seed, /*stream=*/7);
  std::vector<std::deque<std::size_t>> live(p.dirs + 1);
  for (std::size_t i = 0; i < p.ops; ++i) {
    const std::uint64_t d = rng.uniform_u64(1, p.dirs);
    auto& q = live[d];
    if (q.size() >= p.live) {
      plan.create_of[i] = static_cast<std::int64_t>(q.front());
      plan.ops.push_back(
          AckedOp{AckedOp::Kind::kRemove, d, plan.ops[q.front()].name, {}});
      q.pop_front();
    } else {
      plan.ops.push_back(AckedOp{AckedOp::Kind::kCreate, d,
                                 "c" + std::to_string(rng.uniform_u64(0, 999999)) +
                                     "_" + std::to_string(i),
                                 {}});
      q.push_back(i);
    }
  }
  return plan;
}

Round churn_round(const Options& opt, const ChurnParams& p, std::uint64_t round,
                  SpanLog& spans) {
  Round r;
  const ChurnPlan plan = plan_churn(p, opt.seed);
  const std::uint64_t round_span = spans.open("round", round);
  const std::uint64_t setup_span = spans.open("setup", round, round_span);
  Fixture fx;
  r.error = fx.start(opt, opt.seed);
  spans.close(setup_span);
  if (!r.error.empty()) return r;
  r.setup_s = fx.setup_s;
  rpc::RpcClient& client = *fx.client;
  PostProbes probes(fx.cluster->env(), spans.enabled());

  std::vector<Req> reqs(plan.ops.size());
  std::vector<std::uint64_t> req_span(spans.enabled() ? plan.ops.size() : 0);
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(2 * p.window);
  std::size_t next = 0;
  std::size_t done = 0;
  std::uint32_t outstanding = 0;

  const std::uint64_t load_span = spans.open("load", round, round_span);
  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  const double t_start = wall_now();
  double t_last = t_start;

  std::uint64_t replies = 0;
  auto on_reply = [&](const Reply& rep) {
    const auto it = by_id.find(rep.id);
    if (it == by_id.end()) return;
    Req& q = reqs[it->second];
    q.replied = wall_now();
    q.reply_seq = ++replies;
    q.status = rep.status;
    q.answered = true;
    t_last = q.replied;
    if (!req_span.empty()) {
      spans.close(req_span[it->second],
                  static_cast<std::int64_t>(q.replied * 1e9));
    }
    by_id.erase(it);
    --outstanding;
    ++done;
    if (rep.status == Status::kOk) {
      ++r.ok;
      r.latency_ms.push_back((q.replied - q.sent) * 1e3);
    } else if (rep.status == Status::kAborted) {
      ++r.aborted;
      r.latency_ms.push_back((q.replied - q.sent) * 1e3);
    } else if (rep.status == Status::kBusy) {
      ++r.busy;
    } else {
      ++r.other_status;
    }
  };

  while (done < plan.ops.size()) {
    bool sent_any = false;
    while (outstanding < p.window && next < plan.ops.size()) {
      const AckedOp& op = plan.ops[next];
      if (const std::int64_t c = plan.create_of[next]; c >= 0) {
        const Req& cq = reqs[static_cast<std::size_t>(c)];
        if (!cq.answered) break;  // its create is still in flight
        if (cq.status != Status::kOk) {  // nothing to remove: skip it
          ++r.other_status;
          ++next;
          ++done;
          continue;
        }
      }
      Req& q = reqs[next];
      q.op = op;
      const double t0 = wall_now();
      const std::uint64_t id =
          op.kind == AckedOp::Kind::kCreate
              ? client.send_create(op.dir, op.name, false)
              : client.send_remove(op.dir, op.name);
      q.scheduled = q.sent = t0;
      if (!req_span.empty()) {
        const auto t0ns = static_cast<std::int64_t>(t0 * 1e9);
        req_span[next] = spans.add("client", next + 1, load_span, t0ns, t0ns);
        spans.add("rpc.send", next + 1, req_span[next], t0ns, wall_ns());
      }
      by_id.emplace(id, next);
      ++next;
      ++outstanding;
      ++r.sent;
      sent_any = true;
      probes.maybe_fire(r.sent);
    }
    if (sent_any) {
      const std::uint64_t fs = spans.open("rpc.flush", 0, load_span);
      const bool flushed = client.flush(kReplyTimeoutS);
      spans.close(fs);
      if (!flushed) {
        r.transport_error = true;
        break;
      }
    }
    if (outstanding == 0) continue;
    Reply rep;
    if (!client.recv_reply(rep, kReplyTimeoutS)) {
      r.transport_error = client.broken();
      break;
    }
    on_reply(rep);
    while (outstanding > 0 && client.recv_reply(rep, 0.0)) on_reply(rep);
  }
  const double cpu = (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0);
  spans.close(load_span);
  r.lost = outstanding;
  r.ops_s = static_cast<double>(r.ok) / (t_last - t_start);
  finish_round(fx, reqs, dir_ids(p.dirs), cpu, probes, spans, round,
               round_span, r);
  spans.close(round_span);
  return r;
}

// ---- serve_storm -------------------------------------------------------------

Round storm_round(const Options& opt, std::uint64_t round, SpanLog& spans,
                  SetupSampler& setups) {
  Round r;
  const std::uint64_t round_span = spans.open("round", round);
  const std::uint64_t setup_span = spans.open("setup", round, round_span);
  Fixture fx;
  r.error = fx.start(opt, opt.seed);
  spans.close(setup_span);
  if (!r.error.empty()) return r;
  r.setup_s = fx.setup_s;
  rpc::RpcClient& client = *fx.client;
  PostProbes probes(fx.cluster->env(), spans.enabled());

  // The arrival process and op mix of `opc loadgen` (one thread, stream 1).
  Rng rng(opt.seed, /*stream=*/1);
  const Duration mean_gap = Duration::from_seconds_f(1.0 / kStormRate);
  const double w_create = kStormCreateWeight;
  const double w_mkdir = w_create + kStormMkdirWeight;
  const double w_total = w_mkdir + kStormRenameWeight;

  std::vector<Req> reqs;
  reqs.reserve(kStormOps);
  std::vector<std::uint64_t> req_span;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  // Names acknowledged OK per directory: the only legal rename sources.
  std::map<std::uint64_t, std::vector<std::string>> confirmed;
  std::uint64_t seq = 0;

  const std::uint64_t load_span = spans.open("load", round, round_span);
  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  const double t_start = wall_now() + 0.01;
  double t_last = t_start;

  std::uint64_t replies = 0;
  auto on_reply = [&](const Reply& rep) {
    const auto it = by_id.find(rep.id);
    if (it == by_id.end()) return;
    Req& q = reqs[it->second];
    q.replied = wall_now();
    q.reply_seq = ++replies;
    q.status = rep.status;
    q.answered = true;
    t_last = q.replied;
    if (!req_span.empty()) {
      spans.close(req_span[it->second],
                  static_cast<std::int64_t>(q.replied * 1e9));
    }
    by_id.erase(it);
    switch (rep.status) {
      case Status::kOk:
        ++r.ok;
        r.latency_ms.push_back((q.replied - q.scheduled) * 1e3);
        confirmed[q.op.dir].push_back(
            q.op.kind == AckedOp::Kind::kRename ? q.op.name2 : q.op.name);
        break;
      case Status::kAborted:
        ++r.aborted;
        r.latency_ms.push_back((q.replied - q.scheduled) * 1e3);
        break;
      case Status::kBusy: ++r.busy; break;
      default: ++r.other_status; break;
    }
  };

  double scheduled = t_start;
  double paused = 0.0;      // wall and server CPU spent in setup bursts
  double paused_cpu = 0.0;
  for (std::uint32_t i = 0; i < kStormOps && !r.transport_error; ++i) {
    if (i > 0 && i % kStormSetupEvery == 0) {
      // A setup burst while nothing is in flight; the schedule then
      // resumes shifted by the pause, so no latency includes it.
      const double d0 = wall_now();
      while (!by_id.empty() && !r.transport_error) {
        Reply rep;
        if (client.recv_reply(rep, kReplyTimeoutS)) {
          on_reply(rep);
        } else {
          r.transport_error = true;
        }
      }
      if (r.transport_error) break;
      const double c0 = process_cpu_s() - thread_cpu_s();
      if (std::string err = setups.burst(); !err.empty()) {
        r.error = err;
        return r;
      }
      paused_cpu += process_cpu_s() - thread_cpu_s() - c0;
      const double pause = wall_now() - d0;
      paused += pause;
      scheduled += pause;
    }
    scheduled += rng.exponential(mean_gap).to_seconds_f();
    while (true) {
      const double gap = scheduled - wall_now();
      if (gap <= 0) break;
      Reply rep;
      if (client.recv_reply(rep, gap)) {
        on_reply(rep);
      } else if (client.broken()) {
        r.transport_error = true;
        break;
      }
    }
    if (r.transport_error) break;

    const double u = rng.uniform01() * w_total;
    const std::uint64_t dir =
        1 + std::min<std::uint64_t>(
                kStormDirs - 1, static_cast<std::uint64_t>(rng.uniform01() * kStormDirs));
    Req q;
    q.scheduled = scheduled;
    q.op.dir = dir;
    const double t0 = wall_now();
    std::uint64_t id = 0;
    auto& names = confirmed[dir];
    if (u < w_mkdir || names.empty()) {
      q.is_dir = u >= w_create && u < w_mkdir;
      q.op.kind = AckedOp::Kind::kCreate;
      q.op.name = "t0_" + std::to_string(seq++);
      id = client.send_create(dir, q.op.name, q.is_dir);
    } else {
      q.op.kind = AckedOp::Kind::kRename;
      q.op.name = std::move(names.back());
      names.pop_back();
      q.op.name2 = "t0_r" + std::to_string(seq++);
      id = client.send_rename(dir, q.op.name, dir, q.op.name2);
    }
    q.sent = t0;
    r.late_ms.push_back((t0 - scheduled) * 1e3);
    if (spans.enabled()) {
      const auto sched_ns = static_cast<std::int64_t>(scheduled * 1e9);
      req_span.push_back(
          spans.add("client", reqs.size() + 1, load_span, sched_ns, sched_ns));
      spans.add("rpc.send", reqs.size() + 1, req_span.back(),
                static_cast<std::int64_t>(t0 * 1e9), wall_ns());
    }
    by_id.emplace(id, reqs.size());
    reqs.push_back(std::move(q));
    ++r.sent;
    probes.maybe_fire(r.sent);
    const std::uint64_t fs = spans.open("rpc.flush", 0, load_span);
    if (!client.flush(1.0) && client.broken()) r.transport_error = true;
    spans.close(fs);
  }
  const double drain_end = wall_now() + kDrainTimeoutS;
  while (!r.transport_error && !by_id.empty() && wall_now() < drain_end) {
    Reply rep;
    if (client.recv_reply(rep, std::min(1.0, drain_end - wall_now()))) {
      on_reply(rep);
    } else if (client.broken()) {
      r.transport_error = true;
    }
  }
  const double cpu =
      (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0) - paused_cpu;
  spans.close(load_span);
  r.lost = by_id.size();
  r.ops_s = static_cast<double>(r.ok) / (t_last - t_start - paused);
  finish_round(fx, reqs, dir_ids(kStormDirs), cpu, probes, spans, round,
               round_span, r);
  spans.close(round_span);
  return r;
}

// ---- shared round loop ---------------------------------------------------------

template <class RoundFn>
RunResult run_rounds(const Options& opt, bool open_loop, RoundFn&& one_round) {
  RunResult res;
  SpanLog spans(opt.trace);

  SetupSampler setups(opt);
  std::vector<double> round_setups;
  std::vector<Round> rounds;
  double rss_mb = 0.0;  // high-water mark after the first round
  const double start = wall_now();
  double last = 0.0;
  do {
    if (std::string err = setups.burst(); !err.empty()) {
      res.fail(err);
      return res;
    }
    const double t0 = wall_now();
    rounds.push_back(one_round(rounds.size() + 1, spans, setups));
    last = wall_now() - t0;
    if (rounds.size() == 1) rss_mb = peak_rss_mb();
    const Round& r = rounds.back();
    if (!r.error.empty()) {
      res.fail(r.error);
      return res;
    }
    round_setups.push_back(r.setup_s);
  } while (wall_now() - start + last <= opt.seconds);

  while (setups.samples().size() < kSetupSamples) {
    if (std::string err = setups.burst(); !err.empty()) {
      res.fail(err);
      return res;
    }
  }
  const std::vector<double>& setup_samples = setups.samples();

  std::vector<double> ops, p50, late;
  std::vector<double> all_lat;
  for (const Round& r : rounds) {
    res.attempted += r.sent;
    res.failed += r.failures();
    ops.push_back(r.ops_s);
    p50.push_back(median(r.latency_ms));
    all_lat.insert(all_lat.end(), r.latency_ms.begin(), r.latency_ms.end());
    late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
    const std::string tag = "round " + std::to_string(&r - rounds.data() + 1);
    if (r.lost != 0) res.fail(tag + ": " + std::to_string(r.lost) + " lost replies");
    if (r.transport_error) res.fail(tag + ": transport error");
    if (!open_loop && r.ok != r.sent) {
      res.fail(tag + ": " + std::to_string(r.sent - r.ok) +
               " requests not answered OK");
    }
    if (open_loop && r.ok + r.aborted + r.busy != r.sent) {
      res.fail(tag + ": ok + aborted + busy != sent (" +
               std::to_string(r.other_status) + " other replies, " +
               std::to_string(r.lost) + " lost)");
    }
    for (const std::string& d : diff_namespace(r.check.expected, r.check.actual)) {
      res.fail(tag + ": " + d);
    }
    if (r.check.invariant_violations != 0) {
      res.fail(tag + ": invariants: " + r.check.violation_report);
    }
  }

  const double fail_share =
      share(static_cast<std::int64_t>(res.failed),
            static_cast<std::int64_t>(res.attempted));
  std::printf("rounds = %zu\n", rounds.size());
  std::printf("fail_share = %.17g (attempted %llu)\n", fail_share,
              static_cast<unsigned long long>(res.attempted));
  std::printf("p99_ms = %.6f over %zu samples\n", quantile(all_lat, 0.99),
              all_lat.size());
  if (open_loop) {
    std::printf("late_ms p50 = %.6f p99 = %.6f max = %.6f\n",
                quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1.0));
  }

  print_spread("setup_s", setup_samples);
  print_spread("round setup_s", round_setups);
  print_spread("ops_s", ops);
  print_spread("p50_ms", p50);
  // The run's best round (README.md, "Noise"): the host's slow spells
  // slow whole rounds, never speed one up.
  res.end_to_end = {
      {"ops_s", quantile(ops, 1.0), "1/s"},
      {"p50_ms", quantile(p50, 0.0), "ms"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };
  if (opt.trace) {
    // Median over rounds, metric by metric: layer figures are read, not
    // gated.
    for (std::size_t m = 0; m < rounds.front().layers.size(); ++m) {
      std::vector<double> v;
      for (const Round& r : rounds) v.push_back(r.layers[m].value);
      Metric out = rounds.front().layers[m];
      out.value = median(std::move(v));
      res.per_layer.push_back(std::move(out));
    }
    // Same statistic as the untraced ops_s, so the two compare directly.
    res.per_layer.push_back({"traced.ops_s", quantile(ops, 1.0), "1/s"});
    report_spans(opt, spans);
  }
  return res;
}

}  // namespace

RunResult run_serve_churn(const Options& opt, const ChurnParams& p) {
  return run_rounds(opt, /*open_loop=*/false,
                    [&](std::uint64_t round, SpanLog& spans, SetupSampler&) {
                      return churn_round(opt, p, round, spans);
                    });
}

RunResult run_serve_storm(const Options& opt) {
  return run_rounds(opt, /*open_loop=*/true,
                    [&](std::uint64_t round, SpanLog& spans,
                        SetupSampler& setups) {
                      return storm_round(opt, round, spans, setups);
                    });
}

ServedCheck churn_round_for_test(const Options& opt, const ChurnParams& p) {
  SpanLog off(false);
  Round r = churn_round(opt, p, 1, off);
  return std::move(r.check);
}

}  // namespace opcbench
