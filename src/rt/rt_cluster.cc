#include "rt/rt_cluster.h"

#include <algorithm>
#include <memory>

#include "workload/source.h"

namespace opc {

namespace {

// The quiescent storm: heartbeats (off by default), fencing, history and
// phase logging stay out.
ClusterConfig cluster_config(const RtClusterConfig& cfg) {
  ClusterConfig cc;
  cc.n_nodes = cfg.n_nodes;
  cc.protocol = cfg.protocol;
  cc.net = cfg.net;
  cc.disk = cfg.disk;
  cc.wal = cfg.wal;
  cc.acp = cfg.acp;
  cc.seed = cfg.seed;
  return cc;
}

}  // namespace

RtCluster::RtCluster(RtClusterConfig cfg)
    : env_(cfg.n_nodes, cfg.seed), net_(env_, cfg.net, cfg.seed),
      sinks_(cfg.n_nodes),
      cluster_(env_, net_, cluster_config(cfg),
               Cluster::Sinks{storage_stats_, storage_trace_},
               node_sinks()) {}

std::vector<Cluster::Sinks> RtCluster::node_sinks() {
  std::vector<Cluster::Sinks> out;
  out.reserve(sinks_.size());
  for (Sinks& s : sinks_) out.push_back(Cluster::Sinks{s.stats, s.trace});
  return out;
}

RtCluster::~RtCluster() { env_.stop(); }

RtCluster::StormResult RtCluster::run_storm(const StormPlan& plan,
                                            std::uint32_t concurrency,
                                            Duration max_wall) {
  SIM_CHECK(plan.n_nodes == size());
  SIM_CHECK(concurrency >= 1);
  for (std::uint32_t i = 0; i < size(); ++i) {
    bootstrap_directory(plan.dirs[i], NodeId(i));
  }

  // One closed loop per node with work, started on and confined to that
  // node's worker.  wait_idle() returns once every loop has drained and
  // lazy WAL flushes, checkpoints and stragglers have settled, so per-node
  // state may be read from this thread afterwards.
  const SimTime t0 = env_.now();
  const SimTime stop_at =
      max_wall > Duration::zero() ? t0 + max_wall : SimTime::max();
  std::vector<std::unique_ptr<PlannedSource>> sources;
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (plan.per_node[i].empty()) continue;
    sources.push_back(std::make_unique<PlannedSource>(
        env_, cluster_, concurrency, sinks_[i].meter, sinks_[i].stats,
        plan.per_node[i]));
    env_.post(i, [src = sources.back().get(), stop_at] {
      src->start(stop_at);
    });
  }
  env_.wait_idle();

  SimTime drained = t0;
  for (const auto& src : sources) {
    drained = std::max(drained, src->drained_at());
  }
  const double wall = (drained - t0).to_seconds_f();

  StormResult res = fold_results();
  res.wall_seconds = wall;
  res.ops_per_second =
      wall > 0.0 ? static_cast<double>(res.committed) / wall : 0.0;
  return res;
}

RtCluster::StormResult RtCluster::fold_results() {
  StormResult res;
  for (std::uint32_t i = 0; i < size(); ++i) {
    const AcpEngine& eng = cluster_.engine(NodeId(i));
    res.committed += eng.committed_count();
    res.aborted += eng.aborted_count();
    res.latency.merge(eng.client_latency());
    res.stats.merge(sinks_[i].stats);
  }
  res.stats.merge(storage_stats_);
  net_.export_stats(res.stats);
  const Histogram late = env_.dispatch_lateness();
  res.stats.set("rt.timer.fired", static_cast<std::int64_t>(late.count()));
  res.stats.set("rt.timer.late_p50_ns",
                static_cast<std::int64_t>(late.quantile(0.5)));
  res.stats.set("rt.timer.late_p99_ns",
                static_cast<std::int64_t>(late.quantile(0.99)));
  res.stats.set("rt.timer.spin_ns", env_.spin_nanos());
  return res;
}

}  // namespace opc
