#include "rt/rt_cluster.h"

#include <chrono>
#include <utility>

namespace opc {

RtCluster::RtCluster(RtClusterConfig cfg)
    : cfg_(cfg), env_(cfg.n_nodes, cfg.seed), net_(env_, cfg.net, cfg.seed),
      storage_(env_, storage_stats_, storage_trace_) {
  SIM_CHECK(cfg_.n_nodes >= 1);
  HeartbeatConfig hb;  // disabled: quiescent runs have no failure detection
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    const NodeId id(i);
    auto pn = std::make_unique<PerNode>();
    LogPartition& part =
        storage_.add_partition(id, cfg_.disk, pn->stats, pn->trace);
    pn->node = std::make_unique<MdsNode>(
        env_, id, cfg_.protocol, cfg_.acp, cfg_.wal, hb, net_, storage_, part,
        pn->stats, pn->trace, /*fencing=*/nullptr, /*history=*/nullptr);
    nodes_.push_back(std::move(pn));
  }
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    std::vector<NodeId> peers;
    for (std::uint32_t j = 0; j < cfg_.n_nodes; ++j) {
      if (j != i) peers.emplace_back(j);
    }
    nodes_[i]->node->set_peers(std::move(peers));
    nodes_[i]->node->start();  // attach only: heartbeats are off
  }
}

RtCluster::~RtCluster() { env_.stop(); }

void RtCluster::bootstrap_directory(ObjectId dir, NodeId home) {
  Inode ino;
  ino.id = dir;
  ino.is_dir = true;
  ino.nlink = 1;
  node(home).store().bootstrap_inode(ino);
}

void RtCluster::pump(std::uint32_t i, std::uint32_t concurrency) {
  PerNode& pn = *nodes_[i];
  while (pn.inflight < concurrency && pn.next < pn.items->size() &&
         !stop_issuing_.load(std::memory_order_relaxed)) {
    Transaction txn = (*pn.items)[pn.next++];
    ++pn.inflight;
    pn.node->engine().submit(
        std::move(txn),
        [this, i, concurrency](TxnId, TxnOutcome) { on_completion(i, concurrency); });
  }
}

void RtCluster::on_completion(std::uint32_t i, std::uint32_t concurrency) {
  // Runs on worker i (the coordinator replies on its own executor).
  PerNode& pn = *nodes_[i];
  --pn.inflight;
  pump(i, concurrency);
  const bool drained = pn.next >= pn.items->size() ||
                       stop_issuing_.load(std::memory_order_relaxed);
  if (pn.inflight == 0 && drained && !pn.signaled_done) {
    pn.signaled_done = true;
    std::lock_guard<std::mutex> lk(done_mu_);
    ++nodes_done_;
    done_cv_.notify_all();
  }
}

RtCluster::StormResult RtCluster::run_storm(const StormPlan& plan,
                                            std::uint32_t concurrency,
                                            Duration max_wall) {
  SIM_CHECK(plan.n_nodes == cfg_.n_nodes);
  SIM_CHECK(concurrency >= 1);
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    bootstrap_directory(plan.dirs[i], NodeId(i));
  }

  std::uint32_t active = 0;
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    nodes_[i]->items = &plan.per_node[i];
    if (!plan.per_node[i].empty()) ++active;
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    if (plan.per_node[i].empty()) continue;
    env_.post(i, [this, i, concurrency] { pump(i, concurrency); });
  }

  {
    std::unique_lock<std::mutex> lk(done_mu_);
    if (max_wall > Duration::zero()) {
      const auto deadline =
          t0 + std::chrono::nanoseconds(max_wall.count_nanos());
      if (!done_cv_.wait_until(lk, deadline,
                               [&] { return nodes_done_ == active; })) {
        stop_issuing_.store(true, std::memory_order_relaxed);
        // In-flight transactions drain; every active node still signals.
        done_cv_.wait(lk, [&] { return nodes_done_ == active; });
      }
    } else {
      done_cv_.wait(lk, [&] { return nodes_done_ == active; });
    }
  }
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Let lazy WAL flushes, checkpoints and stragglers finish before reading
  // any per-node state from this thread.
  env_.wait_idle();

  StormResult res;
  res.wall_seconds = wall;
  for (auto& pn : nodes_) {
    const AcpEngine& eng = pn->node->engine();
    res.committed += eng.committed_count();
    res.aborted += eng.aborted_count();
    res.latency.merge(eng.client_latency());
    res.stats.merge(pn->stats);
  }
  res.stats.merge(storage_stats_);
  net_.export_stats(res.stats);
  const Histogram late = env_.dispatch_lateness();
  res.stats.set("rt.timer.fired", static_cast<std::int64_t>(late.count()));
  res.stats.set("rt.timer.late_p50_ns",
                static_cast<std::int64_t>(late.quantile(0.5)));
  res.stats.set("rt.timer.late_p99_ns",
                static_cast<std::int64_t>(late.quantile(0.99)));
  res.ops_per_second =
      wall > 0.0 ? static_cast<double>(res.committed) / wall : 0.0;
  return res;
}

std::vector<const MetaStore*> RtCluster::stores() const {
  std::vector<const MetaStore*> out;
  out.reserve(nodes_.size());
  for (const auto& pn : nodes_) out.push_back(&pn->node->store());
  return out;
}

std::vector<InvariantViolation> RtCluster::check_invariants(
    const std::vector<ObjectId>& roots) const {
  return opc::check_invariants(stores(), roots);
}

}  // namespace opc
