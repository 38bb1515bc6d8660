#include "cluster/cluster.h"

namespace opc {

Cluster::Cluster(Simulator& sim, ClusterConfig cfg, StatsRegistry& stats,
                 TraceRecorder& trace)
    : sim_env_(std::in_place, sim, cfg.seed), env_(*sim_env_), cfg_(cfg),
      trace_(trace),
      net_(std::make_unique<Network>(env_, cfg_.net, stats, trace,
                                     cfg_.seed)),
      transport_(*net_), storage_(env_, stats, trace),
      fencing_(std::make_unique<StonithController>(
          env_, storage_, stats, trace, cfg_.fencing,
          [this](NodeId id) { crash_node(id); },
          [this](NodeId id) { reboot_node(id); })) {
  add_nodes(std::vector<Sinks>(cfg_.n_nodes, Sinks{stats, trace}));
}

Cluster::Cluster(Env& env, Transport& net, ClusterConfig cfg, Sinks sinks,
                 const std::vector<Sinks>& node_sinks)
    : env_(env), cfg_(cfg), trace_(sinks.trace), transport_(net),
      storage_(env_, sinks.stats, sinks.trace) {
  SIM_CHECK(node_sinks.size() == cfg_.n_nodes);
  add_nodes(node_sinks);
}

void Cluster::add_nodes(const std::vector<Sinks>& sinks) {
  if (cfg_.record_history) history_.emplace();  // before any node holds it
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    const NodeId id(i);
    LogPartition& part =
        storage_.add_partition(id, cfg_.disk, sinks[i].stats, sinks[i].trace);
    nodes_.push_back(std::make_unique<MdsNode>(
        env_, id, cfg_.protocol, cfg_.acp, cfg_.wal, cfg_.heartbeat,
        transport_, storage_, part, sinks[i].stats, sinks[i].trace,
        fencing_.get(), history(), cfg_.phase_log));
  }
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    std::vector<NodeId> peers;
    for (std::uint32_t j = 0; j < cfg_.n_nodes; ++j) {
      if (j != i) peers.emplace_back(j);
    }
    nodes_[i]->set_peers(std::move(peers));
    nodes_[i]->start();
  }
}

void Cluster::bootstrap_directory(ObjectId dir, NodeId home) {
  Inode ino;
  ino.id = dir;
  ino.is_dir = true;
  ino.nlink = 1;
  node(home).store().bootstrap_inode(ino);
}

void Cluster::crash_node(NodeId id) {
  MdsNode& n = node(id);
  if (!n.alive()) return;
  trace_.record(env_.now(), TraceKind::kCrash, id.str(), "node power off");
  n.crash();
}

void Cluster::reboot_node(NodeId id, std::function<void()> on_recovered) {
  MdsNode& n = node(id);
  if (n.alive()) return;
  if (fencing_ != nullptr && fencing_->held(id)) return;  // STONITH hold
  trace_.record(env_.now(), TraceKind::kReboot, id.str(), "node power on");
  n.reboot(std::move(on_recovered));
}

void Cluster::schedule_crash(NodeId id, Duration after,
                             Duration reboot_after) {
  env_.schedule_after(after, [this, id, reboot_after] {
    crash_node(id);
    if (reboot_after > Duration::zero()) {
      env_.schedule_after(reboot_after, [this, id] { reboot_node(id); });
    }
  });
}

void Cluster::schedule_partition(NodeId a, NodeId b, Duration from,
                                 Duration until, bool asymmetric) {
  env_.schedule_after(from, [this, a, b, asymmetric] {
    trace_.record(env_.now(), TraceKind::kInfo, a.str(),
                  std::string(asymmetric ? "partition -> " : "partition <-> ") +
                      b.str());
    if (asymmetric) {
      network().sever(a, b);
    } else {
      network().sever_pair(a, b);
    }
  });
  if (until > from) {
    env_.schedule_after(until, [this, a, b] {
      trace_.record(env_.now(), TraceKind::kInfo, a.str(),
                    "partition healed <-> " + b.str());
      network().heal_pair(a, b);
    });
  }
}

void Cluster::schedule_disk_degrade(NodeId id, Duration from, Duration until,
                                    double factor) {
  env_.schedule_after(from, [this, id, factor] {
    trace_.record(env_.now(), TraceKind::kInfo, id.str(),
                  "log device degraded x" + std::to_string(factor));
    storage_.partition(id).device().set_degrade_factor(factor);
  });
  if (until > from) {
    env_.schedule_after(until, [this, id] {
      trace_.record(env_.now(), TraceKind::kInfo, id.str(),
                    "log device restored");
      storage_.partition(id).device().set_degrade_factor(1.0);
    });
  }
}

void Cluster::schedule_heartbeat_mute(NodeId id, Duration from,
                                      Duration until) {
  env_.schedule_after(from, [this, id] {
    trace_.record(env_.now(), TraceKind::kInfo, id.str(),
                  "heartbeats muted");
    node(id).set_heartbeat_muted(true);
  });
  if (until > from) {
    env_.schedule_after(until, [this, id] {
      trace_.record(env_.now(), TraceKind::kInfo, id.str(),
                    "heartbeats resumed");
      node(id).set_heartbeat_muted(false);
    });
  }
}

std::vector<const MetaStore*> Cluster::stores() const {
  std::vector<const MetaStore*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(&n->store());
  return out;
}

std::vector<InvariantViolation> Cluster::check_invariants(
    const std::vector<ObjectId>& roots) const {
  return opc::check_invariants(stores(), roots);
}

}  // namespace opc
