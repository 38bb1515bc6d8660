#include "cluster/node.h"

namespace opc {
namespace {
constexpr const char* kHeartbeatKind = "HB";
}

MdsNode::MdsNode(Env& env, NodeId id, ProtocolKind proto,
                 AcpConfig acp_cfg, WalConfig wal_cfg, HeartbeatConfig hb_cfg,
                 Transport& net, SharedStorage& storage,
                 LogPartition& partition, StatsRegistry& stats,
                 TraceRecorder& trace, FencingService* fencing,
                 HistoryRecorder* history, obs::PhaseLog* phases)
    : env_(env), id_(id), hb_cfg_(hb_cfg), net_(net), storage_(storage),
      stats_(stats), trace_(trace), store_(id),
      locks_(env, "locks." + id.str(), stats, trace),
      wal_(env, id, partition, stats, trace, wal_cfg),
      engine_(env, id, proto, acp_cfg, net, wal_, locks_, store_, storage,
              stats, trace, fencing, history, phases) {}

void MdsNode::start() {
  SIM_CHECK(!alive_);
  alive_ = true;
  ++life_epoch_;
  net_.attach(id_, [this](Envelope env) { on_envelope(std::move(env)); });
  if (hb_cfg_.enabled) {
    last_heard_.clear();
    suspected_.clear();
    for (NodeId p : peers_) last_heard_[p] = env_.now();
    schedule_heartbeat();
    schedule_sweep();
  }
}

void MdsNode::crash() {
  SIM_CHECK_MSG(alive_, "crash() on a node that is already down");
  alive_ = false;
  ++life_epoch_;  // kills heartbeat/sweep timers at their next firing
  net_.detach(id_);
  engine_.crash();  // also resets locks, store cache, WAL volatile state
  stats_.add("cluster.crashes");
}

void MdsNode::reboot(std::function<void()> on_recovered) {
  SIM_CHECK_MSG(!alive_, "reboot() on a node that is up");
  storage_.unfence(id_);
  start();
  stats_.add("cluster.reboots");
  engine_.recover(std::move(on_recovered));
}

void MdsNode::on_envelope(Envelope env) {
  if (!alive_) return;
  if (env.kind == kHeartbeatKind) {
    last_heard_[env.from] = env_.now();
    if (suspected_[env.from]) {
      suspected_[env.from] = false;
      engine_.clear_suspicion(env.from);
    }
    return;
  }
  engine_.on_message(std::move(env));
}

void MdsNode::schedule_heartbeat() {
  const std::uint64_t epoch = life_epoch_;
  env_.schedule_after(hb_cfg_.interval, [this, epoch] {
    if (epoch != life_epoch_ || !alive_) return;
    if (!hb_muted_) {
      for (NodeId p : peers_) {
        Envelope env;
        env.from = id_;
        env.to = p;
        env.kind = kHeartbeatKind;
        env.size_bytes = 64;
        net_.send(std::move(env));
      }
    }
    schedule_heartbeat();
  });
}

void MdsNode::schedule_sweep() {
  const std::uint64_t epoch = life_epoch_;
  env_.schedule_after(hb_cfg_.interval, [this, epoch] {
    if (epoch != life_epoch_ || !alive_) return;
    for (NodeId p : peers_) {
      const SimTime last = last_heard_.contains(p) ? last_heard_[p]
                                                   : SimTime::zero();
      const bool silent = env_.now() - last > hb_cfg_.suspicion_timeout;
      if (silent && !suspected_[p]) {
        suspected_[p] = true;
        stats_.add("cluster.suspicions");
        trace_.record(env_.now(), TraceKind::kInfo, id_.str(),
                      "suspects " + p.str());
        engine_.suspect(p);
      }
    }
    schedule_sweep();
  });
}

}  // namespace opc
