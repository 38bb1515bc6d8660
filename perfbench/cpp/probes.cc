#include "probes.h"

#include "common.h"
#include "mds/store.h"
#include "rpc/wire.h"

namespace opcbench {
namespace {

// Consumed results, so the optimizer keeps the measured calls.
volatile std::uint64_t g_sink = 0;

}  // namespace

double codec_ns_per_frame(const std::vector<AckedOp>& ops,
                          const std::vector<bool>& is_dir) {
  using namespace opc::rpc;
  if (ops.empty()) return 0.0;
  constexpr std::size_t kChunk = 256;  // frames per buffer refill
  std::vector<double> passes;
  WireBuf req;
  WireBuf rep;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t sink = 0;
    const std::int64_t t0 = wall_ns();
    for (std::size_t base = 0; base < ops.size(); base += kChunk) {
      const std::size_t end = std::min(ops.size(), base + kChunk);
      req.clear();
      rep.clear();
      for (std::size_t i = base; i < end; ++i) {
        const AckedOp& op = ops[i];
        switch (op.kind) {
          case AckedOp::Kind::kCreate:
            encode_create(req, i + 1, op.dir, op.name, is_dir[i]);
            break;
          case AckedOp::Kind::kRemove:
            encode_remove(req, i + 1, op.dir, op.name);
            break;
          case AckedOp::Kind::kRename:
            encode_rename(req, i + 1, op.dir, op.name, op.dir, op.name2);
            break;
        }
      }
      std::size_t off = 0;
      while (off < req.bytes.size()) {
        const Decoded d =
            decode_frame(req.bytes.data() + off, req.bytes.size() - off);
        if (d.status != DecodeStatus::kRequest) break;
        off += d.consumed;
        sink += d.request.id + d.request.name.size();
        encode_reply(rep, Reply{d.request.id, Status::kOk, d.request.dir});
      }
    }
    const std::int64_t t1 = wall_ns();
    g_sink = g_sink + sink + rep.bytes.size();
    passes.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(ops.size()));
  }
  return median(std::move(passes));
}

double mds_ns_per_op(const std::vector<std::uint64_t>& dirs,
                     const std::vector<AckedOp>& ops, std::size_t tail) {
  using namespace opc;
  if (ops.empty()) return 0.0;
  const std::size_t timed_from = ops.size() > tail ? ops.size() - tail : 0;
  MetaStore store(NodeId(0));
  for (const std::uint64_t d : dirs) {
    store.bootstrap_inode(Inode{ObjectId(d), true, 1, 0});
  }
  auto apply = [&store](TxnId txn, OpType type, std::uint64_t dir,
                        ObjectId child, const std::string& name) {
    return store.apply(txn, Operation{type, ObjectId(dir), child, name}) ==
           StoreStatus::kOk;
  };
  std::uint64_t next_child = 1u << 30;
  TxnId txn = 0;
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == timed_from) t0 = wall_ns();
    const AckedOp& op = ops[i];
    ++txn;
    bool ok = true;
    switch (op.kind) {
      case AckedOp::Kind::kCreate:
        ok = apply(txn, OpType::kAddDentry, op.dir, ObjectId(next_child++),
                   op.name);
        break;
      case AckedOp::Kind::kRemove:
        ok = apply(txn, OpType::kRemoveDentry, op.dir, kNoObject, op.name);
        break;
      case AckedOp::Kind::kRename:
        ok = apply(txn, OpType::kRemoveDentry, op.dir, kNoObject, op.name) &&
             apply(txn, OpType::kAddDentry, op.dir, ObjectId(next_child++),
                   op.name2);
        break;
    }
    if (ok) {
      store.commit_txn(txn);
    } else {
      store.abort_txn(txn);
    }
  }
  return static_cast<double>(wall_ns() - t0) /
         static_cast<double>(ops.size() - timed_from);
}

std::vector<Metric> layer_metrics(const OwnLayers& own,
                                  const opc::StatsRegistry& st,
                                  const opc::Histogram& engine_latency,
                                  const opc::Histogram& lock_wait,
                                  std::int64_t committed) {
  const std::int64_t queued = st.get("lock.grants.queued");
  return {
      {"rpc.overhead_p50_ms", own.rpc_overhead_p50_ms, "ms"},
      {"rpc.codec_ns", own.rpc_codec_ns, "ns"},
      {"rpc.busy_share", own.rpc_busy_share, "share"},
      {"rt.post_wait_us", own.rt_post_wait_us, "us"},
      {"server.cpu_us_per_op", own.server_cpu_us_per_op, "us"},
      {"acp.engine_p50_ms", engine_latency.quantile(0.5) * 1e-6, "ms"},
      {"acp.msgs_per_txn", share(st.get("acp.msg.total"), committed), "count"},
      {"wal.forces_per_txn", share(st.get("wal.force.count"), committed), "count"},
      {"wal.coalesced_share",
       share(st.get("wal.force.coalesced"), st.get("wal.force.count")), "share"},
      {"lock.wait_p50_us", lock_wait.quantile(0.5) * 1e-3, "us"},
      {"lock.queued_share",
       share(queued, queued + st.get("lock.grants.immediate")), "share"},
      {"mds.create_ns", own.mds_create_ns, "ns"},
      {"mds.max_dir_entries", own.mds_max_dir_entries, "count"},
      {"sim.events_s", own.sim_events_s, "1/s"},
      {"sim.events_per_txn", own.sim_events_per_txn, "count"},
      {"mem.allocs_per_txn", own.mem_allocs_per_txn, "count"},
  };
}

}  // namespace opcbench
