// RpcServer: the real ingress in front of an RtCluster.
//
// Accepts TCP (127.0.0.1) and/or Unix-domain connections, speaks the wire
// codec (src/rpc/wire.h), and turns each request into a distributed
// transaction submitted to the owning node's engine on that node's RtEnv
// worker — the engines stay single-threaded per node; the server only
// crosses threads through Env::post and per-connection mutexes.
//
// Threading model:
//   * `event_threads` poll loops own the sockets.  Each connection belongs
//     to exactly one loop; reads, frame decoding, and writes happen there.
//   * Requests are posted to the coordinator node's worker (the home MDS
//     of the parent directory, as in the simulated planner).  The engine's
//     completion callback runs on that worker and appends the encoded
//     reply to the connection's outbox (mutex-guarded), then wakes the
//     owning loop through its self-pipe.
//
// Backpressure: admitted requests are bounded by `max_inflight` across the
// whole server.  A request over the bound is answered BUSY immediately on
// the event loop — bounded memory and bounded queueing delay instead of an
// unbounded queue (docs/SERVING.md §3).  Replies to dead connections are
// dropped; the transaction still runs to completion, so RtEnv::wait_idle
// cannot hang on a vanished client.
//
// Shutdown: stop() closes the listeners, answers new requests SHUTDOWN,
// waits for every admitted transaction to complete (drain), flushes
// sockets, then joins the loops.  `opc serve` drives this from SIGINT.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mds/namespace.h"
#include "rpc/wire.h"
#include "rt/rt_cluster.h"
#include "rt/storm_plan.h"
#include "stats/counters.h"

namespace opc::rpc {

struct RpcServerConfig {
  std::string uds_path;        // listen on this UDS path when non-empty
  std::uint16_t tcp_port = 0;  // listen on 127.0.0.1:port when > 0
  bool tcp = false;            // listen on TCP (port 0 = ephemeral)
  std::uint32_t event_threads = 1;
  /// Bound on concurrently admitted (engine-submitted) requests across the
  /// server; requests beyond it are shed with Status::kBusy.
  std::uint32_t max_inflight = 1024;
  /// Server-side deadline per admitted request; zero disables.  On expiry
  /// the client gets Status::kTimeout and the transaction's eventual
  /// completion is dropped (the transaction itself is never cancelled).
  Duration request_timeout = Duration::zero();
};

class RpcServer {
 public:
  /// The server plans transactions with the same StridedPartitioner the
  /// storm plan uses: directory ids 1..n_nodes are the bootstrap hot
  /// directories, homed on node id-1; created inodes get ids allocated
  /// above `StridedPartitioner::inode_base()`, minted per coordinator
  /// worker (see `mint_inode`).
  RpcServer(RtCluster& cluster, RpcServerConfig cfg);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the event loops.  False on any socket error
  /// (logged to stderr).  Call at most once.
  [[nodiscard]] bool start();

  /// Graceful drain (idempotent): stop accepting, shed new requests with
  /// SHUTDOWN, wait until every admitted transaction completed, flush and
  /// close connections, join loops.
  void stop();

  /// Actual TCP port (after an ephemeral bind), 0 when TCP is off.
  [[nodiscard]] std::uint16_t tcp_port() const { return bound_port_; }

  /// Admitted requests currently inside an engine.
  [[nodiscard]] std::uint64_t inflight() const {
    return static_cast<std::uint64_t>(inflight_.load(std::memory_order_relaxed));
  }

  /// Folds the server's counters into `stats` under "rpc.*" names
  /// (docs/OBSERVABILITY.md §4).  Safe any time; exact once quiescent.
  void export_stats(StatsRegistry& stats) const;

  [[nodiscard]] std::uint64_t committed() const {
    return committed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t busy_count() const {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::uint32_t loop = 0;
    WireBuf rd;  // raw inbound bytes (decoded in place)
    WireBuf wr;  // loop-owned outbound bytes
    // --- cross-thread state (mu) ---
    std::mutex mu;
    std::vector<std::uint8_t> outbox;  // replies encoded off-loop
    // Admitted requests awaiting an engine completion: id -> deadline
    // (SimTime::max() when timeouts are off).  A completion that finds its
    // id gone was timed out (or the request was never admitted) — drop.
    std::unordered_map<std::uint64_t, SimTime> pending;
    bool closed = false;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Loop {
    std::thread thread;
    int wake_rd = -1;  // self-pipe: worker threads poke the poll loop
    int wake_wr = -1;
    std::mutex mu;
    std::vector<ConnPtr> incoming;  // accepted conns waiting for adoption
    std::vector<ConnPtr> conns;     // loop-thread-owned
  };

  void loop_main(std::uint32_t index);
  void wake(std::uint32_t loop);
  void adopt_incoming(Loop& lp, std::uint32_t index);
  void accept_ready(int listen_fd);
  /// Returns false when the connection must be closed.
  bool read_ready(const ConnPtr& c);
  bool write_ready(const ConnPtr& c);
  void drain_outbox(const ConnPtr& c);
  void close_conn(Loop& lp, const ConnPtr& c);
  void scan_timeouts(Loop& lp);

  void handle_request(const ConnPtr& c, const Request& req);
  /// Engine-side half: plan + submit on the coordinator's worker thread.
  void submit_on_worker(const ConnPtr& c, MsgType op, std::uint64_t dir,
                        std::uint64_t dir2, std::string name,
                        std::string name2, std::uint64_t id,
                        std::uint8_t width);
  /// Id of worker `w`'s `unit`-th minted inode.  The id space above
  /// inode_base() is cut into blocks of n consecutive ids, one per ring
  /// position, dealt round-robin to the n workers; a worker's units fill
  /// its blocks in order.  Ids are therefore unique across workers, and
  /// the homes of a worker's successive creates cycle over the ring, so
  /// which creates are local depends only on that worker's request stream
  /// (exactly one in n), never on how the workers interleave.
  [[nodiscard]] std::uint64_t mint_inode(std::uint32_t w,
                                         std::uint64_t unit) const;
  void complete(const ConnPtr& c, std::uint64_t id, Status st,
                std::uint64_t inode);
  /// Direct reply from the event loop (never entered `pending`).
  static void reply_now(const ConnPtr& c, std::uint64_t id, Status st,
                        std::uint64_t inode = 0);

  RtCluster& cluster_;
  RpcServerConfig cfg_;
  StridedPartitioner part_;
  NamespacePlanner planner_;
  // Units minted so far, per coordinator worker; each entry is touched
  // only by its own worker thread, and padded so workers never share a
  // cache line.
  struct alignas(64) MintCursor {
    std::uint64_t units = 0;
  };
  std::vector<MintCursor> minted_;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<int> listen_fds_;
  std::uint16_t bound_port_ = 0;
  std::atomic<std::uint32_t> next_loop_{0};  // round-robin conn placement
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::int64_t> inflight_{0};
  // Counters (docs/OBSERVABILITY.md §4, "rpc.*").
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> conns_closed_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
};

}  // namespace opc::rpc
