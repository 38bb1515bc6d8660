#include "rpc/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

namespace opc::rpc {
namespace {

constexpr int kPollMillis = 10;
constexpr std::size_t kReadChunk = 16384;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void perror_tag(const char* what) {
  std::fprintf(stderr, "rpc: %s: %s\n", what, std::strerror(errno));
}

}  // namespace

RpcServer::RpcServer(RtCluster& cluster, RpcServerConfig cfg)
    : cluster_(cluster), cfg_(std::move(cfg)), part_(cluster.size()),
      planner_(part_, OpCosts{}), minted_(cluster.size()) {
  if (cfg_.event_threads == 0) cfg_.event_threads = 1;
  if (cfg_.max_inflight == 0) cfg_.max_inflight = 1;
}

RpcServer::~RpcServer() { stop(); }

bool RpcServer::start() {
  if (started_) return false;
  started_ = true;

  if (!cfg_.uds_path.empty()) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      perror_tag("socket(AF_UNIX)");
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.uds_path.size() >= sizeof(addr.sun_path)) {
      std::fprintf(stderr, "rpc: UDS path too long: %s\n",
                   cfg_.uds_path.c_str());
      ::close(fd);
      return false;
    }
    std::strncpy(addr.sun_path, cfg_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(cfg_.uds_path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 128) != 0 || !set_nonblocking(fd)) {
      perror_tag("bind/listen(uds)");
      ::close(fd);
      return false;
    }
    listen_fds_.push_back(fd);
  }

  if (cfg_.tcp || cfg_.tcp_port != 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      perror_tag("socket(AF_INET)");
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.tcp_port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 128) != 0 || !set_nonblocking(fd)) {
      perror_tag("bind/listen(tcp)");
      ::close(fd);
      return false;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port_ = ntohs(bound.sin_port);
    listen_fds_.push_back(fd);
  }

  if (listen_fds_.empty()) {
    std::fprintf(stderr, "rpc: no listen endpoint configured\n");
    return false;
  }

  for (std::uint32_t i = 0; i < cfg_.event_threads; ++i) {
    auto lp = std::make_unique<Loop>();
    int pipefd[2];
    if (::pipe(pipefd) != 0 || !set_nonblocking(pipefd[0]) ||
        !set_nonblocking(pipefd[1])) {
      perror_tag("pipe");
      return false;
    }
    lp->wake_rd = pipefd[0];
    lp->wake_wr = pipefd[1];
    loops_.push_back(std::move(lp));
  }
  for (std::uint32_t i = 0; i < cfg_.event_threads; ++i) {
    loops_[i]->thread = std::thread([this, i] { loop_main(i); });
  }
  return true;
}

void RpcServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // 1. Shed new work: loop 0 closes the listeners, every loop answers new
  //    requests with SHUTDOWN from here on.
  stopping_.store(true, std::memory_order_release);
  for (std::uint32_t i = 0; i < loops_.size(); ++i) wake(i);

  // 2. Drain: every admitted transaction runs to completion (the engines
  //    never cancel), so inflight_ must reach zero.
  while (inflight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Flush and exit: loops push remaining outboxes onto the sockets,
  //    close their connections and return.
  shutdown_.store(true, std::memory_order_release);
  for (std::uint32_t i = 0; i < loops_.size(); ++i) wake(i);
  for (auto& lp : loops_) {
    if (lp->thread.joinable()) lp->thread.join();
    ::close(lp->wake_rd);
    ::close(lp->wake_wr);
  }
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
  listen_fds_.clear();
  if (!cfg_.uds_path.empty()) ::unlink(cfg_.uds_path.c_str());
}

void RpcServer::wake(std::uint32_t loop) {
  const char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(loops_[loop]->wake_wr, &b, 1);
}

void RpcServer::export_stats(StatsRegistry& stats) const {
  auto set = [&stats](std::string_view name,
                      const std::atomic<std::uint64_t>& v) {
    stats.set(name, static_cast<std::int64_t>(v.load(std::memory_order_relaxed)));
  };
  set("rpc.conns.accepted", accepted_);
  set("rpc.conns.closed", conns_closed_);
  set("rpc.requests", requests_);
  set("rpc.replies", replies_);
  set("rpc.committed", committed_);
  set("rpc.aborted", aborted_);
  set("rpc.busy", busy_);
  set("rpc.not_found", not_found_);
  set("rpc.bad_requests", bad_requests_);
  set("rpc.timeouts", timeouts_);
  set("rpc.corrupt_frames", corrupt_frames_);
  set("rpc.shed_shutdown", shed_shutdown_);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void RpcServer::loop_main(std::uint32_t index) {
  Loop& lp = *loops_[index];
  bool listeners_closed = false;
  std::vector<pollfd> pfds;
  std::vector<ConnPtr> pfd_conn;  // parallel to pfds; null for non-conn fds

  while (true) {
    const bool flushing = shutdown_.load(std::memory_order_acquire);
    adopt_incoming(lp, index);
    if (index == 0 && stopping_.load(std::memory_order_acquire) &&
        !listeners_closed) {
      for (const int fd : listen_fds_) ::close(fd);
      listen_fds_.clear();
      listeners_closed = true;
    }

    // Move worker-encoded replies into loop-owned write buffers.
    for (const ConnPtr& c : lp.conns) drain_outbox(c);

    if (flushing) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({lp.wake_rd, POLLIN, 0});
    pfd_conn.push_back(nullptr);
    if (index == 0 && !listeners_closed) {
      for (const int fd : listen_fds_) {
        pfds.push_back({fd, POLLIN, 0});
        pfd_conn.push_back(nullptr);
      }
    }
    for (const ConnPtr& c : lp.conns) {
      short events = POLLIN;
      if (c->wr.unread() > 0) events |= POLLOUT;
      pfds.push_back({c->fd, events, 0});
      pfd_conn.push_back(c);
    }

    if (::poll(pfds.data(), pfds.size(), kPollMillis) < 0 && errno != EINTR) {
      perror_tag("poll");
      break;
    }

    std::vector<ConnPtr> dead;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      if (pfd_conn[i] == nullptr) {
        if (pfds[i].fd == lp.wake_rd) {
          char buf[256];
          while (::read(lp.wake_rd, buf, sizeof(buf)) > 0) {
          }
        } else {
          accept_ready(pfds[i].fd);
        }
        continue;
      }
      const ConnPtr& c = pfd_conn[i];
      bool ok = true;
      if ((re & (POLLERR | POLLNVAL)) != 0) ok = false;
      if (ok && (re & (POLLIN | POLLHUP)) != 0) ok = read_ready(c);
      if (ok) drain_outbox(c);
      if (ok && c->wr.unread() > 0) ok = write_ready(c);
      if (!ok) dead.push_back(c);
    }
    for (const ConnPtr& c : dead) close_conn(lp, c);

    if (cfg_.request_timeout > Duration::zero()) scan_timeouts(lp);
  }

  // Final flush: bounded effort to land already-encoded replies, then close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  for (const ConnPtr& c : lp.conns) {
    drain_outbox(c);
    while (c->wr.unread() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd p{c->fd, POLLOUT, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      if (!write_ready(c)) break;
    }
  }
  std::vector<ConnPtr> all = lp.conns;
  for (const ConnPtr& c : all) close_conn(lp, c);
}

void RpcServer::adopt_incoming(Loop& lp, std::uint32_t index) {
  (void)index;
  std::vector<ConnPtr> fresh;
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    fresh.swap(lp.incoming);
  }
  for (ConnPtr& c : fresh) lp.conns.push_back(std::move(c));
}

void RpcServer::accept_ready(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
          errno != ECONNABORTED) {
        perror_tag("accept");
      }
      return;
    }
    if (!set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1, std::memory_order_relaxed);

    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->loop = next_loop_.fetch_add(1, std::memory_order_relaxed) %
              static_cast<std::uint32_t>(loops_.size());
    {
      Loop& target = *loops_[c->loop];
      std::lock_guard<std::mutex> lk(target.mu);
      target.incoming.push_back(c);
    }
    wake(c->loop);
  }
}

bool RpcServer::read_ready(const ConnPtr& c) {
  while (true) {
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    c->rd.bytes.insert(c->rd.bytes.end(), buf, buf + n);
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }

  while (true) {
    const Decoded d = decode_frame(c->rd.data(), c->rd.unread());
    if (d.status == DecodeStatus::kNeedMore) break;
    if (d.status != DecodeStatus::kRequest) {
      // Corrupt bytes, or a reply frame sent at a server: both mean the
      // peer lost the plot — a length-prefixed stream can't resync.
      corrupt_frames_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    handle_request(c, d.request);
    c->rd.offset += d.consumed;
  }
  c->rd.compact();
  return true;
}

bool RpcServer::write_ready(const ConnPtr& c) {
  while (c->wr.unread() > 0) {
    const ssize_t n =
        ::send(c->fd, c->wr.data(), c->wr.unread(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    c->wr.offset += static_cast<std::size_t>(n);
  }
  c->wr.compact();
  return true;
}

void RpcServer::drain_outbox(const ConnPtr& c) {
  std::lock_guard<std::mutex> lk(c->mu);
  if (c->outbox.empty()) return;
  c->wr.bytes.insert(c->wr.bytes.end(), c->outbox.begin(), c->outbox.end());
  c->outbox.clear();
}

void RpcServer::close_conn(Loop& lp, const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> lk(c->mu);
    if (c->closed) return;
    c->closed = true;
  }
  ::close(c->fd);
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < lp.conns.size(); ++i) {
    if (lp.conns[i] == c) {
      lp.conns.erase(lp.conns.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  // Entries left in c->pending belong to transactions still running inside
  // an engine; their completions will find the connection closed and drop
  // the reply — the inflight_ bound still drains to zero (the shutdown
  // audit in tests/rt/rt_shutdown_test.cc pins this).
}

void RpcServer::scan_timeouts(Loop& lp) {
  const SimTime now = cluster_.env().now();
  for (const ConnPtr& c : lp.conns) {
    std::lock_guard<std::mutex> lk(c->mu);
    for (auto it = c->pending.begin(); it != c->pending.end();) {
      if (now > it->second) {
        Reply r{it->first, Status::kTimeout, 0};
        WireBuf tmp;
        tmp.bytes.swap(c->outbox);
        encode_reply(tmp, r);
        tmp.bytes.swap(c->outbox);
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        replies_.fetch_add(1, std::memory_order_relaxed);
        it = c->pending.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

void RpcServer::reply_now(const ConnPtr& c, std::uint64_t id, Status st,
                          std::uint64_t inode) {
  // Loop-thread path: the connection's write buffer is loop-owned.
  Reply r{id, st, inode};
  encode_reply(c->wr, r);
}

void RpcServer::handle_request(const ConnPtr& c, const Request& req) {
  if (stopping_.load(std::memory_order_acquire)) {
    shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
    replies_.fetch_add(1, std::memory_order_relaxed);
    reply_now(c, req.id, Status::kShutdown);
    return;
  }
  if (req.op == MsgType::kPing) {
    replies_.fetch_add(1, std::memory_order_relaxed);
    reply_now(c, req.id, Status::kOk);
    return;
  }

  const bool rename = req.op == MsgType::kRename;
  if (req.dir == 0 || req.name.empty() || (rename && req.dir2 == 0) ||
      (rename && req.name2.empty()) ||
      (req.op == MsgType::kCreateSpread && req.width > cluster_.size())) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    replies_.fetch_add(1, std::memory_order_relaxed);
    reply_now(c, req.id, Status::kBadRequest);
    return;
  }

  // Bounded in-flight admission: shed with BUSY instead of queueing.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      static_cast<std::int64_t>(cfg_.max_inflight)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    busy_.fetch_add(1, std::memory_order_relaxed);
    replies_.fetch_add(1, std::memory_order_relaxed);
    reply_now(c, req.id, Status::kBusy);
    return;
  }

  {
    std::lock_guard<std::mutex> lk(c->mu);
    const SimTime deadline = cfg_.request_timeout > Duration::zero()
                                 ? cluster_.env().now() + cfg_.request_timeout
                                 : SimTime::max();
    if (!c->pending.emplace(req.id, deadline).second) {
      // Duplicate request id on one connection: client bug.
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      replies_.fetch_add(1, std::memory_order_relaxed);
      reply_now(c, req.id, Status::kBadRequest);
      return;
    }
  }

  const std::uint32_t worker = part_.home_of(ObjectId(req.dir)).value();
  cluster_.env().post(
      worker, [this, c, op = req.op, dir = req.dir, dir2 = req.dir2,
               name = std::string(req.name), name2 = std::string(req.name2),
               id = req.id, width = req.width]() mutable {
        submit_on_worker(c, op, dir, dir2, std::move(name), std::move(name2),
                         id, width);
      });
}

std::uint64_t RpcServer::mint_inode(std::uint32_t w,
                                    std::uint64_t unit) const {
  const std::uint64_t n = cluster_.size();
  return part_.inode_base() + ((unit / n) * n + w) * n + unit % n;
}

void RpcServer::submit_on_worker(const ConnPtr& c, MsgType op,
                                 std::uint64_t dir, std::uint64_t dir2,
                                 std::string name, std::string name2,
                                 std::uint64_t id, std::uint8_t width) {
  const NodeId self = part_.home_of(ObjectId(dir));
  MdsNode& node = cluster_.node(self);

  Transaction txn;
  std::uint64_t created = 0;
  switch (op) {
    case MsgType::kCreate:
    case MsgType::kMkdir: {
      created = mint_inode(self.value(), minted_[self.value()].units++);
      txn = planner_.plan_create(ObjectId(dir), name, ObjectId(created),
                                 /*is_dir=*/op == MsgType::kMkdir);
      break;
    }
    case MsgType::kCreateSpread: {
      // One width-participant transaction: the named file plus width-2
      // siblings on the width-1 nodes following the coordinator on the
      // ring.  A block of cluster_size() consecutive ids covers every ring
      // position exactly once, so each wanted home resolves to one id in
      // the block by arithmetic; the block's unused ids are never minted.
      // The worker takes its next whole block.
      const std::uint32_t n = cluster_.size();
      std::uint64_t& units = minted_[self.value()].units;
      units = (units + n - 1) / n * n;
      const std::uint64_t block = mint_inode(self.value(), units);
      units += n;
      std::vector<std::pair<std::string, ObjectId>> entries;
      std::vector<NodeId> homes;
      entries.reserve(width - 1u);
      homes.reserve(width - 1u);
      for (std::uint8_t k = 1; k < width; ++k) {
        const NodeId want((self.value() + k) % n);
        // home_of(v) == want  <=>  (v - base) % n == (want + n - 1) % n.
        const std::uint64_t residue = (want.value() + n - 1u) % n;
        const std::uint64_t off = (block - part_.inode_base()) % n;
        const std::uint64_t inode = block + (residue + n - off) % n;
        entries.emplace_back(
            k == 1 ? name : name + ".s" + std::to_string(k - 1),
            ObjectId(inode));
        homes.push_back(want);
        if (k == 1) created = inode;
      }
      txn = planner_.plan_create_spread(ObjectId(dir), entries, homes);
      break;
    }
    case MsgType::kRemove: {
      const auto inode = node.store().mem_lookup(ObjectId(dir), name);
      if (!inode) {
        not_found_.fetch_add(1, std::memory_order_relaxed);
        complete(c, id, Status::kNotFound, 0);
        return;
      }
      txn = planner_.plan_delete(ObjectId(dir), name, *inode);
      break;
    }
    case MsgType::kRename: {
      const auto inode = node.store().mem_lookup(ObjectId(dir), name);
      if (!inode) {
        not_found_.fetch_add(1, std::memory_order_relaxed);
        complete(c, id, Status::kNotFound, 0);
        return;
      }
      // Overwrite detection needs the destination directory's store, which
      // lives on another worker when dir2 is homed elsewhere; only probe it
      // when co-located.  A racing destination entry aborts at validation,
      // which is the honest protocol answer.
      std::optional<ObjectId> overwritten;
      if (part_.home_of(ObjectId(dir2)) == self) {
        overwritten = node.store().mem_lookup(ObjectId(dir2), name2);
      }
      txn = planner_.plan_rename(ObjectId(dir), name, ObjectId(dir2), name2,
                                 *inode, overwritten);
      break;
    }
    default:
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      complete(c, id, Status::kBadRequest, 0);
      return;
  }

  node.engine().submit(
      std::move(txn), [this, c, id, created](TxnId, TxnOutcome outcome) {
        if (outcome == TxnOutcome::kCommitted) {
          committed_.fetch_add(1, std::memory_order_relaxed);
          complete(c, id, Status::kOk, created);
        } else {
          aborted_.fetch_add(1, std::memory_order_relaxed);
          complete(c, id, Status::kAborted, created);
        }
      });
}

void RpcServer::complete(const ConnPtr& c, std::uint64_t id, Status st,
                         std::uint64_t inode) {
  bool deliver = false;
  {
    std::lock_guard<std::mutex> lk(c->mu);
    const auto it = c->pending.find(id);
    if (it != c->pending.end()) {
      c->pending.erase(it);
      if (!c->closed) {
        // Encode straight into the outbox (swap trick reuses WireBuf's
        // encoder without copying the bytes twice).
        Reply r{id, st, inode};
        WireBuf tmp;
        tmp.bytes.swap(c->outbox);
        encode_reply(tmp, r);
        tmp.bytes.swap(c->outbox);
        replies_.fetch_add(1, std::memory_order_relaxed);
        deliver = true;
      }
    }
    // else: timed out (already answered) or connection raced away.
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  if (deliver) wake(c->loop);
}

}  // namespace opc::rpc
