// RpcClient: thin synchronous + pipelined client for the opc wire protocol.
//
// Single-threaded by design — one client per loadgen thread.  Two usage
// styles:
//   * synchronous: `call_create(...)` sends, flushes and waits for that
//     request's reply (convenient for tests and scripted sequences);
//   * pipelined: `send_*()` buffers frames and returns the request id,
//     `flush()` pushes them out, `recv_reply()` hands back replies in
//     server-completion order (NOT send order: requests land on different
//     node workers, so completions interleave).  Callers correlate by id.
//
// All sockets are nonblocking; waits are ppoll()-based and end at their
// deadline to the nanosecond, plus the calling thread's timer slack (the
// caller owns that setting; the client never changes it).  A
// transport error (peer reset, corrupt frame, EOF with outstanding
// requests) marks the client broken — `error()` says why, every later call
// fails fast.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "rpc/wire.h"
#include "sim/time.h"

namespace opc::rpc {

/// Steady-clock seconds: the clock every RpcClient deadline is kept on.
[[nodiscard]] double wall_now();

class RpcClient {
 public:
  RpcClient() = default;
  ~RpcClient() { close(); }

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Connects, retrying until `deadline_wall` (steady-clock seconds from
  /// now) so a loadgen can race a server that is still binding.
  [[nodiscard]] bool connect_uds(const std::string& path,
                                 double deadline_wall = 5.0);
  [[nodiscard]] bool connect_tcp(std::uint16_t port,
                                 double deadline_wall = 5.0);
  void close();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] bool broken() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  // ---- pipelined interface ----
  // Buffer one request; returns its id (monotonically increasing, starting
  // at 1).  Nothing hits the socket until flush()/recv_reply().
  std::uint64_t send_ping();
  std::uint64_t send_create(std::uint64_t dir, std::string_view name,
                            bool is_dir = false);
  /// One transaction creating `name` plus width-2 siblings, each inode on a
  /// distinct non-coordinator node (width >= 3; see wire.h kCreateSpread).
  std::uint64_t send_create_spread(std::uint64_t dir, std::string_view name,
                                   std::uint8_t width);
  std::uint64_t send_remove(std::uint64_t dir, std::string_view name);
  std::uint64_t send_rename(std::uint64_t src_dir, std::string_view src_name,
                            std::uint64_t dst_dir, std::string_view dst_name);

  /// Writes buffered frames; on a full socket buffer, polls and also drains
  /// inbound replies (never deadlocks against a server blocked on write).
  [[nodiscard]] bool flush(double timeout_s = 5.0);

  /// Next reply in arrival order.  False on timeout or transport error
  /// (check broken() to tell them apart).
  [[nodiscard]] bool recv_reply(Reply& out, double timeout_s = 5.0);

  /// Requests sent (or buffered) whose reply has not been received yet.
  [[nodiscard]] std::uint64_t outstanding() const {
    return next_id_ - 1 - received_;
  }

  // ---- synchronous conveniences (send + flush + wait for *this* id) ----
  [[nodiscard]] bool call_ping(Reply& out, double timeout_s = 5.0);
  [[nodiscard]] bool call_create(std::uint64_t dir, std::string_view name,
                                 bool is_dir, Reply& out,
                                 double timeout_s = 5.0);

 private:
  [[nodiscard]] bool finish_connect(double deadline_wall);
  [[nodiscard]] bool pump(bool want_reply, double timeout_s);
  [[nodiscard]] bool wait_for(std::uint64_t id, Reply& out, double timeout_s);
  void fail(const std::string& why);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::uint64_t received_ = 0;
  WireBuf wr_;
  WireBuf rd_;
  std::deque<Reply> ready_;
  std::string error_;
};

}  // namespace opc::rpc
