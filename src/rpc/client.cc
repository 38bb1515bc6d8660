#include "rpc/client.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <thread>

namespace opc::rpc {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// A positive wait in seconds as a timespec, to the nanosecond.
timespec to_timespec(double seconds) {
  const double whole = std::floor(seconds);
  return {static_cast<std::time_t>(whole),
          static_cast<long>((seconds - whole) * 1e9)};
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

void RpcClient::fail(const std::string& why) {
  if (error_.empty()) error_ = why;
}

bool RpcClient::connect_uds(const std::string& path, double deadline_wall) {
  const double deadline = wall_now() + deadline_wall;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    fail("uds path too long");
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  // Retry until the deadline: the server may still be binding, and a
  // listen backlog overflow on UDS shows up as ECONNREFUSED/EAGAIN too.
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      fail(std::string("socket: ") + std::strerror(errno));
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      if (!set_nonblocking(fd_)) {
        fail("fcntl(O_NONBLOCK)");
        close();
        return false;
      }
      return true;
    }
    const int err = errno;
    ::close(fd);
    if (wall_now() >= deadline) {
      fail(std::string("connect(uds): ") + std::strerror(err));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool RpcClient::connect_tcp(std::uint16_t port, double deadline_wall) {
  const double deadline = wall_now() + deadline_wall;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      fail(std::string("socket: ") + std::strerror(errno));
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!set_nonblocking(fd_)) {
        fail("fcntl(O_NONBLOCK)");
        close();
        return false;
      }
      return true;
    }
    const int err = errno;
    ::close(fd);
    if (wall_now() >= deadline) {
      fail(std::string("connect(tcp): ") + std::strerror(err));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void RpcClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t RpcClient::send_ping() {
  const std::uint64_t id = next_id_++;
  encode_ping(wr_, id);
  return id;
}

std::uint64_t RpcClient::send_create(std::uint64_t dir, std::string_view name,
                                     bool is_dir) {
  const std::uint64_t id = next_id_++;
  encode_create(wr_, id, dir, name, is_dir);
  return id;
}

std::uint64_t RpcClient::send_create_spread(std::uint64_t dir,
                                            std::string_view name,
                                            std::uint8_t width) {
  const std::uint64_t id = next_id_++;
  encode_create_spread(wr_, id, dir, name, width);
  return id;
}

std::uint64_t RpcClient::send_remove(std::uint64_t dir,
                                     std::string_view name) {
  const std::uint64_t id = next_id_++;
  encode_remove(wr_, id, dir, name);
  return id;
}

std::uint64_t RpcClient::send_rename(std::uint64_t src_dir,
                                     std::string_view src_name,
                                     std::uint64_t dst_dir,
                                     std::string_view dst_name) {
  const std::uint64_t id = next_id_++;
  encode_rename(wr_, id, src_dir, src_name, dst_dir, dst_name);
  return id;
}

/// Single socket pump: pushes pending writes, pulls and decodes inbound
/// bytes.  With `want_reply`, returns once `ready_` is non-empty; without,
/// returns once the write buffer drained.  False on timeout/error.
bool RpcClient::pump(bool want_reply, double timeout_s) {
  if (broken()) return false;
  if (fd_ < 0) {
    fail("not connected");
    return false;
  }
  const double deadline = wall_now() + timeout_s;

  while (true) {
    // Write what we can.
    while (wr_.unread() > 0) {
      const ssize_t n = ::send(fd_, wr_.data(), wr_.unread(), MSG_NOSIGNAL);
      if (n > 0) {
        wr_.offset += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail(std::string("send: ") + std::strerror(errno));
      return false;
    }
    wr_.compact();

    // Read and decode what arrived.  EOF is judged only after decoding:
    // replies that landed in the same batch as the close still count.
    bool saw_eof = false;
    while (true) {
      std::uint8_t buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        rd_.bytes.insert(rd_.bytes.end(), buf, buf + n);
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail(std::string("recv: ") + std::strerror(errno));
      return false;
    }
    while (true) {
      const Decoded d = decode_frame(rd_.data(), rd_.unread());
      if (d.status == DecodeStatus::kNeedMore) break;
      if (d.status != DecodeStatus::kReply) {
        fail("corrupt frame from server");
        return false;
      }
      ready_.push_back(d.reply);
      ++received_;
      rd_.offset += d.consumed;
    }
    rd_.compact();

    if (want_reply ? !ready_.empty() : wr_.unread() == 0) return true;
    if (saw_eof) {
      if (outstanding() > 0 || wr_.unread() > 0) {
        fail("server closed connection with requests outstanding");
      } else {
        fail("server closed connection");
      }
      return false;
    }
    const double left = deadline - wall_now();
    if (left <= 0) return false;

    // ppoll, not poll: poll takes whole milliseconds, so a 0.3 ms wait
    // would sleep a full 1 ms and every open-loop send would leave late.
    pollfd p{fd_, POLLIN, 0};
    if (wr_.unread() > 0) p.events |= POLLOUT;
    const timespec wait = to_timespec(left);
    const int rc = ::ppoll(&p, 1, &wait, nullptr);
    if (rc < 0 && errno != EINTR) {
      fail(std::string("ppoll: ") + std::strerror(errno));
      return false;
    }
  }
}

bool RpcClient::flush(double timeout_s) { return pump(false, timeout_s); }

bool RpcClient::recv_reply(Reply& out, double timeout_s) {
  if (ready_.empty() && !pump(true, timeout_s)) return false;
  out = ready_.front();
  ready_.pop_front();
  return true;
}

bool RpcClient::wait_for(std::uint64_t id, Reply& out, double timeout_s) {
  const double deadline = wall_now() + timeout_s;
  while (true) {
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (ready_[i].id == id) {
        out = ready_[i];
        ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    const double left = deadline - wall_now();
    if (left <= 0 || !pump(true, left)) return false;
  }
}

bool RpcClient::call_ping(Reply& out, double timeout_s) {
  const std::uint64_t id = send_ping();
  return wait_for(id, out, timeout_s);
}

bool RpcClient::call_create(std::uint64_t dir, std::string_view name,
                            bool is_dir, Reply& out, double timeout_s) {
  const std::uint64_t id = send_create(dir, name, is_dir);
  return wait_for(id, out, timeout_s);
}

}  // namespace opc::rpc
