// RpcClient timed waits end at their deadline, not at the next whole
// millisecond.  An open-loop generator (opc loadgen) waits for the next
// scheduled arrival with recv_reply(gap); at 3000 ops/s the mean gap is
// 0.33 ms, so a wait rounded up to 1 ms sends most requests late.
//
// The peer is a bare listening AF_UNIX socket that never accepts: connect
// succeeds through the listen backlog and nothing ever answers, so every
// wait below runs to its timeout.  Carries the rt label (TSan in CI).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "rpc/client.h"

namespace opc::rpc {
namespace {

constexpr double kWaitS = 300e-6;
constexpr int kWaits = 50;

/// A listening UDS that never accepts; closed and unlinked on destruction.
class SilentListener {
 public:
  SilentListener()
      : path_("/tmp/opc-silent-" + std::to_string(::getpid()) + ".sock") {
    ::unlink(path_.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    ok_ = fd_ >= 0 &&
          ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(fd_, 4) == 0;
  }
  ~SilentListener() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  SilentListener(const SilentListener&) = delete;
  SilentListener& operator=(const SilentListener&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool ok_ = false;
};

/// Runs `wait` kWaits times; each must time out (false, client not broken)
/// and none may return before kWaitS.  Returns the median wait in seconds.
double median_timed_out_wait(RpcClient& client,
                             const std::function<bool()>& wait) {
  std::vector<double> took;
  for (int i = 0; i < kWaits; ++i) {
    const double t0 = wall_now();
    const bool got = wait();
    const double dt = wall_now() - t0;
    EXPECT_FALSE(got) << "wait " << i << " got a reply from a silent peer";
    EXPECT_FALSE(client.broken()) << client.error();
    EXPECT_GE(dt, kWaitS) << "wait " << i << " returned early";
    took.push_back(dt);
  }
  std::sort(took.begin(), took.end());
  return took[took.size() / 2];
}

TEST(RpcClient, ShortRecvReplyWaitsEndOnTime) {
  SilentListener peer;
  ASSERT_TRUE(peer.ok());
  RpcClient client;
  ASSERT_TRUE(client.connect_uds(peer.path())) << client.error();
  Reply rep;
  const double median = median_timed_out_wait(
      client, [&] { return client.recv_reply(rep, kWaitS); });
  // A wait rounded up to a whole millisecond takes >= 1 ms every time.
  EXPECT_LT(median, 0.9e-3) << "median recv_reply(300 us) took "
                            << median * 1e3 << " ms";
}

TEST(RpcClient, ShortWaitForWaitsEndOnTime) {
  SilentListener peer;
  ASSERT_TRUE(peer.ok());
  RpcClient client;
  ASSERT_TRUE(client.connect_uds(peer.path())) << client.error();
  // call_ping = send_ping + wait_for(that id); the ping sits unanswered in
  // the listener's backlog connection.
  Reply rep;
  const double median = median_timed_out_wait(
      client, [&] { return client.call_ping(rep, kWaitS); });
  EXPECT_LT(median, 0.9e-3) << "median wait_for(300 us) took "
                            << median * 1e3 << " ms";
  EXPECT_EQ(client.outstanding(), static_cast<std::uint64_t>(kWaits));
}

}  // namespace
}  // namespace opc::rpc
