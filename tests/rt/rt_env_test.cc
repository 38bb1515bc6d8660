// RtEnv executor: ordering, cancellation, cross-worker scheduling,
// quiescence, timer accuracy — the Env contract (docs/RUNTIME.md) on the
// real-time side.
#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <atomic>
#include <vector>

#include "rt/rt_cluster.h"
#include "rt/rt_env.h"
#include "rt/storm_plan.h"

namespace opc {
namespace {

TEST(RtEnvTest, RunsCallbacksInDeadlineOrderOnOneWorker) {
  RtEnv env(1);
  std::vector<int> fired;
  std::atomic<bool> done{false};
  // Schedule from outside the pool (lands on worker 0); reversed deadlines.
  const SimTime base = env.now() + Duration::millis(5);
  env.schedule_on(0, base + Duration::millis(6), [&] {
    fired.push_back(3);
    done.store(true);
  });
  env.schedule_on(0, base + Duration::millis(4), [&] { fired.push_back(2); });
  env.schedule_on(0, base, [&] { fired.push_back(1); });
  while (!done.load()) {
  }
  env.wait_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(RtEnvTest, EqualDeadlinesFireInScheduleOrder) {
  RtEnv env(1);
  std::vector<int> fired;
  const SimTime when = env.now() + Duration::millis(5);
  for (int i = 0; i < 8; ++i) {
    env.schedule_on(0, when, [&fired, i] { fired.push_back(i); });
  }
  env.wait_idle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RtEnvTest, CancelPreventsExecutionAndIsIdempotent) {
  RtEnv env(1);
  std::atomic<int> ran{0};
  TimerHandle h =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  EXPECT_TRUE(h.valid());
  EXPECT_TRUE(env.cancel(h));
  EXPECT_FALSE(env.cancel(h)) << "second cancel is a no-op";
  env.wait_idle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(env.cancel(TimerHandle{})) << "default handle never cancels";
}

TEST(RtEnvTest, CancelAfterFireReturnsFalse) {
  RtEnv env(1);
  std::atomic<bool> ran{false};
  TimerHandle h = env.schedule_on(0, env.now(), [&] { ran.store(true); });
  env.wait_idle();
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(env.cancel(h));
}

TEST(RtEnvTest, SlotReuseInvalidatesStaleHandles) {
  RtEnv env(1);
  std::atomic<int> ran{0};
  TimerHandle a =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  ASSERT_TRUE(env.cancel(a));
  // The freed slot is reused; the old handle's generation is stale.
  TimerHandle b =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  EXPECT_FALSE(env.cancel(a)) << "stale handle must not cancel the new timer";
  EXPECT_TRUE(env.cancel(b));
  env.wait_idle();
  EXPECT_EQ(ran.load(), 0);
}

TEST(RtEnvTest, WorkerAffinityAndCrossWorkerPost) {
  RtEnv env(3);
  std::atomic<std::uint32_t> seen_a{RtEnv::kNoWorker};
  std::atomic<std::uint32_t> seen_b{RtEnv::kNoWorker};
  std::atomic<bool> done{false};
  EXPECT_EQ(env.current_worker(), RtEnv::kNoWorker);
  env.post(1, [&] {
    seen_a.store(env.current_worker());
    // schedule_after from a worker stays on that worker.
    env.schedule_after(Duration::millis(1), [&] {
      seen_b.store(env.current_worker());
      env.post(2, [&] { done.store(true); });
    });
  });
  while (!done.load()) {
  }
  env.wait_idle();
  EXPECT_EQ(seen_a.load(), 1u);
  EXPECT_EQ(seen_b.load(), 1u);
}

TEST(RtEnvTest, NowAdvancesMonotonically) {
  RtEnv env(1);
  const SimTime a = env.now();
  const SimTime b = env.now();
  EXPECT_LE(a, b);
  EXPECT_GE(a, SimTime::zero());
}

TEST(RtEnvTest, PerWorkerRngStreamsDiffer) {
  RtEnv env(2, /*seed=*/7);
  std::atomic<std::uint64_t> d0{0};
  std::atomic<std::uint64_t> d1{0};
  env.post(0, [&] { d0.store(env.rng().uniform_u64(0, UINT64_MAX - 1)); });
  env.post(1, [&] { d1.store(env.rng().uniform_u64(0, UINT64_MAX - 1)); });
  env.wait_idle();
  EXPECT_NE(d0.load(), d1.load());
}

TEST(RtEnvTest, ManyCrossWorkerHopsStayBalanced) {
  // A token bounces across workers; every hop runs exactly once.
  RtEnv env(4);
  std::atomic<int> hops{0};
  constexpr int kHops = 400;
  // Self-referential hop closure via a function pointer shape kept simple:
  struct Bouncer {
    RtEnv* env;
    std::atomic<int>* hops;
    void hop(int remaining) {
      if (remaining == 0) return;
      const std::uint32_t next =
          static_cast<std::uint32_t>(remaining % env->workers());
      env->post(next, [this, remaining] {
        hops->fetch_add(1);
        hop(remaining - 1);
      });
    }
  };
  Bouncer b{&env, &hops};
  b.hop(kHops);
  env.wait_idle();
  EXPECT_EQ(hops.load(), kHops);
}

TEST(RtEnvTest, WorkersRunAtOneNanosecondTimerSlack) {
  const int before = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  constexpr std::uint32_t kWorkers = 3;
  RtEnv env(kWorkers);
  std::vector<std::atomic<int>> slack(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    env.post(w, [&slack, w] {
      slack[w].store(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
    });
  }
  env.wait_idle();
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(slack[w].load(), 1) << "worker " << w;
  }
  // The setting is per worker thread: the thread that built the env keeps
  // the slack it inherited (50 us on a default Linux process).
  EXPECT_EQ(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), before);
}

TEST(RtEnvTest, DispatchLatenessCountsRunCallbacksOnly) {
  RtEnv env(2);
  constexpr int kScheduled = 40;
  constexpr int kCancelled = 10;
  std::atomic<int> ran{0};
  std::vector<TimerHandle> far;
  for (int i = 0; i < kScheduled; ++i) {
    const std::uint32_t w = static_cast<std::uint32_t>(i % 2);
    if (i < kCancelled) {
      far.push_back(env.schedule_on(w, env.now() + Duration::seconds(3600),
                                    [&] { ++ran; }));
    } else if (i % 3 == 0) {
      env.post(w, [&] { ++ran; });
    } else {
      env.schedule_on(w, env.now() + Duration::micros(i * 10), [&] { ++ran; });
    }
  }
  for (const TimerHandle h : far) ASSERT_TRUE(env.cancel(h));
  env.wait_idle();
  EXPECT_EQ(ran.load(), kScheduled - kCancelled);
  const Histogram late = env.dispatch_lateness();
  EXPECT_EQ(late.count(),
            static_cast<std::uint64_t>(kScheduled - kCancelled));
  EXPECT_GE(late.min(), 0.0) << "a callback never runs before its deadline";
}

TEST(RtEnvTest, RunStormExportsTimerLateness) {
  RtClusterConfig cfg;
  cfg.disk.bytes_per_second = 4.0 * 1024.0 * 1024.0;
  RtCluster cluster(cfg);
  const StormPlan plan = make_storm_plan(cfg.n_nodes, 20);
  const RtCluster::StormResult res = cluster.run_storm(plan, 4);
  ASSERT_EQ(res.committed, 40u);
  // Every commit ran at least its completion callback on a worker.
  EXPECT_GE(res.stats.get("rt.timer.fired"),
            static_cast<std::int64_t>(res.committed));
  EXPECT_LE(res.stats.get("rt.timer.late_p50_ns"),
            res.stats.get("rt.timer.late_p99_ns"));
}

// run_storm's max_wall stop: at the deadline the loops stop issuing, work
// already in flight drains, and the call returns with part of the plan
// committed, nothing aborted and a consistent namespace.
TEST(RtEnvTest, RunStormStopsAtMaxWall) {
  RtClusterConfig cfg;
  // The paper's 400 KB/s log device: ~20 ms per 8 KiB force, so the plan
  // below would take minutes to drain.
  cfg.disk.bytes_per_second = 400.0 * 1024.0;
  RtCluster cluster(cfg);
  constexpr std::uint32_t kOpsPerNode = 5000;
  const StormPlan plan = make_storm_plan(cfg.n_nodes, kOpsPerNode);
  const RtCluster::StormResult res =
      cluster.run_storm(plan, 4, Duration::millis(200));
  EXPECT_GT(res.committed, 0u);
  EXPECT_LT(res.committed, std::uint64_t{cfg.n_nodes} * kOpsPerNode);
  EXPECT_EQ(res.aborted, 0u);
  EXPECT_GE(res.wall_seconds, 0.2) << "in-flight work drains after the stop";
  EXPECT_TRUE(cluster.check_invariants(plan.dirs).empty());
}

}  // namespace
}  // namespace opc
