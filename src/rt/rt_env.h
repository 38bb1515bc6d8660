// Real-time Env: the same protocol code, on real threads and a real clock.
//
// RtEnv implements opc::Env over std::chrono::steady_clock with one worker
// thread per node.  Each worker owns a timer wheel (a mutex-guarded
// (when, seq) min-heap with generation-counted slots, the same cancellation
// scheme as the simulator kernel) and executes callbacks strictly one at a
// time, so every component wired to a single node — engine, WAL, lock
// manager, disk model — keeps the simulator's run-to-completion,
// single-threaded execution model without any code change.  A timed wait
// sleeps until shortly before its deadline and spins out the rest, so
// microsecond-scale modeled delays do not pay a futex wake-up.  Cross-node
// concurrency is real: workers run in parallel and interact only through
// the Transport (src/rt/rt_transport.h) and explicit cross-thread
// schedule_on / post calls.
//
// Affinity rule: schedule_at()/schedule_after() called from a worker thread
// lands on that worker's own wheel (thread-local affinity); called from a
// non-worker thread (the driver) it lands on worker 0.  Drivers that need a
// specific target use post()/schedule_on().
//
// What RtEnv does NOT promise (vs SimEnv): no global event order, no
// deterministic tie-breaking across workers, and now() advances whether or
// not anyone is looking.  docs/RUNTIME.md spells out the full contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "env/env.h"
#include "stats/histogram.h"

namespace opc {

class RtEnv final : public Env {
 public:
  /// Spawns `n_workers` threads (one per node).  Workers idle until the
  /// first schedule.  `seed` derives each worker's private rng() stream.
  explicit RtEnv(std::uint32_t n_workers, std::uint64_t seed = 1);

  /// Stops and joins all workers; pending timers are discarded.
  ~RtEnv() override;

  // --- Env ---
  /// Nanoseconds of steady_clock time since this RtEnv was constructed,
  /// presented on the simulated-time axis so timer math is shared.
  [[nodiscard]] SimTime now() const override;
  /// Schedules on the calling worker's wheel (worker 0 from outside).
  TimerHandle schedule_at(SimTime when, Callback cb) override;
  bool cancel(TimerHandle h) override;
  /// The calling worker's private stream (worker 0's from outside).
  [[nodiscard]] Rng& rng() override;

  // --- RtEnv-only surface (drivers and RtTransport) ---
  [[nodiscard]] std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Schedules on a specific worker's wheel from any thread.
  TimerHandle schedule_on(std::uint32_t worker, SimTime when, Callback cb);

  /// Runs `cb` on `worker` as soon as it drains earlier-scheduled work.
  void post(std::uint32_t worker, Callback cb) {
    schedule_on(worker, now(), std::move(cb));
  }

  /// Worker index of the calling thread, or kNoWorker outside the pool.
  static constexpr std::uint32_t kNoWorker = 0xFFFFFFFF;
  [[nodiscard]] std::uint32_t current_worker() const;

  /// Blocks until no timer is pending and no callback is running anywhere —
  /// i.e. the system has gone quiescent.  Only meaningful once the workload
  /// has stopped injecting new root events.
  void wait_idle();

  /// Stops and joins all workers (idempotent; the destructor calls it).
  void stop();

  /// How late each worker ran its callbacks, in ns past their deadline
  /// (`post`s included, cancelled timers excluded), merged over workers.
  /// Each worker records into its own histogram, so read this only once
  /// the env is quiescent (after wait_idle() or stop()).
  [[nodiscard]] Histogram dispatch_lateness() const;

  /// Nanoseconds the workers spent spinning out the last stretch of their
  /// timed waits (docs/RUNTIME.md §4), summed over workers.
  [[nodiscard]] std::int64_t spin_nanos() const;

 private:
  // A worker-slot address packs into TimerHandle::slot(): worker index in
  // the high byte, slot index in the low 24 bits.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFF;

  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;       // live generations are never 0
    std::uint32_t next_free = kNilSlot;
    bool armed = false;
  };

  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq;  // per-worker tie-break, FIFO at equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when_ns != b.when_ns ? a.when_ns > b.when_ns : a.seq > b.seq;
    }
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Slot> slots;
    std::uint32_t free_head = kNilSlot;
    std::vector<Entry> heap;  // min-heap via std::push_heap/EntryLater
    // Bumped by every arm() under `mu`; a worker spinning without `mu`
    // watches it to learn that something new was armed.
    std::atomic<std::uint64_t> next_seq{0};
    bool stopping = false;
    std::int64_t spin_ns = 0;  // guarded by `mu`
    Rng rng;
    Histogram lateness;  // ns past `when_ns`; touched only by the worker
    std::thread thread;

    Worker(std::uint64_t seed, std::uint64_t stream) : rng(seed, stream) {}
  };

  void worker_loop(std::uint32_t index);
  TimerHandle arm(std::uint32_t index, SimTime when, Callback cb);

  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Timers armed or callbacks executing, across all workers.  Zero means
  // quiescent; wait_idle() polls it.
  std::atomic<std::int64_t> pending_{0};
  bool stopped_ = false;
};

}  // namespace opc
