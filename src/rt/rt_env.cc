#include "rt/rt_env.h"

#include <sys/prctl.h>

#include <algorithm>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace opc {

namespace {
// A timed wait sleeps in the futex only until this long before its
// deadline, then spins out the rest.  Even at 1 ns timer slack a futex
// wake-up lands ~7-14 us late (median `timer_late_p50_ns` of the
// paper-config `opc rtstorm` on a 4-vCPU KVM guest), which would stretch
// every modeled 1-4 us step taken under a directory lock several-fold.
// Windows of 5, 10, 20 and 30 us gave the same `serve_churn` gain; 20 us
// also covers that median wake-up (5 us does not), and took the rtstorm
// late p50 to ~0.15 us for ~0.2 s more CPU over its 12 s run.  A spin
// never runs on an empty wheel, only toward the deadline at the front of
// the heap, so it is bounded by this window.
constexpr auto kSpinWindow = std::chrono::microseconds(20);

// Tells the core that this is a busy-wait loop (eases the sibling
// hyperthread and the memory-order machinery).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Which worker the calling thread is, for scheduling affinity.  One RtEnv
// per process is the expected shape; with several, a thread belongs to at
// most one of them, so a plain index is still unambiguous enough for the
// affinity default (cross-env calls land on worker 0, which is safe).
thread_local std::uint32_t tl_worker = 0xFFFFFFFF;
}  // namespace

RtEnv::RtEnv(std::uint32_t n_workers, std::uint64_t seed)
    : start_(std::chrono::steady_clock::now()) {
  SIM_CHECK_MSG(n_workers >= 1 && n_workers <= 255,
                "RtEnv supports 1..255 workers");
  workers_.reserve(n_workers);
  for (std::uint32_t i = 0; i < n_workers; ++i) {
    // Distinct per-worker stream on the shared seed; the constant matches
    // SimEnv's stream tag so sim-vs-rt code paths draw from the same family.
    workers_.push_back(std::make_unique<Worker>(seed, 0xE4411u + i));
  }
  for (std::uint32_t i = 0; i < n_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

RtEnv::~RtEnv() { stop(); }

void RtEnv::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->mu);
      w->stopping = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

SimTime RtEnv::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return SimTime::from_nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

std::uint32_t RtEnv::current_worker() const {
  const std::uint32_t w = tl_worker;
  return w < workers_.size() ? w : kNoWorker;
}

TimerHandle RtEnv::schedule_at(SimTime when, Callback cb) {
  const std::uint32_t w = current_worker();
  return arm(w == kNoWorker ? 0 : w, when, std::move(cb));
}

TimerHandle RtEnv::schedule_on(std::uint32_t worker, SimTime when,
                               Callback cb) {
  SIM_CHECK_MSG(worker < workers_.size(), "schedule_on: no such worker");
  return arm(worker, when, std::move(cb));
}

TimerHandle RtEnv::arm(std::uint32_t index, SimTime when, Callback cb) {
  Worker& w = *workers_[index];
  pending_.fetch_add(1, std::memory_order_seq_cst);
  std::uint32_t slot_idx;
  std::uint32_t gen;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    if (w.free_head != kNilSlot) {
      slot_idx = w.free_head;
      w.free_head = w.slots[slot_idx].next_free;
    } else {
      slot_idx = static_cast<std::uint32_t>(w.slots.size());
      SIM_CHECK_MSG(slot_idx < kSlotMask, "worker timer slot space exhausted");
      w.slots.emplace_back();
    }
    Slot& s = w.slots[slot_idx];
    s.cb = std::move(cb);
    s.armed = true;
    if (s.gen == 0) s.gen = 1;  // skip the reserved "never armed" value
    gen = s.gen;
    // Only arm() writes next_seq, always under `mu`.
    const std::uint64_t seq = w.next_seq.load(std::memory_order_relaxed);
    w.next_seq.store(seq + 1, std::memory_order_relaxed);
    w.heap.push_back(Entry{when.count_nanos(), seq, slot_idx, gen});
    std::push_heap(w.heap.begin(), w.heap.end(), EntryLater{});
  }
  w.cv.notify_all();
  return TimerHandle{(index << kSlotBits) | slot_idx, gen};
}

bool RtEnv::cancel(TimerHandle h) {
  if (!h.valid()) return false;
  const std::uint32_t index = h.slot() >> kSlotBits;
  if (index >= workers_.size()) return false;
  Worker& w = *workers_[index];
  const std::uint32_t slot_idx = h.slot() & kSlotMask;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    if (slot_idx >= w.slots.size()) return false;
    Slot& s = w.slots[slot_idx];
    if (!s.armed || s.gen != h.gen()) return false;
    s.cb.reset();
    s.armed = false;
    ++s.gen;
    s.next_free = w.free_head;
    w.free_head = slot_idx;
    // The heap entry stays; the dispatch loop skips it on the gen check.
  }
  pending_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

Rng& RtEnv::rng() {
  const std::uint32_t w = current_worker();
  return workers_[w == kNoWorker ? 0 : w]->rng;
}

void RtEnv::worker_loop(std::uint32_t index) {
  tl_worker = index;
  // Linux lets a normal thread's timed waits overshoot by its timer slack,
  // 50 us by default.  Modeled delays (a 1 us compute step, a few-us log
  // force) are waits on this thread, often with a directory lock held, so
  // the default would stretch each of them to ~55 us.  1 ns is the least
  // the kernel accepts (0 means "reset to the default").
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Worker& w = *workers_[index];
  std::unique_lock<std::mutex> lk(w.mu);
  while (true) {
    if (w.stopping) return;
    if (w.heap.empty()) {
      w.cv.wait(lk);
      continue;
    }
    const Entry e = w.heap.front();
    // Stale entry (cancelled or superseded): drop without running.
    if (e.slot >= w.slots.size() || !w.slots[e.slot].armed ||
        w.slots[e.slot].gen != e.gen) {
      std::pop_heap(w.heap.begin(), w.heap.end(), EntryLater{});
      w.heap.pop_back();
      continue;
    }
    const auto deadline = start_ + std::chrono::nanoseconds(e.when_ns);
    auto now = std::chrono::steady_clock::now();
    if (deadline - now > kSpinWindow) {
      w.cv.wait_until(lk, deadline - kSpinWindow);
      continue;  // re-examine: an earlier timer may have arrived meanwhile
    }
    if (now < deadline) {
      // Spin out the last stretch with `mu` released, so arm() still gets
      // in.  Anything it arms bumps next_seq and ends the spin early; the
      // loop then re-examines the heap as after a futex wake.
      const std::uint64_t seen = w.next_seq.load(std::memory_order_relaxed);
      lk.unlock();
      const auto spin_from = now;
      while (now < deadline &&
             w.next_seq.load(std::memory_order_relaxed) == seen) {
        cpu_relax();
        now = std::chrono::steady_clock::now();
      }
      lk.lock();
      w.spin_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       now - spin_from)
                       .count();
      continue;
    }
    std::pop_heap(w.heap.begin(), w.heap.end(), EntryLater{});
    w.heap.pop_back();
    Slot& s = w.slots[e.slot];
    Callback cb = std::move(s.cb);
    s.cb.reset();
    s.armed = false;
    ++s.gen;
    s.next_free = w.free_head;
    w.free_head = e.slot;
    lk.unlock();
    w.lateness.record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - deadline)
            .count()));
    cb();  // run-to-completion; may schedule on any worker
    // Decrement only after the callback finished so wait_idle()'s zero
    // reading implies "nothing running" — anything the callback scheduled
    // was already counted before this drop.
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    lk.lock();
  }
}

Histogram RtEnv::dispatch_lateness() const {
  Histogram merged;
  for (const auto& w : workers_) merged.merge(w->lateness);
  return merged;
}

std::int64_t RtEnv::spin_nanos() const {
  std::int64_t total = 0;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    total += w->spin_ns;
  }
  return total;
}

void RtEnv::wait_idle() {
  while (pending_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Synchronize with every worker's last dispatch so state written by
  // callbacks is visible to the caller.
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
  }
}

}  // namespace opc
