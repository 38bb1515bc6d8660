// Structured tracing of simulated histories.
//
// Every interesting action in the cluster (message send/receive, forced or
// lazy log write, lock transition, crash, recovery step…) can be recorded
// as a TraceEvent.  Traces serve three purposes:
//
//   1. Debugging — a human-readable interleaved history of a run.
//   2. Reproducing the paper's Figures 2–5 — each figure is a message
//      sequence chart, which we re-derive from the trace of one
//      distributed CREATE (see `opc timeline`, src/core/timeline.cc).
//   3. Determinism checking — a FNV-1a hash over the full trace must be
//      identical across runs with the same seed (tests/sim/*).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace opc {

/// Classifies a trace event; kinds are stable so trace hashes are stable.
enum class TraceKind : std::uint8_t {
  kMessageSend,
  kMessageRecv,
  kMessageDrop,
  kLogForceStart,
  kLogForceDone,
  kLogLazyWrite,
  kLockWait,
  kLockGrant,
  kLockRelease,
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
  kCrash,
  kReboot,
  kRecoveryStep,
  kFence,
  kClientReply,
  kInfo,
};

/// Stable short label for a trace kind ("SEND", "FORCE", ...).
[[nodiscard]] std::string_view trace_kind_name(TraceKind k);

/// One recorded action.
struct TraceEvent {
  SimTime at;
  TraceKind kind = TraceKind::kInfo;
  std::string actor;   // who performed the action ("mds0", "disk.mds1", ...)
  std::string detail;  // free-form, but deterministic for a given history
  std::uint64_t txn = 0;  // transaction id, 0 if not transaction-scoped
};

/// Collects TraceEvents in arrival (== simulated time) order.
///
/// Recording is cheap but not free; large throughput experiments construct
/// the recorder disabled and only the timeline/debug benches enable it.
class TraceRecorder {
 public:
  /// Live observer of events as they are recorded.  The chaos nemesis uses
  /// this to key fault injection off history points ("crash the worker
  /// right after its first forced WAL flush").  Observers fire even when
  /// storage is disabled; they must not re-enter the recorder.
  using Observer = std::function<void(const TraceEvent&)>;

  explicit TraceRecorder(bool enabled = true) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True when record() would do anything.  Hot paths that build event
  /// strings (actor/detail concatenation) check this first so a disabled
  /// recorder costs nothing — throughput runs would otherwise pay a string
  /// allocation per event just to have record() discard it.
  [[nodiscard]] bool active() const { return enabled_ || observer_ != nullptr; }

  /// Installs (or with nullptr, removes) the single live observer.
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  void record(SimTime at, TraceKind kind, std::string actor,
              std::string detail, std::uint64_t txn = 0) {
    if (!enabled_ && !observer_) return;
    TraceEvent ev{at, kind, std::move(actor), std::move(detail), txn};
    if (observer_) observer_(ev);
    if (enabled_) events_.push_back(std::move(ev));
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// FNV-1a hash of the entire trace; equal seeds must yield equal hashes.
  [[nodiscard]] std::uint64_t history_hash() const;

  /// Events for one transaction, in order.
  [[nodiscard]] std::vector<TraceEvent> for_txn(std::uint64_t txn) const;

  /// Renders the trace as aligned text lines ("[  12.300ms] SEND  mds0  ...").
  [[nodiscard]] std::string render() const;

 private:
  std::vector<TraceEvent> events_;
  Observer observer_;
  bool enabled_;
};

}  // namespace opc
