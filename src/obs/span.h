// The span model — the unit of the observability contract.
//
// A span is a named, closed time interval attributed to an actor and
// (usually) a transaction, arranged in a forest: one root span per
// transaction, phase spans under the root, and message / log-force /
// lock-wait / point-mark spans under the phase active at their start (or
// the root when no phase covers them).  Spans are *derived* — assembled
// after the run from the TraceEvent stream plus the optional PhaseLog
// (obs/assembler.h) — and never influence the simulation.
//
// Schema notes (docs/OBSERVABILITY.md §2):
//   - ids are dense creation-order indices into SpanSet::spans, which makes
//     serialization deterministic for equal inputs;
//   - parent == kNoParent marks a root;
//   - kMark spans are instants (end == begin);
//   - times are simulated nanoseconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace opc::obs {

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// Span kinds; part of the versioned contract, append only.
enum class SpanKind : std::uint8_t {
  kTxn,       // whole transaction (root)
  kPhase,     // protocol phase (from PhaseLog)
  kMessage,   // network send -> receive (or -> drop)
  kForce,     // log device force write start -> done
  kLockWait,  // lock requested -> granted
  kMark,      // point event (crash, reboot, fence, client reply, ...)
};

[[nodiscard]] constexpr const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kMessage: return "message";
    case SpanKind::kForce: return "force";
    case SpanKind::kLockWait: return "lock_wait";
    case SpanKind::kMark: return "mark";
  }
  return "?";
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kTxn;
  std::string name;    // e.g. "CREATE via 1PC", "coord.lock", "UPDATE_REQ"
  std::string actor;   // e.g. "mds0", "locks.mds1", "log.mds0"
  std::uint64_t txn = 0;  // 0 = not transaction-scoped (global forces)
  SimTime begin{};
  SimTime end{};

  [[nodiscard]] std::int64_t duration_ns() const {
    return end.count_nanos() - begin.count_nanos();
  }
  [[nodiscard]] bool operator==(const Span&) const = default;
};

struct SpanSet {
  std::vector<Span> spans;

  [[nodiscard]] bool empty() const { return spans.empty(); }
  [[nodiscard]] std::size_t size() const { return spans.size(); }

  /// Root (kTxn) span ids in creation order.
  [[nodiscard]] std::vector<std::uint32_t> roots() const;
};

/// Structural well-formedness: every parent id exists and precedes its
/// child (so the forest is acyclic by construction), intervals are
/// non-negative, and every child interval lies within its parent's.
/// Returns human-readable violations; empty means well-formed.
[[nodiscard]] std::vector<std::string> validate_spans(const SpanSet& set);

}  // namespace opc::obs
