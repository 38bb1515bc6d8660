// Atomic commitment protocol selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace opc {

/// The four protocols the paper evaluates (§II, §III), plus one extension:
///   kPrN   — Two Phase Commit, "Presume Nothing" baseline.
///   kPrC   — Presume Commit optimization (Lampson/Lomet).
///   kEP    — Early Prepare optimization (Stamos/Cristian).
///   kOnePC — the paper's One Phase Commit over shared logs.
///   kPrA   — Presumed Abort (extension; the other Lampson/Lomet
///            optimization): commits cost the same as PrN, but aborts need
///            no log record and no acknowledgement round — absence of
///            information *means* abort.
enum class ProtocolKind : std::uint8_t { kPrN, kPrC, kEP, kOnePC, kPrA };

/// Everything the engine needs to know about a protocol.  The paper's
/// Table I is one choreography — UPDATE round, optional vote round, decision,
/// optional ACK round — and these switches are the only places the
/// protocols differ.  The engine reads protocol behaviour from here and
/// nowhere else (DESIGN.md §4 maps each switch to its Table I cells).
struct ProtocolTraits {
  std::string_view name;
  /// EP: UPDATE_REQ carries the prepare, so the worker forces PREPARED and
  /// answers UPDATED as its vote while the coordinator prepares in
  /// parallel; there is no vote round.
  bool prepare_on_update;
  /// 1PC: the worker commits on update, forcing its updates with COMMITTED
  /// in one block.  The coordinator logs a REDO record with STARTED,
  /// answers the client on UPDATED, resolves an update timeout or a
  /// suspected worker by fencing and reading the worker's log, and sends
  /// the sole worker an ACK that the worker asks for with ACK_REQ.
  bool commit_on_update;
  /// PrC, EP: a missing coordinator log means commit.  COMMIT is not
  /// acknowledged and the worker writes its COMMITTED record lazily.
  bool presume_commit;
  /// PrA: an abort writes no record and sends no acknowledgement.
  bool silent_abort;

  /// PrN, PrC, PrA: a PREPARE_REQ round follows the UPDATE round.
  [[nodiscard]] constexpr bool vote_round() const {
    return !prepare_on_update && !commit_on_update;
  }
  /// PrN, PrA: the coordinator waits for the workers' ACKs of COMMIT
  /// before it answers the client and ends the transaction.
  [[nodiscard]] constexpr bool commit_needs_acks() const {
    return !presume_commit && !commit_on_update;
  }
};

/// One row per ProtocolKind, in enum order.
inline constexpr ProtocolTraits kProtocolTraits[] = {
    //  name   prepare_on_update commit_on_update presume_commit silent_abort
    {"PrN", false, false, false, false},
    {"PrC", false, false, true, false},
    {"EP", true, false, true, false},
    {"1PC", false, true, false, false},
    {"PrA", false, false, false, true},
};

static_assert(std::size(kProtocolTraits) == 5 &&
                  kProtocolTraits[static_cast<std::size_t>(
                                      ProtocolKind::kPrA)].name == "PrA",
              "kProtocolTraits rows follow ProtocolKind order");

[[nodiscard]] constexpr const ProtocolTraits& traits(ProtocolKind p) {
  return kProtocolTraits[static_cast<std::size_t>(p)];
}

[[nodiscard]] constexpr std::string_view protocol_name(ProtocolKind p) {
  return traits(p).name;
}

/// The paper's four (benches reproducing paper artifacts iterate these).
inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kPrN, ProtocolKind::kPrC, ProtocolKind::kEP,
    ProtocolKind::kOnePC};

/// Paper's four plus extensions (test sweeps iterate these).
inline constexpr ProtocolKind kAllProtocolsExt[] = {
    ProtocolKind::kPrN, ProtocolKind::kPrC, ProtocolKind::kEP,
    ProtocolKind::kOnePC, ProtocolKind::kPrA};

/// Hybrid protocol selection (DESIGN.md §14): 1PC is sound only for
/// transactions with exactly one worker.  Each 1PC worker's forced
/// update+COMMITTED block is an independent unilateral commit point; with
/// two or more workers one can commit while another crashes pre-commit, and
/// no single fence-and-read resolves the split — the shared-log rule holds
/// only when every worker's commit point lands in one log partition, and in
/// this deployment each node owns its own partition.  Anything wider — an
/// N-way CREATE or a RENAME touching up to four MDSs — degrades to
/// presumed-abort 2PC (PrA): absence of log state means abort, so the
/// degraded path needs no abort record and no abort-ACK round, the cheapest
/// member of the 2PC family on the paths a wide transaction adds.
[[nodiscard]] constexpr ProtocolKind choose_protocol(ProtocolKind preferred,
                                                     std::size_t participants) {
  return participants > 2 && traits(preferred).commit_on_update
             ? ProtocolKind::kPrA
             : preferred;
}

}  // namespace opc
