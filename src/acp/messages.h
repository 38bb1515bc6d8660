// Protocol messages exchanged between metadata servers.
//
// Message vocabulary across the four protocols (a given protocol uses a
// subset):
//
//   kUpdateReq   coordinator -> worker   carry the worker's operations;
//                                        `proto` selects EP piggybacked
//                                        prepare / 1PC piggybacked commit.
//   kUpdated     worker -> coordinator   updates done; `prepared`/`committed`
//                                        report piggybacked outcomes.
//   kNotUpdated  worker -> coordinator   worker vetoes (validation or lock
//                                        timeout); coordinator aborts.
//   kPrepareReq  coordinator -> worker   2PC voting phase.
//   kPrepared / kNotPrepared              worker's vote.
//   kCommit / kAbort                      the decision.
//   kAck         worker -> coordinator   decision processed.
//   kDecisionReq worker -> coordinator   recovery: what happened to txn?
//   kDecision    coordinator -> worker   recovery: the outcome.
//   kAckReq      worker -> coordinator   1PC recovery: please resend ACK.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "acp/protocol.h"
#include "net/types.h"
#include "txn/types.h"

namespace opc {

enum class MsgType : std::uint8_t {
  kUpdateReq,
  kUpdated,
  kNotUpdated,
  kPrepareReq,
  kPrepared,
  kNotPrepared,
  kCommit,
  kAbort,
  kAck,
  kDecisionReq,
  kDecision,
  kAckReq,
};

[[nodiscard]] std::string_view msg_type_name(MsgType t);

struct Msg {
  MsgType type = MsgType::kUpdateReq;
  TxnId txn = 0;
  NodeId from;
  ProtocolKind proto = ProtocolKind::kPrN;
  std::vector<Operation> ops;  // kUpdateReq / kPrepareReq(resend) payload
  bool prepared = false;        // kUpdated: EP worker already prepared
  bool committed = false;       // kUpdated: 1PC worker already committed
  bool nudge = false;           // retry copy, not the first transmission
  TxnOutcome outcome = TxnOutcome::kPending;  // kDecision
};

/// Approximate wire size for the network cost model.
[[nodiscard]] std::uint64_t msg_wire_size(const Msg& m);

/// Serializes a full transaction (participant list + ops) for REDO / STARTED
/// record payloads; decode is the exact inverse.
void encode_txn(const Transaction& txn, std::vector<std::uint8_t>& out);
[[nodiscard]] bool decode_txn(const std::vector<std::uint8_t>& buf,
                              Transaction& out);

}  // namespace opc
