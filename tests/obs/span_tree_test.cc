// Span-tree well-formedness over a real traced storm: every assembled
// span set must pass validate_spans (no orphans, parents precede
// children, child intervals within parents, txn consistency), and the
// Chrome export must be well-formed JSON.
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/assembler.h"
#include "obs/export_chrome.h"

namespace opc {
namespace {

ExperimentResult traced_storm(ProtocolKind proto) {
  ExperimentConfig cfg = paper_fig6_config(proto);
  cfg.run_for = Duration::seconds(1);
  cfg.warmup = Duration::millis(200);
  cfg.trace = true;
  return run_create_storm(cfg);
}

TEST(SpanTree, StormSpansAreWellFormed) {
  for (ProtocolKind proto : kAllProtocols) {
    const ExperimentResult r = traced_storm(proto);
    ASSERT_FALSE(r.trace_events.empty());
    ASSERT_FALSE(r.phases.empty());
    const obs::SpanSet set = obs::assemble_spans(r.trace_events, &r.phases);
    ASSERT_GT(set.size(), 0u) << protocol_name(proto);
    const std::vector<std::string> violations = obs::validate_spans(set);
    EXPECT_TRUE(violations.empty())
        << protocol_name(proto) << ": " << violations.size()
        << " violation(s), first: " << violations.front();
    // One txn root per committed+aborted client operation that traced.
    EXPECT_GT(set.roots().size(), 0u);
  }
}

TEST(SpanTree, PhaseSpansNestInsideTheirTransaction) {
  const ExperimentResult r = traced_storm(ProtocolKind::kOnePC);
  const obs::SpanSet set = obs::assemble_spans(r.trace_events, &r.phases);
  std::size_t phase_spans = 0;
  for (const obs::Span& s : set.spans) {
    if (s.kind != obs::SpanKind::kPhase) continue;
    ++phase_spans;
    ASSERT_NE(s.parent, obs::kNoParent) << "phase span without a parent";
    const obs::Span& root = set.spans[s.parent];
    EXPECT_EQ(root.kind, obs::SpanKind::kTxn);
    EXPECT_EQ(root.txn, s.txn);
  }
  EXPECT_GT(phase_spans, 0u);
}

TEST(SpanTree, WithoutPhaseLogStillWellFormed) {
  const ExperimentResult r = traced_storm(ProtocolKind::kPrN);
  const obs::SpanSet set = obs::assemble_spans(r.trace_events, nullptr);
  EXPECT_TRUE(obs::validate_spans(set).empty());
  for (const obs::Span& s : set.spans) {
    EXPECT_NE(s.kind, obs::SpanKind::kPhase);
  }
}

TEST(SpanTree, ChromeExportIsSaneJson) {
  const ExperimentResult r = traced_storm(ProtocolKind::kPrC);
  const obs::SpanSet set = obs::assemble_spans(r.trace_events, &r.phases);
  const std::string json = obs::export_chrome_trace(set);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SpanTree, AssemblyIsDeterministic) {
  const ExperimentResult a = traced_storm(ProtocolKind::kOnePC);
  const ExperimentResult b = traced_storm(ProtocolKind::kOnePC);
  ASSERT_EQ(a.trace_hash, b.trace_hash);
  const obs::SpanSet sa = obs::assemble_spans(a.trace_events, &a.phases);
  const obs::SpanSet sb = obs::assemble_spans(b.trace_events, &b.phases);
  EXPECT_TRUE(sa.spans == sb.spans);
}

}  // namespace
}  // namespace opc
