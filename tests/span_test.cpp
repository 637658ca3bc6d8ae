// Tests of the causal span layer (telemetry/span.hpp): deterministic span
// ids, TraceContext nesting and unwinding, the per-attempt layer budget,
// cross-sheet merge + canonical ordering, and the Chrome async export.
#include "telemetry/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace rh::telemetry {
namespace {

std::chrono::steady_clock::time_point epoch() { return std::chrono::steady_clock::now(); }

/// Finds the span with `id`; fails the test when absent.
const Span& find_span(const SpanSheet& sheet, std::uint64_t id) {
  for (const Span& s : sheet.spans()) {
    if (s.id == id) return s;
  }
  ADD_FAILURE() << "span 0x" << std::hex << id << " not in sheet";
  static const Span missing{};
  return missing;
}

TEST(SpanIdTest, EncodesTreePositionAndNeverCollidesWithRoot) {
  // shard in the high bits, attempt in the middle byte, sequence low.
  EXPECT_EQ(span_id(0, 0, 0), 1ull << 32);
  EXPECT_EQ(span_id(0, 1, 0), (1ull << 32) | (1ull << 24));
  EXPECT_EQ(span_id(0, 1, 2), (1ull << 32) | (1ull << 24) | 2);
  EXPECT_EQ(span_id(41, 2, 7), (42ull << 32) | (2ull << 24) | 7);
  // The smallest shard-derived id is far above the reserved root id.
  EXPECT_GT(span_id(0, 0, 0), kCampaignSpanId);
}

TEST(TraceContextTest, NestsPhasesUnderAttemptUnderShard) {
  SpanSheet sheet;
  TraceContext ctx(sheet, 3, epoch());
  const std::uint64_t shard = ctx.open(Layer::kShard, 0);
  ctx.set_attempt(1);
  const std::uint64_t attempt = ctx.open(Layer::kAttempt, 0);
  const std::uint64_t upload = ctx.open(Layer::kUpload, 100);
  ctx.close(upload, 250);
  const std::uint64_t execute = ctx.open(Layer::kExecute, 250);
  ctx.mark(Layer::kFault, 300, 2);
  ctx.close(execute, 900);
  ctx.close(attempt, 900);
  ctx.close(shard, 900);

  // Parent chain: campaign -> shard -> attempt -> phase; the mark hangs
  // under the innermost open span (execute).
  EXPECT_EQ(find_span(sheet, shard).parent, kCampaignSpanId);
  EXPECT_EQ(find_span(sheet, attempt).parent, shard);
  EXPECT_EQ(find_span(sheet, upload).parent, attempt);
  EXPECT_EQ(find_span(sheet, execute).parent, attempt);
  const Span* mark = nullptr;
  for (const Span& s : sheet.spans()) {
    if (s.kind == Layer::kFault) mark = &s;
  }
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(mark->parent, execute);
  EXPECT_EQ(mark->arg, 2u);
  EXPECT_EQ(mark->begin_cycle, mark->end_cycle) << "marks are zero-length";

  // Cycle accounting and closed state.
  EXPECT_EQ(find_span(sheet, upload).begin_cycle, 100u);
  EXPECT_EQ(find_span(sheet, upload).end_cycle, 250u);
  for (const Span& s : sheet.spans()) EXPECT_FALSE(s.open) << to_string(s.kind);
  EXPECT_EQ(sheet.dropped(), 0u);
}

TEST(TraceContextTest, IdsAreDeterministicFunctionsOfTreePosition) {
  // Two contexts replaying the same shard produce byte-identical id
  // sequences — the property that makes merged forests --jobs-invariant.
  const auto replay = [](SpanSheet& sheet) {
    TraceContext ctx(sheet, 5, epoch());
    const auto shard = ctx.open(Layer::kShard, 0);
    for (std::uint32_t a = 1; a <= 2; ++a) {
      ctx.set_attempt(a);
      const auto attempt = ctx.open(Layer::kAttempt, 0);
      const auto upload = ctx.open(Layer::kUpload, 10);
      ctx.close(upload, 20);
      ctx.close(attempt, 30);
    }
    ctx.close(shard, 60);
  };
  SpanSheet a;
  SpanSheet b;
  replay(a);
  replay(b);
  ASSERT_EQ(a.spans().size(), b.spans().size());
  for (std::size_t i = 0; i < a.spans().size(); ++i) {
    EXPECT_EQ(a.spans()[i].id, b.spans()[i].id) << "span " << i;
    EXPECT_EQ(a.spans()[i].parent, b.spans()[i].parent) << "span " << i;
  }
  // set_attempt resets the sequence counter: both attempts use seq 0,1.
  EXPECT_EQ(a.spans()[1].id, span_id(5, 1, 0));
  EXPECT_EQ(a.spans()[3].id, span_id(5, 2, 0));
}

TEST(TraceContextTest, OutOfOrderCloseUnwindsSkippedSpans) {
  // An exception that unwinds past an open inner phase: closing the outer
  // attempt must close the skipped execute span too (at the same cycle).
  SpanSheet sheet;
  TraceContext ctx(sheet, 0, epoch());
  const auto shard = ctx.open(Layer::kShard, 0);
  ctx.set_attempt(1);
  const auto attempt = ctx.open(Layer::kAttempt, 0);
  const auto execute = ctx.open(Layer::kExecute, 50);
  ctx.close(attempt, 120);  // execute never closed explicitly
  ctx.close(shard, 120);
  EXPECT_FALSE(find_span(sheet, execute).open);
  EXPECT_EQ(find_span(sheet, execute).end_cycle, 120u);
  EXPECT_FALSE(find_span(sheet, attempt).open);
}

TEST(TraceContextTest, PhaseBudgetDropsOverflowButKeepsStructureAndMarks) {
  SpanSheet sheet;
  TraceContext ctx(sheet, 0, epoch());
  const auto shard = ctx.open(Layer::kShard, 0);
  ctx.set_attempt(1);
  const auto attempt = ctx.open(Layer::kAttempt, 0);
  // The attempt span is structural and must not consume phase budget:
  // exactly kSpanBudgetPerAttempt phases fit.
  for (std::uint32_t i = 0; i < kSpanBudgetPerAttempt; ++i) {
    const auto id = ctx.open(Layer::kExecute, i);
    EXPECT_NE(id, 0u) << "phase " << i << " should be within budget";
    ctx.close(id, i + 1);
  }
  EXPECT_EQ(sheet.dropped(), 0u);
  // Past the budget: opens return 0, close(0) is a no-op, drops accrue.
  const auto dropped_id = ctx.open(Layer::kExecute, 999);
  EXPECT_EQ(dropped_id, 0u);
  ctx.close(dropped_id, 1000);
  ctx.open(Layer::kDrain, 999);
  EXPECT_EQ(sheet.dropped(), 2u);
  // Marks are never dropped, even with the budget exhausted.
  ctx.mark(Layer::kRecovery, 1000, 1);
  EXPECT_EQ(sheet.dropped(), 2u);
  bool saw_mark = false;
  for (const Span& s : sheet.spans()) saw_mark |= s.kind == Layer::kRecovery;
  EXPECT_TRUE(saw_mark);
  // A retry (fresh attempt) refills the budget.
  ctx.close(attempt, 2000);
  ctx.set_attempt(2);
  const auto attempt2 = ctx.open(Layer::kAttempt, 0);
  EXPECT_NE(ctx.open(Layer::kExecute, 0), 0u);
  ctx.close(attempt2, 10);
  ctx.close(shard, 10);
  // Retained count: shard + 2 attempts + budget phases + 1 post-refill
  // phase + the mark.
  EXPECT_EQ(sheet.spans().size(), 3u + kSpanBudgetPerAttempt + 1u + 1u);
}

TEST(SpanSheetTest, MergeAccumulatesSpansAndDropsAndSortsCanonically) {
  // Worker sheets merge in completion order (shard 7 finished first); the
  // canonical sort restores shard order and keeps parents before children.
  SpanSheet merged;
  {
    SpanSheet w0;
    TraceContext ctx(w0, 7, epoch());
    const auto shard = ctx.open(Layer::kShard, 0);
    ctx.set_attempt(1);
    const auto attempt = ctx.open(Layer::kAttempt, 0);
    ctx.close(attempt, 5);
    ctx.close(shard, 5);
    w0.note_dropped(3);
    merged.merge_from(w0);
  }
  {
    SpanSheet w1;
    TraceContext ctx(w1, 2, epoch());
    const auto shard = ctx.open(Layer::kShard, 0);
    ctx.close(shard, 9);
    w1.note_dropped(1);
    merged.merge_from(w1);
  }
  Span root;
  root.id = kCampaignSpanId;
  root.kind = Layer::kCampaign;
  merged.add(root);
  merged.sort_canonical();

  EXPECT_EQ(merged.dropped(), 4u);
  ASSERT_EQ(merged.spans().size(), 4u);
  EXPECT_EQ(merged.spans()[0].id, kCampaignSpanId) << "root sorts first";
  EXPECT_EQ(merged.spans()[1].shard, 2u);
  EXPECT_EQ(merged.spans()[2].shard, 7u);
  EXPECT_EQ(merged.spans()[3].kind, Layer::kAttempt);
  // Ascending ids place every parent before its children.
  for (std::size_t i = 1; i < merged.spans().size(); ++i) {
    EXPECT_GT(merged.spans()[i].id, merged.spans()[i - 1].id);
  }
  const SpanSheet fresh;
  EXPECT_TRUE(fresh.spans().empty());
  EXPECT_EQ(fresh.dropped(), 0u);
}

TEST(SpanExportTest, ChromeSpansCarryTreeAndPairBeginEnd) {
  SpanSheet sheet;
  TraceContext ctx(sheet, 1, epoch());
  const auto shard = ctx.open(Layer::kShard, 0);
  ctx.set_attempt(1);
  const auto attempt = ctx.open(Layer::kAttempt, 0);
  ctx.mark(Layer::kFault, 40, 0);
  ctx.close(attempt, 80);
  ctx.close(shard, 80);

  std::ostringstream os;
  write_chrome_spans(os, sheet);
  const std::string json = os.str();
  // Async begin/end pairs on the span process, one instant mark, and the
  // parent id rendered in hex so Perfetto queries can join the tree.
  EXPECT_NE(json.find("\"campaign spans\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fault\""), std::string::npos);
  char parent_hex[32];
  std::snprintf(parent_hex, sizeof parent_hex, "\"parent\":\"0x%llx\"",
                static_cast<unsigned long long>(shard));
  EXPECT_NE(json.find(parent_hex), std::string::npos)
      << "attempt must reference the shard span: " << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
}

TEST(SpanExportTest, EmptySheetWritesAnEmptyDocument) {
  SpanSheet sheet;
  std::ostringstream os;
  write_chrome_spans(os, sheet);
  EXPECT_EQ(os.str(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
}

}  // namespace
}  // namespace rh::telemetry
