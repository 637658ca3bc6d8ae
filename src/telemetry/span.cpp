#include "telemetry/span.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/table.hpp"

namespace rh::telemetry {

namespace {

/// Wall milliseconds -> microsecond timestamp text (Chrome ts unit).
std::string ts_text(double wall_ms) { return common::fmt_double(wall_ms * 1000.0, 3); }

}  // namespace

std::size_t SpanSheet::add(const Span& span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanSheet::merge_from(const SpanSheet& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  dropped_ += other.dropped_;
}

void SpanSheet::sort_canonical() {
  std::stable_sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    if (a.id != b.id) return a.id < b.id;
    // Marks share the enclosing attempt's id space only via seq, so ties
    // (never expected) fall back to open time.
    return a.begin_cycle < b.begin_cycle;
  });
}

TraceContext::TraceContext(SpanSheet& sheet, std::uint64_t shard, Clock::time_point epoch,
                           std::uint64_t parent)
    : sheet_(&sheet), shard_(shard), parent_(parent), epoch_(epoch) {}

double TraceContext::wall_ms(Clock::time_point at) const {
  return std::chrono::duration<double, std::milli>(at - epoch_).count();
}

std::uint64_t TraceContext::innermost_parent() const {
  return stack_.empty() ? parent_ : sheet_->at(stack_.back()).id;
}

std::uint64_t TraceContext::open(Layer kind, std::uint64_t cycle, Clock::time_point at) {
  // Tree spans (shard/attempt) ignore the budget: without them the tree
  // loses its spine and the retained host-layer spans dangle.
  if (group(kind) != "tree") {
    if (budget_ == 0) {
      sheet_->note_dropped();
      return 0;
    }
    --budget_;
  }
  Span span;
  span.id = span_id(shard_, attempt_, seq_++);
  span.parent = innermost_parent();
  span.shard = shard_;
  span.attempt = attempt_;
  span.kind = kind;
  span.begin_cycle = cycle;
  span.end_cycle = cycle;
  span.begin_wall_ms = wall_ms(at);
  span.end_wall_ms = span.begin_wall_ms;
  span.open = true;
  stack_.push_back(sheet_->add(span));
  return span.id;
}

void TraceContext::close(std::uint64_t id, std::uint64_t cycle, Clock::time_point at) {
  if (id == 0) return;  // budget-dropped span
  const double wall = wall_ms(at);
  while (!stack_.empty()) {
    Span& span = sheet_->at(stack_.back());
    stack_.pop_back();
    span.end_cycle = cycle;
    span.end_wall_ms = wall;
    span.open = false;
    if (span.id == id) return;
    // An out-of-order close (exception unwound past inner scopes): the
    // skipped spans close at the same instant rather than staying open.
  }
}

void TraceContext::mark(Layer kind, std::uint64_t cycle, std::uint32_t arg) {
  Span span;
  span.id = span_id(shard_, attempt_, seq_++);
  span.parent = innermost_parent();
  span.shard = shard_;
  span.attempt = attempt_;
  span.kind = kind;
  span.arg = arg;
  span.begin_cycle = cycle;
  span.end_cycle = cycle;
  span.begin_wall_ms = wall_ms(Clock::now());
  span.end_wall_ms = span.begin_wall_ms;
  span.open = false;
  sheet_->add(span);
}

void TraceContext::set_attempt(std::uint32_t attempt) {
  attempt_ = attempt;
  seq_ = 0;
  budget_ = kSpanBudgetPerAttempt;
}

void write_chrome_span_events(std::ostream& os, const std::vector<Span>& spans, bool& first) {
  if (spans.empty()) return;
  // One pseudo-process groups the span tree away from the per-channel
  // command lanes; tid = shard keeps one timeline row per shard.
  constexpr unsigned kSpanPid = 1000;
  if (!first) os << ',';
  first = false;
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSpanPid
     << ",\"args\":{\"name\":\"campaign spans\"}}";
  for (const Span& s : spans) {
    const char* id_fmt = "0x%llx";
    char id_buf[32];
    std::snprintf(id_buf, sizeof id_buf, id_fmt, static_cast<unsigned long long>(s.id));
    char parent_buf[32];
    std::snprintf(parent_buf, sizeof parent_buf, id_fmt,
                  static_cast<unsigned long long>(s.parent));
    const std::uint64_t cycles = s.end_cycle - s.begin_cycle;
    if (group(s.kind) == "mark") {
      os << ",{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\"span\",\"ph\":\"n\",\"id\":\""
         << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
         << ",\"ts\":" << ts_text(s.begin_wall_ms) << ",\"args\":{\"arg\":" << s.arg
         << ",\"attempt\":" << s.attempt << ",\"cycle\":" << s.begin_cycle
         << ",\"parent\":\"" << parent_buf << "\",\"shard\":" << s.shard << "}}";
      continue;
    }
    os << ",{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\"span\",\"ph\":\"b\",\"id\":\""
       << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
       << ",\"ts\":" << ts_text(s.begin_wall_ms) << ",\"args\":{\"attempt\":" << s.attempt
       << ",\"cycles\":" << cycles << ",\"open\":" << (s.open ? "true" : "false")
       << ",\"parent\":\"" << parent_buf << "\",\"shard\":" << s.shard << "}}";
    os << ",{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\"span\",\"ph\":\"e\",\"id\":\""
       << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
       << ",\"ts\":" << ts_text(s.end_wall_ms) << "}";
  }
}

void write_chrome_spans(std::ostream& os, const SpanSheet& sheet) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  write_chrome_span_events(os, sheet.spans(), first);
  os << "]}";
}

}  // namespace rh::telemetry
