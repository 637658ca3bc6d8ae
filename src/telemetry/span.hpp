// The lab's one layer taxonomy, and causal span tracing over it.
//
// Layer names every unit of work once, with its name and group:
//   tree     — campaign / shard / attempt: the span forest's spine;
//   host     — upload / execute / drain / recover / thermal: one
//              BenderHost's program pipeline;
//   campaign — rig_build / shard_run / checkpoint / idle / report: one
//              rig's lifetime in the pool;
//   mark     — fault / recovery: zero-length marks.
// A profiling::Profile keys its stats by the host and campaign layers
// (profiling::Phase is this enum), and profiling::LayerScope times a layer
// into both at once. A finished run carries a forest
//
//   campaign -> shard -> attempt -> host layer -> fault/recovery marks
//
// that attributes cost causally: a slow shard's row in the run report links
// (by span id) to the exact attempts, retries, and recoveries that made it
// slow. `recover` is calls-only and never a span.
//
// Determinism: span ids are pure functions of (shard, attempt, sequence) —
// see span_id() — so the same sweep produces the same tree regardless of
// --jobs or scheduling. Wall-clock begin/end stamps are host time relative
// to the campaign epoch and are *not* deterministic; the cycle stamps are.
//
// Threading model mirrors Profile/MetricsRegistry: each campaign worker
// fills a private SpanSheet through a per-shard TraceContext and the
// campaign merges the sheets (merge_from) under its completion lock.
//
// Export: write_chrome_span_events emits each span as a Chrome trace-event
// async begin/end pair ("b"/"e") on the host wall-clock axis, carrying the
// parent id, shard, attempt, and consumed device cycles in args, so the
// whole tree loads into chrome://tracing / Perfetto next to the command
// slices (which live on the device-time axis).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace rh::telemetry {

/// Every layer, grouped tree, host, campaign, mark (see layer_info); the
/// run report's phase table lists the host and campaign layers in this
/// order.
enum class Layer : std::uint8_t {
  kCampaign = 0,  ///< the whole run (root, exactly one per campaign)
  kShard,         ///< one shard, all attempts included
  kAttempt,       ///< one attempt on a shard (retries open fresh attempts)
  kUpload,        ///< program/wide-register PCIe upload (incl. retries)
  kExecute,       ///< executor running a program (device cycles advance)
  kDrain,         ///< readback FIFO drain + CRC verify (incl. re-drains)
  kRecover,       ///< fault recoveries, calls only: the retry's time stays
                  ///< in the layer it ran in, so nothing double-counts
  kThermal,       ///< thermal settle / temperature guard (cycles advance)
  kRigBuild,      ///< host construction + bring-up to temperature
  kShardRun,      ///< run_shard measurement work (contains the host layers)
  kCheckpoint,    ///< journal append (fsync'd) under the completion lock
  kIdle,          ///< rig attachment time no campaign layer claims
  kReport,        ///< end-of-run report generation (a report key only)
  kFault,         ///< mark: a fault was detected (arg = FaultKind)
  kRecovery,      ///< mark: the fault was healed or aborted (arg = FaultKind)
};

/// Layers are numbered 0 .. kLayerCount - 1; kRecovery is the last.
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kRecovery) + 1;

struct LayerInfo {
  std::string_view name;
  std::string_view group;  ///< "tree", "host", "campaign" or "mark"
};

[[nodiscard]] constexpr LayerInfo layer_info(Layer layer) {
  switch (layer) {
    case Layer::kCampaign: return {"campaign", "tree"};
    case Layer::kShard: return {"shard", "tree"};
    case Layer::kAttempt: return {"attempt", "tree"};
    case Layer::kUpload: return {"upload", "host"};
    case Layer::kExecute: return {"execute", "host"};
    case Layer::kDrain: return {"drain", "host"};
    case Layer::kRecover: return {"recover", "host"};
    case Layer::kThermal: return {"thermal", "host"};
    case Layer::kRigBuild: return {"rig_build", "campaign"};
    case Layer::kShardRun: return {"shard_run", "campaign"};
    case Layer::kCheckpoint: return {"checkpoint", "campaign"};
    case Layer::kIdle: return {"idle", "campaign"};
    case Layer::kReport: return {"report", "campaign"};
    case Layer::kFault: return {"fault", "mark"};
    case Layer::kRecovery: return {"recovery", "mark"};
  }
  return {"?", "?"};
}

[[nodiscard]] constexpr std::string_view to_string(Layer layer) { return layer_info(layer).name; }
[[nodiscard]] constexpr std::string_view group(Layer layer) { return layer_info(layer).group; }

/// The root campaign span's id. Shard-derived ids start at (0+1)<<32, so
/// the root can never collide with them.
inline constexpr std::uint64_t kCampaignSpanId = 1;

/// Deterministic span id: shard in the high bits, attempt (1-based; 0 for
/// the shard span itself) in the middle, per-attempt sequence in the low 24
/// bits. A pure function of the tree position — identical across --jobs.
[[nodiscard]] constexpr std::uint64_t span_id(std::uint64_t shard, std::uint32_t attempt,
                                              std::uint32_t seq) {
  return ((shard + 1) << 32) | (static_cast<std::uint64_t>(attempt & 0xffu) << 24) |
         (seq & 0xffffffu);
}

/// One traced span. `parent` = 0 marks the root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t shard = 0;
  std::uint32_t attempt = 0;  ///< 1-based; 0 for campaign/shard spans
  Layer kind = Layer::kCampaign;
  std::uint32_t arg = 0;  ///< FaultKind for kFault/kRecovery marks
  /// Device-clock stamps. Host layers carry the absolute host clock at
  /// open/close; tree spans carry 0 .. cycles-consumed. Either way
  /// end_cycle - begin_cycle is the cycles the span consumed.
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  /// Host wall clock, milliseconds since the campaign epoch.
  double begin_wall_ms = 0.0;
  double end_wall_ms = 0.0;
  bool open = false;  ///< still open (campaign killed mid-span)
};

/// Host-layer spans retained per attempt before the collector starts
/// dropping (tree spans — shard/attempt — and fault/recovery marks are
/// never dropped). Bounds span memory for huge campaigns the same way
/// TraceRing bounds command events.
inline constexpr std::uint32_t kSpanBudgetPerAttempt = 512;

/// A worker-private span collector. Not thread-safe; the campaign merges
/// sheets under its completion lock, mirroring Profile/Telemetry.
class SpanSheet {
public:
  /// Appends a span and returns its index (stable until merge).
  std::size_t add(const Span& span);
  [[nodiscard]] Span& at(std::size_t index) { return spans_[index]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Host-layer spans dropped by per-attempt budgets (TraceContext reports
  /// its drops here; merge_from accumulates).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void note_dropped(std::uint64_t n = 1) { dropped_ += n; }

  /// Appends every span (and the drop count) of `other`.
  void merge_from(const SpanSheet& other);
  /// Sorts into the canonical presentation order: ascending span id, which
  /// groups by shard, then attempt, then open sequence — and always places
  /// a parent before its children. Call once after the final merge.
  void sort_canonical();

private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Per-shard span builder, used single-threaded by the worker that owns the
/// shard. Open spans nest: open() parents the new span under the innermost
/// open span (or under the shard span, or `parent` before the shard span
/// opens). The BenderHost holds a TraceContext* (null by default) and
/// passes it to the profiling::LayerScope of each host layer, so hosts
/// outside a campaign pay one pointer test per layer.
class TraceContext {
public:
  using Clock = std::chrono::steady_clock;

  /// `epoch` anchors the wall-clock stamps (pass the campaign run start so
  /// every worker's spans share one timeline).
  TraceContext(SpanSheet& sheet, std::uint64_t shard, Clock::time_point epoch,
               std::uint64_t parent = kCampaignSpanId);

  /// Opens a span at `cycle` and wall time `at`; returns its id (0 when the
  /// per-attempt budget is exhausted — close(0) is a no-op, the drop is
  /// accounted).
  std::uint64_t open(Layer kind, std::uint64_t cycle, Clock::time_point at = Clock::now());
  /// Closes the span `id` (innermost-first; out-of-order closes unwind the
  /// stack to the matching span, closing skipped spans at the same cycle).
  void close(std::uint64_t id, std::uint64_t cycle, Clock::time_point at = Clock::now());
  /// Records a zero-length mark (fault/recovery) under the innermost open
  /// span. Marks are never dropped.
  void mark(Layer kind, std::uint64_t cycle, std::uint32_t arg);
  /// Starts attempt `attempt` (1-based): resets the sequence counter and
  /// the per-attempt budget. Call before opening the kAttempt span.
  void set_attempt(std::uint32_t attempt);

private:
  [[nodiscard]] double wall_ms(Clock::time_point at) const;
  [[nodiscard]] std::uint64_t innermost_parent() const;

  SpanSheet* sheet_;
  std::uint64_t shard_;
  std::uint64_t parent_;
  Clock::time_point epoch_;
  std::uint32_t attempt_ = 0;
  std::uint32_t seq_ = 0;
  std::uint32_t budget_ = kSpanBudgetPerAttempt;
  std::vector<std::size_t> stack_;  ///< indices of open spans in sheet_
};

/// Writes the spans as Chrome trace-event async "b"/"e" pairs (marks as
/// instant "n" events) into an already-open traceEvents array; `first`
/// tracks comma state across writers. pid 1000 groups them as a "campaign
/// spans" process, tid = shard, ts/dur on the host wall-clock axis.
void write_chrome_span_events(std::ostream& os, const std::vector<Span>& spans, bool& first);

/// Standalone Chrome trace document containing only the spans.
void write_chrome_spans(std::ostream& os, const SpanSheet& sheet);

}  // namespace rh::telemetry
