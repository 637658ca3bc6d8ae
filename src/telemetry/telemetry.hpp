// The telemetry facade: one sink object that the whole simulator stack
// (device, pseudo channels, banks, executor) reports into.
//
// Aggregates
//   - a MetricsRegistry (command counters, TRR/flip counters, REF-pointer
//     gauges, flip-size histogram),
//   - a command TraceRing exportable as Chrome trace-event JSON,
//   - domain event streams (TRR triggers, bit-flip materializations), and
//   - a per-bank ACT-count heatmap rendered through common/ascii_plot.
//
// Cost model: instrumented code holds a `Telemetry*` that is null by default.
// Every hook site goes through the RH_TELEM macro, so
//   - with telemetry compiled in but not attached, each site costs exactly
//     one pointer test (the <5 % ACT-hot-loop budget bench/micro_simulator
//     pins), and
//   - with RH_TELEMETRY_DISABLED defined (CMake -DRH_TELEMETRY=OFF), every
//     site compiles out entirely.
// Hot-path hooks index pre-resolved counter pointers; no name lookups occur
// after construction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#if defined(RH_TELEMETRY_DISABLED)
#define RH_TELEM(sink, call) ((void)0)
#else
/// Invokes `sink->call` when `sink` (a Telemetry*) is attached; one branch
/// otherwise. Usage: RH_TELEM(telemetry_, on_command(...));
#define RH_TELEM(sink, call)                       \
  do {                                             \
    if (auto* rh_telem_sink_ = (sink)) {           \
      rh_telem_sink_->call;                        \
    }                                              \
  } while (0)
#endif

namespace rh::telemetry {

class SpanSheet;  // span.hpp — only the chrome export path touches it

struct TelemetryConfig {
  /// Command-trace ring capacity (events retained for export).
  std::size_t trace_capacity = 1 << 16;
  /// Record per-command trace events (counters/heatmaps accrue regardless).
  bool trace_enabled = true;
  /// Heatmap dimensions; defaults mirror the paper stack (8 ch x 2 pc x 16
  /// banks).
  std::uint32_t channels = 8;
  std::uint32_t pseudo_channels = 2;
  std::uint32_t banks = 16;
};

/// One TRR trigger decision (proprietary sampler or documented JEDEC mode).
struct TrrEvent {
  std::uint64_t cycle = 0;
  std::uint32_t logical_row = 0;
  std::uint8_t channel = 0;
  std::uint8_t pseudo_channel = 0;
  std::uint8_t bank = 0;
  bool documented = false;
};

/// One bit-flip materialization: a row settle that flipped bits, with the
/// accumulated disturbance that drove it (the diagnostic for "which
/// aggressor pressure caused this").
struct FlipEvent {
  std::uint64_t cycle = 0;
  std::uint32_t physical_row = 0;
  std::uint32_t rowhammer_bits = 0;
  std::uint32_t retention_bits = 0;
  double disturbance = 0.0;
  std::uint8_t channel = 0;
  std::uint8_t pseudo_channel = 0;
  std::uint8_t bank = 0;
};

class Telemetry {
public:
  explicit Telemetry(TelemetryConfig config = TelemetryConfig{});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // --- hooks (called by instrumented code through RH_TELEM) --------------
  /// One interface command. Bumps the per-command counter, the per-bank ACT
  /// heatmap (for ACT), and the trace ring.
  void on_command(TraceCommand cmd, std::uint64_t cycle, std::uint32_t channel,
                  std::uint32_t pseudo_channel, std::uint32_t bank, std::uint32_t row,
                  std::uint32_t arg = 0);
  /// One HAMMER macro-op batch: `acts` activations land on the ACT counter
  /// and heatmap; the batch itself is one trace event carrying the count.
  void on_hammer(std::uint64_t end_cycle, std::uint32_t channel, std::uint32_t pseudo_channel,
                 std::uint32_t bank, std::uint32_t row, std::uint64_t acts);
  /// A TRR engine spent part of a REF on a victim refresh.
  void on_trr_trigger(std::uint64_t cycle, std::uint32_t channel, std::uint32_t pseudo_channel,
                      std::uint32_t bank, std::uint32_t logical_row, bool documented);
  /// A row settle materialized bit flips.
  void on_bit_flips(std::uint64_t cycle, std::uint32_t channel, std::uint32_t pseudo_channel,
                    std::uint32_t bank, std::uint32_t physical_row, std::uint32_t rowhammer_bits,
                    std::uint32_t retention_bits, double disturbance);
  /// REF advanced a pseudo channel's refresh pointer.
  void on_refresh_pointer(std::uint32_t channel, std::uint32_t pseudo_channel,
                          std::uint32_t pointer);

  // --- introspection -----------------------------------------------------
  [[nodiscard]] MetricsRegistry& metrics() { return registry_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return registry_; }
  [[nodiscard]] const TraceRing& trace() const { return trace_; }
  [[nodiscard]] const std::vector<TrrEvent>& trr_events() const { return trr_events_; }
  [[nodiscard]] const std::vector<FlipEvent>& flip_events() const { return flip_events_; }
  [[nodiscard]] const TelemetryConfig& config() const { return config_; }

  /// ACT count of one bank (heatmap cell).
  [[nodiscard]] std::uint64_t bank_act_count(std::uint32_t channel, std::uint32_t pseudo_channel,
                                             std::uint32_t bank) const;
  /// Flat heatmap, indexed (channel * pcs + pc) * banks + bank.
  [[nodiscard]] const std::vector<std::uint64_t>& bank_act_counts() const { return bank_acts_; }
  /// Sum over all heatmap cells (== total ACTs recorded).
  [[nodiscard]] std::uint64_t total_acts() const;

  /// Trace events dropped by ring overwrite, including every absorbed
  /// sink's drops — what the `telemetry.trace_dropped` counter reports.
  [[nodiscard]] std::uint64_t trace_dropped_total() const {
    return trace_.dropped() + absorbed_dropped_;
  }

  // --- export ------------------------------------------------------------
  /// Registry snapshot (counters/gauges/histograms), plus a synthesized
  /// `telemetry.trace_dropped` counter so truncated Chrome traces surface
  /// in every metrics document instead of failing silently.
  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Full metrics document: registry snapshot + per-bank ACT heatmap +
  /// trace/event-stream accounting, as one JSON object.
  void write_metrics_json(std::ostream& os) const;
  /// The retained command trace as Chrome trace-event JSON. With `spans`
  /// attached, the campaign span tree rides in the same traceEvents array
  /// as async events (its own "campaign spans" process).
  void write_chrome_trace(std::ostream& os, const SpanSheet* spans = nullptr) const;
  /// Per-bank ACT heatmap as an ASCII intensity grid (one row per
  /// channel/pseudo-channel lane, one column per bank).
  void render_act_heatmap(std::ostream& os) const;

  /// Folds another sink's observations into this one: counters/histograms
  /// and the per-bank ACT heatmap add, gauges take the absorbed sink's
  /// values, domain event streams append (up to the configured caps), and
  /// the absorbed trace events push into this ring (oldest overwritten).
  /// Used by the campaign runner to aggregate per-worker sinks after a
  /// parallel sweep; call from one thread only, once the workers are joined.
  /// Precondition: identical heatmap dimensions.
  void absorb(const Telemetry& other);

  /// Clears metrics, trace, events, and the heatmap.
  void reset();

private:
  TelemetryConfig config_;
  MetricsRegistry registry_;
  TraceRing trace_;
  std::uint64_t absorbed_dropped_ = 0;  ///< drops carried in from absorb()
  std::vector<TrrEvent> trr_events_;
  std::vector<FlipEvent> flip_events_;
  std::vector<std::uint64_t> bank_acts_;

  // Pre-resolved hot-path metrics (stable addresses into registry_).
  Counter* cmd_counters_[kTraceCommandCount] = {};
  Counter* trr_proprietary_ = nullptr;
  Counter* trr_documented_ = nullptr;
  Counter* flip_rowhammer_bits_ = nullptr;
  Counter* flip_retention_bits_ = nullptr;
  Counter* flip_events_counter_ = nullptr;
  FixedHistogram* flip_size_hist_ = nullptr;
  std::vector<Gauge*> ref_pointers_;  ///< per (channel, pc)

  [[nodiscard]] std::size_t heat_index(std::uint32_t channel, std::uint32_t pseudo_channel,
                                       std::uint32_t bank) const;
};

}  // namespace rh::telemetry
