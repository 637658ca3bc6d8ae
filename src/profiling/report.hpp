// The campaign run report: one post-mortem document that joins the phase
// profile, the campaign/resilience counters, the aggregated metrics
// snapshot, trace accounting, and per-shard timings.
//
// Two renderings:
//   - write_report_json — machine-readable, key-sorted. With
//     include_wall=false it emits only the *deterministic projection*:
//     wall-clock fields, per-phase call counts (scheduling-dependent),
//     gauges (last-merge-wins, so absorb-order-dependent), and any metric
//     named *wall_ms* are dropped; what remains is byte-identical for a
//     fixed seed regardless of --jobs or machine. The golden/determinism
//     tests compare exactly this projection.
//   - render_report_text — the human rendering, via common/table and
//     common/ascii_plot (phase table, latency percentiles + boxplot,
//     slowest-N shards, throughput and fault-storm summary lines).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "profiling/profile.hpp"
#include "telemetry/metrics.hpp"

namespace rh::profiling {

/// Cost accounting for one executed shard. device_cycles and attempts are
/// deterministic for a fixed seed; wall_ms is not.
struct ShardTiming {
  std::uint64_t shard = 0;
  std::uint64_t device_cycles = 0;
  double wall_ms = 0.0;
  unsigned attempts = 1;
  /// The shard's span-tree root (telemetry::span_id(shard, 0, 0)); links
  /// this row to its attempts/phases in the Chrome span export. 0 when the
  /// run predates span tracing.
  std::uint64_t span = 0;
};

/// Exact (sample-level, not bucketed) latency percentiles of a wall-ms set.
struct LatencySummary {
  std::size_t count = 0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double total_ms = 0.0;
};

[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> wall_ms);

/// Command-trace ring accounting carried into the report.
struct TraceStats {
  std::uint64_t recorded = 0;
  std::uint64_t retained = 0;
  std::uint64_t dropped = 0;
};

struct RunReport {
  std::string campaign;  ///< label, e.g. "fig4"
  std::uint64_t seed = 0;
  unsigned jobs = 1;

  std::uint64_t shards_total = 0;
  std::uint64_t shards_done = 0;     ///< executed this run
  std::uint64_t shards_skipped = 0;  ///< restored from the checkpoint journal
  std::uint64_t shards_failed = 0;
  std::uint64_t shards_fatal = 0;
  std::uint64_t shards_retried = 0;
  std::uint64_t records = 0;

  double elapsed_wall_ms = 0.0;  ///< whole-campaign host wall clock
  Profile profile;               ///< merged fleet profile (hosts + workers)
  std::vector<ShardTiming> timings;    ///< executed shards, in shard order
  telemetry::MetricsSnapshot metrics;  ///< aggregated fleet registry
  TraceStats trace;
  /// Span-forest accounting (campaign -> shard -> attempt -> phase spans).
  std::uint64_t spans_total = 0;
  std::uint64_t spans_dropped = 0;  ///< phase spans lost to per-attempt budgets

  /// Total interface commands issued, summed from the cmd.* counters (0
  /// when the run had no telemetry sink attached).
  [[nodiscard]] std::uint64_t commands() const;
  /// Simulated device cycles of *measurement* (shard_run; falls back to
  /// execute for single-host runs). This is the gated throughput numerator:
  /// rig bring-up is simulated PID settle, not silicon time the sweep
  /// bought, so it lives in bringup_device_cycles() instead — counting it
  /// here once inflated device_cycles_per_host_second ~3.5x.
  [[nodiscard]] std::uint64_t device_cycles() const;
  /// Simulated cycles spent bringing rigs to temperature (rig_build;
  /// falls back to thermal for single-host runs). Reported for context,
  /// never part of a throughput axis.
  [[nodiscard]] std::uint64_t bringup_device_cycles() const;
  /// Measurement cycles only (shard_run, falling back to execute): a pure
  /// function of the sweep, invariant across --jobs — the "device_cycles"
  /// the deterministic report projection emits. Bring-up cycles are
  /// excluded because each worker rig settles its own thermal loop.
  [[nodiscard]] std::uint64_t deterministic_device_cycles() const;
  /// commands() per host wall second; 0 when unmeasurable.
  [[nodiscard]] double commands_per_host_second() const;
  /// device_cycles() per host wall second — the "how much silicon time does
  /// one lab second buy" throughput axis the perf gate tracks.
  [[nodiscard]] double device_cycles_per_host_second() const;
  /// Fraction of jobs x elapsed wall spent inside shard measurement.
  [[nodiscard]] double worker_utilization() const;
};

void write_report_json(std::ostream& os, const RunReport& report, bool include_wall = true);
void render_report_text(std::ostream& os, const RunReport& report);

}  // namespace rh::profiling
