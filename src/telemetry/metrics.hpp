// The metrics registry: named counters, gauges, and fixed-bucket histograms
// with a snapshot/export path, built for instrumentation of the simulator's
// hot paths.
//
// Cost model: looking a metric up by name is a map lookup, so hot paths
// resolve their metrics *once* (the Telemetry facade caches raw pointers at
// construction) and then pay one increment per event. References returned by
// the registry are stable for the registry's lifetime (node-based storage).
//
// Snapshots are value types decoupled from the live registry: they can be
// exported as JSON or CSV (via common/csv) after the instrumented run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.hpp"

namespace rh::telemetry {

/// Monotonically increasing event count.
class Counter {
public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (refresh pointer, temperature, ...).
class Gauge {
public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

private:
  double value_ = 0.0;
};

/// count/sum plus the distribution quantiles the run-report and JSON export
/// paths print. Quantiles are estimated from the bucket counts (linear
/// interpolation within the covering bucket), so they are exact to bucket
/// resolution, not to sample resolution.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Quantile q in [0, 1] of a fixed-width-bucket histogram over [lo, hi),
/// linearly interpolated within the covering bucket. Returns 0 for an empty
/// histogram; q outside [0, 1] is clamped. Shared by FixedHistogram and the
/// snapshot export path (which only has the bucket vector).
[[nodiscard]] double histogram_quantile(double lo, double hi,
                                        const std::vector<std::uint64_t>& buckets, double q);

/// Fixed-width-bucket histogram over [lo, hi); samples outside the range are
/// clamped into the edge buckets, with the integer counts and bucket
/// introspection the export path needs. The sum
/// accumulates the *observed* values (pre-clamp), so mean = sum/total is
/// faithful even when samples land in the edge buckets.
class FixedHistogram {
public:
  FixedHistogram(double lo, double hi, std::size_t bins);

  void observe(double x);
  /// Adds `other`'s bucket counts and sum. Precondition: identical lo/hi/bins.
  void merge_from(const FixedHistogram& other);
  [[nodiscard]] std::uint64_t total() const;
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return counts_; }
  /// Inclusive-exclusive value range [lower, upper) of bucket `i`.
  [[nodiscard]] double bucket_lower(std::size_t i) const;
  [[nodiscard]] double bucket_upper(std::size_t i) const;
  /// Quantile q in [0, 1], interpolated within the covering bucket (see
  /// histogram_quantile). 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// count/sum/p50/p90/p99 in one call (what the run report prints).
  [[nodiscard]] HistogramSummary summary() const;
  void reset();

private:
  double lo_;
  double hi_;
  double sum_ = 0.0;
  std::vector<std::uint64_t> counts_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr std::string_view to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// One exported metric: counters/gauges carry `value`; histograms carry
/// `value` = total samples plus the bucket vector, range, and sum.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double sum = 0.0;
  std::vector<std::uint64_t> buckets;
};

/// Point-in-time copy of a registry, ordered by metric name.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;

  /// Entry by exact name, or nullptr.
  [[nodiscard]] const SnapshotEntry* find(std::string_view name) const;
  /// Counter/gauge value by name; `def` when absent.
  [[nodiscard]] double value_or(std::string_view name, double def) const;

  /// Emits the snapshot as a JSON object {"counters":{...}, "gauges":{...},
  /// "histograms":{...}}. Metric names are sorted within each group and
  /// every object's keys are emitted in sorted order, so two snapshots of
  /// the same state produce byte-identical documents. Each histogram is
  /// {"bounds":[b0..bn] (the n+1 bucket edges), "buckets":[counts],
  ///  "count":samples, "hi":, "lo":, "p50":, "p90":, "p99":, "sum":}.
  void write_json(std::ostream& os) const;
  /// Emits one CSV row per metric (histograms: one row per bucket) through
  /// the common CSV helper: metric,kind,lo,hi,value.
  void write_csv(common::CsvWriter& csv) const;
};

/// Owns named metrics. Names are hierarchical by convention ("cmd.act",
/// "trr.proprietary_triggers"). Re-requesting a name returns the same
/// instance; a histogram re-request ignores the bounds arguments.
class MetricsRegistry {
public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  FixedHistogram& histogram(const std::string& name, double lo, double hi, std::size_t bins);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Folds another registry into this one: counters add, gauges take the
  /// merged registry's value (last merge wins), histograms add bucket counts
  /// (shape must match). Metrics absent here are created. The aggregation
  /// primitive behind merging per-worker campaign telemetry into one sink.
  void merge_from(const MetricsRegistry& other);
  /// Zeroes every registered metric (registration survives).
  void reset();

private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, FixedHistogram> histograms_;
};

/// Escapes a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

/// JSON number rendering: integral values print as integers, everything
/// else with 17 significant digits (finite values only; NaN/inf become 0).
[[nodiscard]] std::string json_number(double v);

}  // namespace rh::telemetry
