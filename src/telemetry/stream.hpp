// The live metrics time-series: rh-metrics-stream/v1, an fsync'd JSONL file
// written *during* a campaign (alongside the checkpoint journal) so a
// monitor — tools/rh_tail — can watch progress, throughput, and fault rates
// without waiting for the end-of-run report.
//
// Layout (one JSON document per line):
//
//   {"kind":"rh-metrics-stream","version":1,"seed":...,
//    "config_hash":"<16 hex digits>","shards":N,"jobs":J,
//    "cycle_cadence":C,"wall_cadence_ms":W}                  <- header, fsync'd
//   {"sample":"cycles","shard":S,"attempt":A,"seq":Q,
//    "cycle":C,"deltas":{"cmd.act":123,...}}                 <- per-worker,
//                                              device-cycle cadence
//   {"sample":"wall","t_ms":...,"counters":{...},
//    "workers":[{"busy_ms":...,"done":K,"shard":I},...]}     <- campaign
//                                    aggregate, at each shard claim/commit
//   {"sample":"final","t_ms":...,"counters":{...},
//    "shards":{"done":..,"failed":..,"skipped":..,"total":..}}  <- exactly one
//
// Determinism: the cycles series samples each worker sink's *counter
// deltas* at device-cycle boundaries within one shard attempt — cycle
// stamps are relative to the attempt's start, deltas are relative to the
// previous sample — so every field is a pure function of the shard, not of
// scheduling. Sorting the cycles lines by (shard, attempt, seq) therefore
// yields a byte-identical series for any --jobs (the canonicalization rule
// tests/verify_properties_test.cpp pins). Wall samples and the final sample
// carry host time and are not deterministic.
//
// Durability mirrors the journal: header fsync'd up front, every sample
// line flushed+fsync'd (since v2 each line carries the CRC-32 frame from
// resilience/storage.hpp; v1 streams stay readable), and readers tolerate a
// torn trailing line and skip corrupt mid-file lines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "resilience/storage.hpp"
#include "telemetry/metrics.hpp"

namespace rh::telemetry {

/// Identity + cadence of one stream, written into the header line.
struct MetricsStreamHeader {
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t shards = 0;
  unsigned jobs = 1;
  std::uint64_t cycle_cadence = 0;
  double wall_cadence_ms = 0.0;
};

/// Appends sample lines to the stream file: every rig's cycles sampler and
/// the run's wall samples write through one writer.
///
/// Storage-failure policy: the stream is advisory telemetry, never results
/// — so a failed write (real or injected through `injector`) must not cost
/// the campaign a shard. The constructor still throws (ConfigError for an
/// unopenable path, StorageError if the header cannot land: a stream that
/// never existed is a caller decision), but append() degrades instead: it
/// is a resilience::AdvisoryFile, which goes dark on the first StorageError
/// and reports it through degraded()/storage_error().
class MetricsStreamWriter : public resilience::AdvisoryFile {
public:
  /// Creates (truncating any previous file) and writes an fsync'd header.
  /// `injector` may be null and must outlive the writer.
  MetricsStreamWriter(const std::string& path, const MetricsStreamHeader& header,
                      resilience::StorageFaultInjector* injector = nullptr);
};

/// One worker's status inside a wall sample.
struct StreamWorkerStatus {
  double busy_ms = 0.0;       ///< wall time spent inside shards (incl. in flight)
  std::uint64_t done = 0;     ///< shards this worker completed
  std::int64_t shard = -1;    ///< shard in flight, -1 when idle
};

/// Counter name -> delta/value pairs, sorted by name (map iteration order).
using CounterValues = std::map<std::string, std::uint64_t>;

/// Formats one cycles-cadence sample line (no newline). Zero deltas are
/// omitted so quiet intervals stay small; an empty deltas object is legal.
[[nodiscard]] std::string format_cycles_sample(std::uint64_t shard, std::uint32_t attempt,
                                               std::uint32_t seq, std::uint64_t cycle,
                                               const CounterValues& deltas);

/// Formats one wall sample line, the campaign aggregate (no newline).
[[nodiscard]] std::string format_wall_sample(double t_ms, const CounterValues& counter_deltas,
                                             const std::vector<StreamWorkerStatus>& workers);

/// Formats the closing sample line (no newline); `counters` are absolutes.
[[nodiscard]] std::string format_final_sample(double t_ms, const CounterValues& counters,
                                              std::uint64_t done, std::uint64_t failed,
                                              std::uint64_t skipped, std::uint64_t total);

/// Snapshot of `registry`'s counters as integer values.
[[nodiscard]] CounterValues counter_values(const MetricsRegistry& registry);

/// Per-attempt cycles-cadence sampler: bound to one worker sink's registry
/// and one (shard, attempt), it emits a cycles sample whenever the host
/// clock has advanced `cadence` cycles past the previous sample. The
/// BenderHost calls sample_if_due() after each program (the deterministic
/// sampling sites); the campaign calls finish() when the attempt ends so
/// every attempt's series closes with a final sample.
class MetricsSampler {
public:
  MetricsSampler(MetricsStreamWriter& writer, const MetricsRegistry& registry,
                 std::uint64_t cadence, std::uint64_t shard, std::uint32_t attempt,
                 std::uint64_t base_cycle);

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Emits one sample when `now_cycle` crossed the next cadence boundary.
  void sample_if_due(std::uint64_t now_cycle);
  /// Unconditionally emits the attempt's closing sample.
  void finish(std::uint64_t now_cycle);

  [[nodiscard]] std::uint32_t samples_emitted() const { return seq_; }

private:
  void emit(std::uint64_t rel_cycle);

  MetricsStreamWriter* writer_;
  const MetricsRegistry* registry_;
  std::uint64_t cadence_;
  std::uint64_t shard_;
  std::uint32_t attempt_;
  std::uint64_t base_;
  std::uint64_t next_due_;  ///< relative cycle of the next sample
  std::uint32_t seq_ = 0;
  CounterValues last_;  ///< counter values at the previous sample
};

}  // namespace rh::telemetry
