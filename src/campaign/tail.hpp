// Live/post-mortem campaign monitoring: the library behind tools/rh_tail.
//
// A running campaign leaves two append-only JSONL files behind: the
// checkpoint journal (journal.hpp — per-shard outcomes) and the metrics
// stream (telemetry/stream.hpp — periodic counter samples and per-worker
// status). Both readers classify lines through resilience::scan_jsonl, the
// classifier rh_fsck shares — a kill can tear at most the trailing line,
// and a monitor must never crash on a file the campaign is mid-append on —
// and this module joins them into one TailStatus: progress/ETA, per-worker
// utilization, shard outcome counts, fault/recovery rates, and a stall
// watchdog.
//
// The stall watchdog reasons from the last wall sample's in-flight shards:
// any shard a worker had claimed but never journaled is *suspect*. In
// follow mode the caller feeds in how long the files have been quiet
// (observed_idle_ms) and the watchdog flags the shard once that exceeds
// stall_ms; post-mortem (observed_idle_ms < 0) on an unfinished stream,
// every suspect shard is flagged — the campaign died or was killed with
// those shards open.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rh::resilience {
struct JsonlScan;
}

namespace rh::campaign {

/// One parsed rh-metrics-stream file (v1 bare lines or v2 CRC-framed).
/// `torn` means the trailing line did not parse (campaign mid-append or
/// killed mid-write); a final line without '\n' that parses is intact. A
/// damaged *mid-file* line (CRC mismatch, unparsable, a known sample kind
/// with a field missing or mistyped, unknown sample kind) is counted in
/// corrupt_lines and skipped — telemetry is advisory, so the monitor keeps
/// going.
struct MetricsStreamData {
  bool has_header = false;
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t shards = 0;
  unsigned jobs = 0;
  std::uint64_t cycle_cadence = 0;
  double wall_cadence_ms = 0.0;

  /// Campaign-aggregate counters: accumulated wall-sample deltas, replaced
  /// by the final sample's absolutes when the stream closed cleanly.
  std::map<std::string, std::uint64_t> counters;
  /// Worker-sink counters summed from every cycles sample's deltas (cmd.*,
  /// flip.*, trr.* — the device-side view the campaign registry never sees).
  std::map<std::string, std::uint64_t> device_counters;
  /// The latest wall sample's per-worker view (busy_ms includes in-flight).
  struct Worker {
    double busy_ms = 0.0;
    std::uint64_t done = 0;
    std::int64_t shard = -1;
  };
  std::vector<Worker> workers;

  double last_t_ms = 0.0;  ///< campaign clock of the newest wall/final sample
  std::uint64_t cycles_samples = 0;
  std::uint64_t wall_samples = 0;
  bool finished = false;  ///< the final sample was seen
  std::uint64_t final_done = 0, final_failed = 0, final_skipped = 0, final_total = 0;
  bool torn = false;
  std::uint64_t corrupt_lines = 0;  ///< damaged mid-file lines skipped
};

/// Loads a metrics stream, tolerating a torn trailing line and skipping
/// (while counting) corrupt mid-file lines. An empty file or a torn lone
/// header reads as a stream with nothing in it yet (`torn` set for the
/// latter). Throws common::ConfigError when the file cannot be opened, or
/// its header is foreign or damaged with lines below it — with no trusted
/// identity line, nothing below it means anything. `scan`, when given,
/// receives the line classification (what rh_fsck reports and repairs).
[[nodiscard]] MetricsStreamData read_metrics_stream(const std::string& path,
                                                    resilience::JsonlScan* scan = nullptr);

struct TailOptions {
  /// Quiet time (no file growth) after which an in-flight shard is declared
  /// stalled in follow mode.
  double stall_ms = 2000.0;
  /// How long the monitored files have been quiet, fed by the follow loop;
  /// < 0 means post-mortem (no live observation — flag all suspects).
  double observed_idle_ms = -1.0;
};

/// A shard a worker had in flight with no journal completion.
struct StalledShard {
  std::uint64_t shard = 0;
  unsigned worker = 0;
};

struct TailWorkerView {
  double busy_ms = 0.0;
  std::uint64_t done = 0;
  std::int64_t shard = -1;    ///< in flight, -1 idle
  double utilization = 0.0;   ///< busy_ms / campaign elapsed
};

/// The joined view render_tail_status() prints.
struct TailStatus {
  std::uint64_t seed = 0;
  unsigned jobs = 0;
  std::uint64_t shards_total = 0;
  std::uint64_t done = 0;     ///< journaled completions (or final sample)
  std::uint64_t failed = 0;
  std::uint64_t skipped = 0;  ///< final sample only (resume restores)
  std::uint64_t records = 0;  ///< journaled row records
  std::uint64_t attempts = 0; ///< journaled attempts (retries included)
  double elapsed_ms = 0.0;    ///< campaign clock at the newest sample
  std::string eta;            ///< "eta 12.3s" / "eta --" / "" when finished
  bool finished = false;
  bool torn = false;          ///< either file had a torn trailing line
  std::uint64_t corrupt_lines = 0;  ///< damaged lines skipped across both files
  std::vector<TailWorkerView> workers;
  std::map<std::string, std::uint64_t> counters;         ///< campaign aggregate
  std::map<std::string, std::uint64_t> device_counters;  ///< summed cycles deltas
  std::vector<StalledShard> stalled;
  bool watchdog_tripped = false;  ///< stalled non-empty AND quiet past stall_ms
};

/// Joins a journal and/or a metrics stream (either path may be empty, not
/// both) into a TailStatus. Missing files throw common::ConfigError — the
/// follow loop catches and retries until the campaign creates them.
[[nodiscard]] TailStatus tail_status(const std::string& journal_path,
                                     const std::string& stream_path,
                                     const TailOptions& opts = TailOptions{});

/// Human rendering: progress/ETA line, "per-worker utilization:" section,
/// shard outcomes, fault/recovery rates, and a "stall watchdog:" section.
/// The two section headers always print (CI greps for them).
void render_tail_status(std::ostream& os, const TailStatus& status);

}  // namespace rh::campaign
