// The service observability plane: the server-level metrics registry, the
// per-request access log, and the flight recorder.
//
// PRs 1–6 made *campaigns* observable (counters, spans, metrics streams);
// this module does the same for the daemon that schedules them. Three
// pieces, all owned by serve::Server and fed from the rig pool too:
//
//   ServiceMetrics — an internally-locked MetricsRegistry holding the
//     serve.* catalogue (HTTP latency, queue wait, steal wait, shard
//     execution, cache lookups — all FixedHistograms — plus HTTP status
//     counters). Registered up front so GET /metricsz exposes every series
//     from the first scrape, traffic or not.
//
//   AccessLog — one JSONL line per HTTP request (method, path, status,
//     tenant, bytes, wall-µs, outcome), written with the CRC-32 v2 line
//     framing, so the tail is torn-safe and rot is detectable. Like the
//     metrics stream it is a resilience::AdvisoryFile: logs are advisory,
//     so the first StorageError sends the log dark instead of unwinding
//     into the accept loop.
//
//   FlightRecorder — a fixed-size in-memory ring of recent service events
//     (admissions, rejections, steals, retries, storage errors, cancels,
//     finalizes, recoveries, fatals). The post-mortem "black box": dumped
//     to <data-dir>/flightrec-<ts>.jsonl on SIGQUIT and on fatal errors,
//     and served on demand at GET /debugz/flightrec.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/storage.hpp"
#include "telemetry/metrics.hpp"

namespace rh::serve {

/// The server-level metrics registry, internally locked (HTTP threads, rig
/// threads, and the /metricsz renderer all touch it). The serve.* catalogue
/// is registered at construction so snapshots are shape-stable from the
/// first scrape; observing an unregistered histogram name is a programming
/// error (it would silently get 1-bin bounds) and asserts in debug.
class ServiceMetrics {
public:
  ServiceMetrics();

  void add(const std::string& name, std::uint64_t n = 1);
  /// Observes into a histogram registered by the constructor.
  void observe(const std::string& name, double value);
  [[nodiscard]] telemetry::MetricsSnapshot snapshot() const;

private:
  mutable std::mutex mutex_;
  telemetry::MetricsRegistry registry_;
};

/// One access-log line's worth of request accounting.
struct AccessRecord {
  std::string method;   ///< "-" when the request never parsed
  std::string path;     ///< origin-form target (query included), "-" unparsed
  std::string tenant;   ///< X-Tenant header, "anonymous" when absent
  std::string outcome;  ///< ok | rejected | client-error | server-error | malformed
  int status = 0;
  std::uint64_t bytes = 0;  ///< response body bytes
  double wall_us = 0.0;     ///< request wall time, µs
};

/// Outcome classification by status code: 2xx/3xx "ok", 429/503 "rejected"
/// (admission control, retryable), other 4xx "client-error", 5xx
/// "server-error". Malformed framing never reaches a status-based outcome —
/// the caller passes "malformed" explicitly.
[[nodiscard]] const char* access_outcome(int status);

/// The record as a compact JSON document, keys sorted (the rh-access-log/v1
/// line schema pinned by tests/golden_contract_test.cpp).
[[nodiscard]] std::string access_record_json(const AccessRecord& record);

/// Appending JSONL access-log writer: a resilience::AdvisoryFile, so it
/// goes dark on the first storage failure (see the file comment).
class AccessLog : public resilience::AdvisoryFile {
public:
  /// Opens `path` for appending (a restarted server continues its log).
  /// `injector` may be null and must outlive the log. Throws ConfigError
  /// when the path cannot be opened.
  explicit AccessLog(const std::string& path,
                     resilience::StorageFaultInjector* injector = nullptr);

  void record(const AccessRecord& record) { append(access_record_json(record)); }
};

/// Everything the flight recorder knows how to remember.
enum class ServiceEventKind : std::uint8_t {
  kAdmit = 0,      ///< job admitted (POST /jobs -> 201)
  kReject,         ///< admission refused (400/429/503)
  kSteal,          ///< a rig stole a shard from a peer's deque
  kRetry,          ///< a shard attempt failed transiently and will re-run
  kStorageError,   ///< a durable write failed (journal, descriptor, report)
  kCancel,         ///< DELETE /jobs/<id> accepted
  kFinalize,       ///< a job reached a terminal state
  kRecover,        ///< boot recovery replayed a job descriptor
  kFatal,          ///< unexpected exception answered with a 500
  kDump,           ///< an operator-triggered dump (SIGQUIT) — marks why
};

[[nodiscard]] const char* to_string(ServiceEventKind kind);

/// One ring entry. `t_ms` is wall time since the recorder was constructed
/// (= server start), so a dump reads as a relative timeline.
struct ServiceEvent {
  std::uint64_t seq = 0;
  double t_ms = 0.0;
  ServiceEventKind kind = ServiceEventKind::kAdmit;
  std::uint64_t job = 0;  ///< 0 when the event is not job-scoped
  std::string tenant;
  std::string detail;
};

/// Fixed-capacity ring of recent service events, internally locked. record()
/// is cheap (one lock, one slot overwrite) so it can sit on the admission
/// and rig-pool paths; dumps snapshot the ring oldest-first.
class FlightRecorder {
public:
  explicit FlightRecorder(std::size_t capacity);

  void record(ServiceEventKind kind, std::uint64_t job, std::string_view tenant,
              std::string detail);

  /// Events still in the ring, oldest first.
  [[nodiscard]] std::vector<ServiceEvent> events() const;
  /// Total events ever recorded (recorded() - capacity, floored at 0, were
  /// dropped from the ring).
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The dump document: an rh-flightrec/v1 header line, then one JSON line
  /// per ring event, oldest first.
  [[nodiscard]] std::string dump_jsonl() const;

  /// Writes dump_jsonl() to `dir`/flightrec-<unix-seconds>-<n>.jsonl
  /// (atomic replace; <n> disambiguates dumps within one second). Returns
  /// the path, or "" when the write failed — a post-mortem dump must never
  /// take the server down with it.
  [[nodiscard]] std::string dump_to_dir(const std::string& dir) const;

private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t seq_ = 0;            ///< next sequence number == total recorded
  std::vector<ServiceEvent> ring_;   ///< slot = seq % capacity
  mutable std::uint64_t dumps_ = 0;  ///< dump serial for unique filenames
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace rh::serve
