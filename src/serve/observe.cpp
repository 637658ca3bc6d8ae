#include "serve/observe.hpp"

#include <cassert>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "telemetry/prometheus.hpp"

namespace rh::serve {

namespace {

/// JSON number rendering shared with the exposition path, so the access log
/// and flight recorder agree with /metricsz byte-for-byte on values.
std::string num(double v) { return telemetry::prometheus_number(v); }

}  // namespace

// ---------------------------------------------------------------------------
// ServiceMetrics
// ---------------------------------------------------------------------------

ServiceMetrics::ServiceMetrics() {
  // The catalogue. Bounds follow the campaign-side convention (shard walls
  // cap at a minute); HTTP handlers are µs-scale with file-serving tails.
  registry_.histogram("serve.http_request_us", 0.0, 100000.0, 100);
  registry_.histogram("serve.queue_wait_ms", 0.0, 60000.0, 120);
  registry_.histogram("serve.steal_wait_ms", 0.0, 60000.0, 120);
  registry_.histogram("serve.shard_exec_ms", 0.0, 60000.0, 120);
  registry_.histogram("serve.cache_lookup_us", 0.0, 5000.0, 100);
  registry_.histogram("serve.cache_hit_us", 0.0, 5000.0, 100);
  registry_.counter("serve.http_requests");
  registry_.counter("serve.http_2xx");
  registry_.counter("serve.http_4xx");
  registry_.counter("serve.http_5xx");
}

void ServiceMetrics::add(const std::string& name, std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_.counter(name).add(n);
}

void ServiceMetrics::observe(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Bounds are ignored on a re-request; every histogram must come from the
  // constructor's catalogue, so a typo'd name would mint a degenerate
  // 1-bin histogram here — catch that in debug builds.
  assert(registry_.snapshot().find(name) != nullptr && "histogram not in catalogue");
  registry_.histogram(name, 0.0, 1.0, 1).observe(value);
}

telemetry::MetricsSnapshot ServiceMetrics::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return registry_.snapshot();
}

// ---------------------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------------------

const char* access_outcome(int status) {
  if (status == 429 || status == 503) return "rejected";
  if (status >= 500) return "server-error";
  if (status >= 400) return "client-error";
  return "ok";
}

std::string access_record_json(const AccessRecord& record) {
  std::string out = "{\"bytes\":" + std::to_string(record.bytes);
  out += ",\"method\":\"" + telemetry::json_escape(record.method) + '"';
  out += ",\"outcome\":\"" + telemetry::json_escape(record.outcome) + '"';
  out += ",\"path\":\"" + telemetry::json_escape(record.path) + '"';
  out += ",\"status\":" + std::to_string(record.status);
  out += ",\"tenant\":\"" + telemetry::json_escape(record.tenant) + '"';
  out += ",\"wall_us\":" + num(record.wall_us);
  out += '}';
  return out;
}

// First boot creates the file; a restart appends to the existing log
// (DurableFile's append mode requires the file to exist).
AccessLog::AccessLog(const std::string& path, resilience::StorageFaultInjector* injector)
    : AdvisoryFile(path, "access log", /*truncate=*/!std::filesystem::exists(path), injector) {}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

const char* to_string(ServiceEventKind kind) {
  switch (kind) {
    case ServiceEventKind::kAdmit: return "admit";
    case ServiceEventKind::kReject: return "reject";
    case ServiceEventKind::kSteal: return "steal";
    case ServiceEventKind::kRetry: return "retry";
    case ServiceEventKind::kStorageError: return "storage-error";
    case ServiceEventKind::kCancel: return "cancel";
    case ServiceEventKind::kFinalize: return "finalize";
    case ServiceEventKind::kRecover: return "recover";
    case ServiceEventKind::kFatal: return "fatal";
    case ServiceEventKind::kDump: return "dump";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_(std::chrono::steady_clock::now()) {
  ring_.resize(capacity_);
}

void FlightRecorder::record(ServiceEventKind kind, std::uint64_t job,
                            std::string_view tenant, std::string detail) {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceEvent& slot = ring_[seq_ % capacity_];
  slot.seq = seq_++;
  slot.t_ms = std::chrono::duration<double, std::milli>(now - epoch_).count();
  slot.kind = kind;
  slot.job = job;
  slot.tenant.assign(tenant.data(), tenant.size());
  slot.detail = std::move(detail);
}

std::vector<ServiceEvent> FlightRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ServiceEvent> out;
  const std::uint64_t live = seq_ < capacity_ ? seq_ : capacity_;
  out.reserve(live);
  for (std::uint64_t i = seq_ - live; i < seq_; ++i) out.push_back(ring_[i % capacity_]);
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

std::string FlightRecorder::dump_jsonl() const {
  const std::vector<ServiceEvent> snapshot = events();
  std::uint64_t recorded_total = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    recorded_total = seq_;
  }
  const std::uint64_t dropped =
      recorded_total > capacity_ ? recorded_total - capacity_ : 0;
  std::string out = "{\"capacity\":" + std::to_string(capacity_) +
                    ",\"dropped\":" + std::to_string(dropped) +
                    ",\"kind\":\"rh-flightrec\",\"recorded\":" +
                    std::to_string(recorded_total) + ",\"version\":1}\n";
  for (const ServiceEvent& e : snapshot) {
    out += "{\"detail\":\"" + telemetry::json_escape(e.detail) + '"';
    out += ",\"job\":" + std::to_string(e.job);
    out += ",\"kind\":\"";
    out += to_string(e.kind);
    out += '"';
    out += ",\"seq\":" + std::to_string(e.seq);
    out += ",\"t_ms\":" + num(e.t_ms);
    out += ",\"tenant\":\"" + telemetry::json_escape(e.tenant) + "\"}\n";
  }
  return out;
}

std::string FlightRecorder::dump_to_dir(const std::string& dir) const {
  const std::string text = dump_jsonl();
  std::uint64_t serial = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    serial = dumps_++;
  }
  char name[96];
  std::snprintf(name, sizeof name, "flightrec-%lld-%llu.jsonl",
                static_cast<long long>(std::time(nullptr)),
                static_cast<unsigned long long>(serial));
  const std::string path = dir + "/" + name;
  try {
    resilience::write_file_atomic(path, text, "flight-recorder dump");
  } catch (const common::Error&) {
    return "";  // a post-mortem aid must never be a crash source
  }
  return path;
}

}  // namespace rh::serve
