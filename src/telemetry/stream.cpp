#include "telemetry/stream.hpp"

#include "common/table.hpp"

namespace rh::telemetry {

namespace {

constexpr const char* kStreamKind = "rh-metrics-stream";
// v2 = CRC-framed lines. Readers accept v1 (bare payloads) forever.
constexpr std::uint64_t kStreamVersion = 2;

std::string header_line(const MetricsStreamHeader& header) {
  return std::string("{\"kind\":\"") + kStreamKind +
         "\",\"version\":" + std::to_string(kStreamVersion) +
         ",\"seed\":" + std::to_string(header.seed) + ",\"config_hash\":\"" +
         common::hash_hex(header.config_hash) + "\",\"shards\":" + std::to_string(header.shards) +
         ",\"jobs\":" + std::to_string(header.jobs) +
         ",\"cycle_cadence\":" + std::to_string(header.cycle_cadence) +
         ",\"wall_cadence_ms\":" + common::fmt_double(header.wall_cadence_ms, 3) + "}";
}

void append_counter_object(std::string& out, const CounterValues& values) {
  out += '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + std::to_string(value);
  }
  out += '}';
}

}  // namespace

MetricsStreamWriter::MetricsStreamWriter(const std::string& path,
                                         const MetricsStreamHeader& header,
                                         resilience::StorageFaultInjector* injector)
    : AdvisoryFile(path, "metrics stream", /*truncate=*/true, injector, header_line(header)) {}

std::string format_cycles_sample(std::uint64_t shard, std::uint32_t attempt, std::uint32_t seq,
                                 std::uint64_t cycle, const CounterValues& deltas) {
  std::string line = "{\"sample\":\"cycles\",\"shard\":" + std::to_string(shard) +
                     ",\"attempt\":" + std::to_string(attempt) +
                     ",\"seq\":" + std::to_string(seq) + ",\"cycle\":" + std::to_string(cycle) +
                     ",\"deltas\":";
  append_counter_object(line, deltas);
  line += '}';
  return line;
}

std::string format_wall_sample(double t_ms, const CounterValues& counter_deltas,
                               const std::vector<StreamWorkerStatus>& workers) {
  std::string line =
      "{\"sample\":\"wall\",\"t_ms\":" + common::fmt_double(t_ms, 3) + ",\"counters\":";
  append_counter_object(line, counter_deltas);
  line += ",\"workers\":[";
  bool first = true;
  for (const auto& w : workers) {
    if (!first) line += ',';
    first = false;
    line += "{\"busy_ms\":" + common::fmt_double(w.busy_ms, 3) +
            ",\"done\":" + std::to_string(w.done) + ",\"shard\":" + std::to_string(w.shard) +
            '}';
  }
  line += "]}";
  return line;
}

std::string format_final_sample(double t_ms, const CounterValues& counters, std::uint64_t done,
                                std::uint64_t failed, std::uint64_t skipped,
                                std::uint64_t total) {
  std::string line =
      "{\"sample\":\"final\",\"t_ms\":" + common::fmt_double(t_ms, 3) + ",\"counters\":";
  append_counter_object(line, counters);
  line += ",\"shards\":{\"done\":" + std::to_string(done) +
          ",\"failed\":" + std::to_string(failed) + ",\"skipped\":" + std::to_string(skipped) +
          ",\"total\":" + std::to_string(total) + "}}";
  return line;
}

CounterValues counter_values(const MetricsRegistry& registry) {
  CounterValues values;
  for (const auto& entry : registry.snapshot().entries) {
    if (entry.kind != MetricKind::kCounter) continue;
    values[entry.name] = static_cast<std::uint64_t>(entry.value);
  }
  return values;
}

MetricsSampler::MetricsSampler(MetricsStreamWriter& writer, const MetricsRegistry& registry,
                               std::uint64_t cadence, std::uint64_t shard, std::uint32_t attempt,
                               std::uint64_t base_cycle)
    : writer_(&writer),
      registry_(&registry),
      cadence_(cadence > 0 ? cadence : 1),
      shard_(shard),
      attempt_(attempt),
      base_(base_cycle),
      next_due_(cadence_),
      last_(counter_values(registry)) {}

void MetricsSampler::sample_if_due(std::uint64_t now_cycle) {
  const std::uint64_t rel = now_cycle - base_;
  if (rel < next_due_) return;
  emit(rel);
  // One sample per crossing, stamped at the cycle the host actually reached
  // (deterministic: the sampling sites are program boundaries).
  next_due_ = (rel / cadence_ + 1) * cadence_;
}

void MetricsSampler::finish(std::uint64_t now_cycle) { emit(now_cycle - base_); }

void MetricsSampler::emit(std::uint64_t rel_cycle) {
  const CounterValues now = counter_values(*registry_);
  CounterValues deltas;
  for (const auto& [name, value] : now) {
    const auto it = last_.find(name);
    const std::uint64_t before = it != last_.end() ? it->second : 0;
    if (value > before) deltas[name] = value - before;
  }
  writer_->append(format_cycles_sample(shard_, attempt_, seq_, rel_cycle, deltas));
  ++seq_;
  last_ = now;
}

}  // namespace rh::telemetry
