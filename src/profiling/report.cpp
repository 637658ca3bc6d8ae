#include "profiling/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace rh::profiling {

namespace {

using telemetry::json_number;

void write_latency_json(std::ostream& os, const LatencySummary& s) {
  os << "{\"count\":" << s.count << ",\"max\":" << common::fmt_double(s.max, 3)
     << ",\"mean\":" << common::fmt_double(s.mean, 3)
     << ",\"min\":" << common::fmt_double(s.min, 3)
     << ",\"p50\":" << common::fmt_double(s.p50, 3)
     << ",\"p90\":" << common::fmt_double(s.p90, 3)
     << ",\"p99\":" << common::fmt_double(s.p99, 3)
     << ",\"total_ms\":" << common::fmt_double(s.total_ms, 3) << '}';
}

/// The deterministic projection of the metrics snapshot: counters and
/// histograms only (gauges are last-merge-wins across worker sinks, so
/// their values depend on retire order), minus anything wall-clock-derived.
telemetry::MetricsSnapshot deterministic_metrics(const telemetry::MetricsSnapshot& full) {
  telemetry::MetricsSnapshot out;
  for (const auto& e : full.entries) {
    if (e.kind == telemetry::MetricKind::kGauge) continue;
    if (e.name.find("wall_ms") != std::string::npos) continue;
    // Ring-drop accounting depends on trace capacity and absorb order, not
    // on the physics of the sweep.
    if (e.name.rfind("telemetry.trace_", 0) == 0) continue;
    out.entries.push_back(e);
  }
  return out;
}

std::vector<double> wall_samples(const std::vector<ShardTiming>& timings) {
  std::vector<double> ws;
  ws.reserve(timings.size());
  for (const auto& t : timings) ws.push_back(t.wall_ms);
  return ws;
}

std::string fmt_cycles(std::uint64_t cycles) {
  if (cycles >= 10'000'000) return common::fmt_double(static_cast<double>(cycles) * 1e-6, 1) + "M";
  return std::to_string(cycles);
}

/// Span ids render as hex strings, matching the Chrome span export's id/
/// parent args, so report rows grep straight into the trace file.
std::string span_hex(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

LatencySummary summarize_latencies(std::vector<double> wall_ms) {
  LatencySummary s;
  s.count = wall_ms.size();
  if (wall_ms.empty()) return s;
  std::sort(wall_ms.begin(), wall_ms.end());
  s.min = wall_ms.front();
  s.max = wall_ms.back();
  s.p50 = common::quantile_sorted(wall_ms, 0.50);
  s.p90 = common::quantile_sorted(wall_ms, 0.90);
  s.p99 = common::quantile_sorted(wall_ms, 0.99);
  s.mean = common::mean(wall_ms);
  for (const double w : wall_ms) s.total_ms += w;
  return s;
}

std::uint64_t RunReport::commands() const {
  double total = 0.0;
  for (const auto& e : metrics.entries) {
    if (e.kind == telemetry::MetricKind::kCounter && e.name.rfind("cmd.", 0) == 0) {
      total += e.value;
    }
  }
  return static_cast<std::uint64_t>(total);
}

std::uint64_t RunReport::device_cycles() const {
  const std::uint64_t shard_run = profile.stat(Phase::kShardRun).device_cycles;
  return shard_run > 0 ? shard_run : profile.stat(Phase::kExecute).device_cycles;
}

std::uint64_t RunReport::bringup_device_cycles() const {
  const std::uint64_t rig_build = profile.stat(Phase::kRigBuild).device_cycles;
  return rig_build > 0 ? rig_build : profile.stat(Phase::kThermal).device_cycles;
}

std::uint64_t RunReport::deterministic_device_cycles() const {
  // Measurement cycles are already the deterministic projection: bring-up
  // was split out of device_cycles() precisely because it scales with the
  // number of rigs built, not with the sweep.
  return device_cycles();
}

double RunReport::commands_per_host_second() const {
  if (elapsed_wall_ms <= 0.0) return 0.0;
  return static_cast<double>(commands()) / (elapsed_wall_ms * 1e-3);
}

double RunReport::device_cycles_per_host_second() const {
  if (elapsed_wall_ms <= 0.0) return 0.0;
  return static_cast<double>(device_cycles()) / (elapsed_wall_ms * 1e-3);
}

double RunReport::worker_utilization() const {
  if (elapsed_wall_ms <= 0.0 || jobs == 0) return 0.0;
  const double busy = profile.stat(Phase::kShardRun).wall_ms;
  return std::clamp(busy / (static_cast<double>(jobs) * elapsed_wall_ms), 0.0, 1.0);
}

void write_report_json(std::ostream& os, const RunReport& report, bool include_wall) {
  // Keys at every level are emitted in sorted order: byte-stable diffs.
  os << '{';
  if (include_wall) {
    // Bring-up scales with rigs built (jobs, retries), so the
    // deterministic projection drops it along with the other wall keys.
    os << "\"bringup_device_cycles\":" << report.bringup_device_cycles() << ',';
  }
  os << "\"campaign\":\"" << telemetry::json_escape(report.campaign) << '"';
  os << ",\"commands\":" << report.commands();
  if (include_wall) {
    os << ",\"commands_per_host_second\":" << json_number(report.commands_per_host_second());
  }
  os << ",\"device_cycles\":"
     << (include_wall ? report.device_cycles() : report.deterministic_device_cycles());
  if (include_wall) {
    os << ",\"device_cycles_per_host_second\":"
       << json_number(report.device_cycles_per_host_second());
    os << ",\"elapsed_wall_ms\":" << common::fmt_double(report.elapsed_wall_ms, 3);
    // jobs is scheduling, not physics; the deterministic projection drops it.
    os << ",\"jobs\":" << report.jobs;
  }
  os << ",\"metrics\":";
  if (include_wall) {
    report.metrics.write_json(os);
  } else {
    deterministic_metrics(report.metrics).write_json(os);
  }
  os << ",\"phases\":";
  report.profile.write_json(os, include_wall);
  os << ",\"records\":" << report.records;
  os << ",\"resilience\":{\"aborted\":" << json_number(report.metrics.value_or(
            "resilience.aborted", 0.0))
     << ",\"injected\":" << json_number(report.metrics.value_or("resilience.injected", 0.0))
     << ",\"recovered\":" << json_number(report.metrics.value_or("resilience.recovered", 0.0))
     << ",\"retried\":" << json_number(report.metrics.value_or("resilience.retried", 0.0))
     << '}';
  os << ",\"schema\":\"rh-run-report/v1\"";
  os << ",\"seed\":" << report.seed;
  if (include_wall) {
    os << ",\"shard_latency_ms\":";
    write_latency_json(os, summarize_latencies(wall_samples(report.timings)));
  }
  os << ",\"shards\":{\"done\":" << report.shards_done << ",\"failed\":" << report.shards_failed
     << ",\"fatal\":" << report.shards_fatal << ",\"retried\":" << report.shards_retried
     << ",\"skipped\":" << report.shards_skipped << ",\"total\":" << report.shards_total << '}';
  if (include_wall) {
    std::vector<ShardTiming> slowest = report.timings;
    std::sort(slowest.begin(), slowest.end(), [](const ShardTiming& a, const ShardTiming& b) {
      return a.wall_ms != b.wall_ms ? a.wall_ms > b.wall_ms : a.shard < b.shard;
    });
    if (slowest.size() > 5) slowest.resize(5);
    os << ",\"slowest_shards\":[";
    for (std::size_t i = 0; i < slowest.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"attempts\":" << slowest[i].attempts << ",\"shard\":" << slowest[i].shard
         << ",\"span\":\"" << span_hex(slowest[i].span)
         << "\",\"wall_ms\":" << common::fmt_double(slowest[i].wall_ms, 3) << '}';
    }
    os << ']';
  }
  os << ",\"spans\":{\"dropped\":" << report.spans_dropped
     << ",\"total\":" << report.spans_total << '}';
  os << ",\"timings\":[";
  for (std::size_t i = 0; i < report.timings.size(); ++i) {
    const ShardTiming& t = report.timings[i];
    if (i != 0) os << ',';
    os << "{\"attempts\":" << t.attempts << ",\"device_cycles\":" << t.device_cycles
       << ",\"shard\":" << t.shard << ",\"span\":\"" << span_hex(t.span) << '"';
    if (include_wall) os << ",\"wall_ms\":" << common::fmt_double(t.wall_ms, 3);
    os << '}';
  }
  os << ']';
  if (include_wall) {
    // Ring accounting depends on how many worker rings were absorbed (one
    // per rig), so it stays out of the deterministic projection.
    os << ",\"trace\":{\"dropped\":" << report.trace.dropped
       << ",\"recorded\":" << report.trace.recorded << ",\"retained\":" << report.trace.retained
       << '}';
    os << ",\"worker_utilization\":" << json_number(report.worker_utilization());
  }
  os << '}';
}

void render_report_text(std::ostream& os, const RunReport& report) {
  os << "=== campaign run report: " << report.campaign << " (seed " << report.seed << ") ===\n";
  os << "shards: " << report.shards_done << "/" << report.shards_total << " run";
  if (report.shards_skipped > 0) os << ", " << report.shards_skipped << " from checkpoint";
  if (report.shards_retried > 0) os << ", " << report.shards_retried << " retried";
  if (report.shards_failed > 0) {
    os << ", " << report.shards_failed << " FAILED (" << report.shards_fatal << " fatal)";
  }
  os << "  |  records: " << report.records << '\n';
  os << "elapsed: " << common::fmt_double(report.elapsed_wall_ms * 1e-3, 2) << " s on "
     << report.jobs << " worker" << (report.jobs == 1 ? "" : "s")
     << "  |  utilization: " << common::fmt_percent(report.worker_utilization()) << '\n';
  os << "throughput: " << common::fmt_double(report.commands_per_host_second(), 0)
     << " commands/s  |  "
     << common::fmt_double(report.device_cycles_per_host_second() * 1e-6, 1)
     << " M device-cycles per host-second\n";

  const double total_wall = std::max(report.elapsed_wall_ms, 1e-9);
  common::Table phases({"phase", "group", "calls", "device cycles", "wall ms", "% of elapsed"});
  for (std::size_t i = 0; i < telemetry::kLayerCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (!is_phase(p)) continue;
    const PhaseStat& s = report.profile.stat(p);
    phases.add_row({std::string(to_string(p)), std::string(telemetry::group(p)),
                    std::to_string(s.calls), fmt_cycles(s.device_cycles),
                    common::fmt_double(s.wall_ms, 1), common::fmt_percent(s.wall_ms / total_wall)});
  }
  os << "\nphase breakdown (host-level phases nest inside campaign-level ones):\n";
  phases.print(os);

  const LatencySummary lat = summarize_latencies(wall_samples(report.timings));
  if (lat.count > 0) {
    common::Table latency({"shards", "min", "p50", "p90", "p99", "max", "mean"});
    latency.add_row({std::to_string(lat.count), common::fmt_double(lat.min, 1),
                     common::fmt_double(lat.p50, 1), common::fmt_double(lat.p90, 1),
                     common::fmt_double(lat.p99, 1), common::fmt_double(lat.max, 1),
                     common::fmt_double(lat.mean, 1)});
    os << "\nper-shard latency (wall ms):\n";
    latency.print(os);
    common::render_boxplot(os, {{"shard ms", common::box_stats(wall_samples(report.timings))}},
                           64, "wall ms");

    std::vector<ShardTiming> slowest = report.timings;
    std::sort(slowest.begin(), slowest.end(), [](const ShardTiming& a, const ShardTiming& b) {
      return a.wall_ms != b.wall_ms ? a.wall_ms > b.wall_ms : a.shard < b.shard;
    });
    if (slowest.size() > 5) slowest.resize(5);
    common::Table slow({"slowest shard", "wall ms", "device cycles", "attempts", "span"});
    for (const auto& t : slowest) {
      slow.add_row({std::to_string(t.shard), common::fmt_double(t.wall_ms, 1),
                    fmt_cycles(t.device_cycles), std::to_string(t.attempts), span_hex(t.span)});
    }
    os << '\n';
    slow.print(os);
  }

  const double injected = report.metrics.value_or("resilience.injected", 0.0);
  if (injected > 0.0) {
    os << "\nfault storm: " << common::fmt_double(injected, 0) << " injected, "
       << common::fmt_double(report.metrics.value_or("resilience.recovered", 0.0), 0)
       << " recovered, "
       << common::fmt_double(report.metrics.value_or("resilience.aborted", 0.0), 0)
       << " aborted, "
       << common::fmt_double(report.metrics.value_or("resilience.retried", 0.0), 0)
       << " backoff retries\n";
  }
}

}  // namespace rh::profiling
