// rh_top: the operator console for a running rh_serve.
//
//   rh_top --port-file=PATH [--interval-ms=1000] [--max-seconds=F]
//   rh_top --port=N --once
//
// Polls GET /statz, /metricsz, and /jobs on the loopback service and joins
// them into one refreshing status frame: job-state tallies, shard/cache
// throughput and cache hit ratio, latency percentiles (HTTP handler,
// queue wait, steal wait, shard execution — recovered from the Prometheus
// histogram buckets), per-rig utilization bars, per-tenant quota pressure,
// and per-job progress with an ETA extrapolated from the shard completion
// rate between polls.
//
// Flags:
//   --port=N          the service's bound port
//   --port-file=PATH  read the port from rh_serve's --port-file (one of
//                     --port/--port-file is required)
//   --interval-ms=N   refresh cadence (default 1000)
//   --once            print ONE machine-readable JSON snapshot and exit —
//                     the scripting mode (no ETA: rates need two polls)
//   --max-seconds=F   stop refreshing after F seconds (default: forever);
//                     exit 0 — rh_top is a viewer, not a watchdog
//
// Exit status: 0 on a clean run, 1 on bad flags or (in --once mode) an
// unreachable/erroring server. In refresh mode an unreachable server is a
// "waiting" frame, not an exit — the server may simply not be up yet.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/record_io.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"

using namespace rh;

namespace {

/// One histogram family recovered from /metricsz cumulative buckets,
/// de-cumulated back into the fixed-width form histogram_quantile expects.
struct HistView {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  [[nodiscard]] double quantile(double q) const {
    return telemetry::histogram_quantile(lo, hi, counts, q);
  }
};

/// The slice of a Prometheus text exposition rh_top consumes: unlabeled
/// scalar samples by name, and `_bucket{le=...}` series per family.
struct Exposition {
  std::map<std::string, double> scalars;
  std::map<std::string, HistView> histograms;
};

Exposition parse_exposition(const std::string& text) {
  Exposition out;
  // family -> (upper edge, cumulative count), +Inf excluded.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string::size_type space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    std::string name = line.substr(0, space);
    const std::string::size_type brace = name.find('{');
    if (brace == std::string::npos) {
      out.scalars[name] = value;
      continue;
    }
    const std::string labels = name.substr(brace);
    name.resize(brace);
    if (name.size() > 7 && name.compare(name.size() - 7, 7, "_bucket") == 0) {
      const std::string::size_type le = labels.find("le=\"");
      if (le == std::string::npos) continue;
      const std::string upper_text = labels.substr(le + 4, labels.find('"', le + 4) - le - 4);
      if (upper_text == "+Inf") continue;
      buckets[name.substr(0, name.size() - 7)].emplace_back(
          std::strtod(upper_text.c_str(), nullptr), value);
    }
  }
  for (const auto& [family, edges] : buckets) {
    if (edges.empty()) continue;
    HistView h;
    const double width = edges.size() > 1 ? edges[1].first - edges[0].first : edges[0].first;
    h.lo = edges[0].first - width;
    h.hi = edges.back().first;
    double prev = 0.0;
    for (const auto& [upper, cum] : edges) {
      h.counts.push_back(static_cast<std::uint64_t>(cum - prev));
      prev = cum;
    }
    h.total = static_cast<std::uint64_t>(prev);
    out.histograms[family] = h;
  }
  return out;
}

std::string fetch(std::uint16_t port, const std::string& target) {
  const serve::HttpResponse resp = serve::http_request(port, "GET", target);
  if (resp.status != 200) {
    throw common::ConfigError("GET " + target + " answered " + std::to_string(resp.status));
  }
  return resp.body;
}

std::string fmt(double v, const char* suffix = "") {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%s", v, suffix);
  return buf;
}

std::string percentiles_text(const Exposition& m, const char* family, const char* unit) {
  const auto it = m.histograms.find(family);
  if (it == m.histograms.end() || it->second.total == 0) return "-";
  const HistView& h = it->second;
  return "p50 " + fmt(h.quantile(0.50), unit) + "  p90 " + fmt(h.quantile(0.90), unit) +
         "  p99 " + fmt(h.quantile(0.99), unit) + "  (n=" + std::to_string(h.total) + ")";
}

double stat_num(const campaign::JsonValue& statz, const char* key) {
  const campaign::JsonValue* v = statz.find(key);
  return v != nullptr ? v->as_double() : 0.0;
}

/// ETA bookkeeping: shard completions between two polls of the same job.
struct JobProgress {
  std::uint64_t done = 0;
  std::chrono::steady_clock::time_point at;
};

void render_frame(std::ostream& os, std::uint16_t port, const campaign::JsonValue& statz,
                  const Exposition& metrics, const campaign::JsonValue& jobs,
                  std::map<std::uint64_t, JobProgress>& progress) {
  const double hits = stat_num(statz, "serve.cache_hits");
  const double misses = stat_num(statz, "serve.cache_misses");
  const double lookups = hits + misses;
  const double uptime_ms = stat_num(statz, "serve.uptime_ms");

  os << "rh_serve @ 127.0.0.1:" << port << "   up " << fmt(uptime_ms / 1000.0, "s")
     << "   draining: " << (statz.at("draining").boolean ? "yes" : "no") << '\n';
  os << "jobs     active " << stat_num(statz, "serve.jobs_active") << " (queued "
     << stat_num(statz, "serve.jobs_queued") << ", running "
     << stat_num(statz, "serve.jobs_running") << ")   done "
     << stat_num(statz, "serve.jobs_done") << "  failed " << stat_num(statz, "serve.jobs_failed")
     << "  cancelled " << stat_num(statz, "serve.jobs_cancelled") << "   submitted "
     << stat_num(statz, "serve.jobs_submitted") << "  rejected "
     << stat_num(statz, "serve.jobs_rejected") << '\n';
  os << "shards   run " << stat_num(statz, "campaign.shards_run") << "  cached "
     << stat_num(statz, "serve.shards_cached") << "  stolen "
     << stat_num(statz, "serve.shards_stolen") << "   queue depth "
     << stat_num(statz, "serve.queue_depth") << '\n';
  os << "cache    entries " << stat_num(statz, "serve.cache_entries") << "  hits " << hits
     << "  misses " << misses << "   hit ratio "
     << (lookups > 0.0 ? fmt(100.0 * hits / lookups, "%") : "-") << '\n';
  os << "latency  http " << percentiles_text(metrics, "serve_http_request_us", "us")
     << "\n         queue-wait " << percentiles_text(metrics, "serve_queue_wait_ms", "ms")
     << "\n         steal-wait " << percentiles_text(metrics, "serve_steal_wait_ms", "ms")
     << "\n         shard-exec " << percentiles_text(metrics, "serve_shard_exec_ms", "ms")
     << '\n';

  const campaign::JsonValue* rigs = statz.find("rigs");
  if (rigs != nullptr) {
    for (std::size_t r = 0; r < rigs->items.size(); ++r) {
      const campaign::JsonValue& rig = rigs->items[r];
      const double utilization = rig.at("utilization").as_double();
      const int filled = static_cast<int>(std::lround(utilization * 10.0));
      std::string bar(static_cast<std::size_t>(filled), '#');
      bar.resize(10, '-');
      os << (r == 0 ? "rigs     " : "         ") << '[' << r << "] " << bar << ' '
         << fmt(100.0 * utilization, "%") << "  busy " << fmt(rig.at("busy_ms").as_double(), "ms")
         << "  done " << rig.at("done").as_u64() << "  steals " << rig.at("steals").as_u64();
      const std::int64_t shard = static_cast<std::int64_t>(rig.at("shard").as_double());
      if (shard >= 0) os << "  shard " << shard << " (job " << rig.at("job").as_u64() << ')';
      os << '\n';
    }
  }

  const campaign::JsonValue* tenants = statz.find("tenants");
  if (tenants != nullptr) {
    for (std::size_t t = 0; t < tenants->items.size(); ++t) {
      const campaign::JsonValue& row = tenants->items[t];
      os << (t == 0 ? "tenants  " : "         ") << row.at("tenant").text << ": active "
         << row.at("active").as_u64() << '/' << row.at("quota").as_u64() << "  submitted "
         << row.at("submitted").as_u64() << "  completed " << row.at("completed").as_u64()
         << "  rejected " << row.at("rejected").as_u64() << "  shards "
         << row.at("shards_run").as_u64() << "  cache-hits " << row.at("cache_hits").as_u64()
         << '\n';
    }
  }

  const auto now = std::chrono::steady_clock::now();
  std::map<std::uint64_t, JobProgress> next_progress;
  for (const campaign::JsonValue& job : jobs.at("jobs").items) {
    const std::string& state = job.at("state").text;
    const std::uint64_t id = job.at("id").as_u64();
    const campaign::JsonValue& shards = job.at("shards");
    const std::uint64_t done = shards.at("done").as_u64();
    const std::uint64_t total = shards.at("total").as_u64();
    if (state != "queued" && state != "running") continue;
    os << "job      #" << id << ' ' << state << "  " << done << '/' << total << " shards";
    if (total > 0) {
      os << " (" << fmt(100.0 * static_cast<double>(done) / static_cast<double>(total), "%")
         << ')';
    }
    // ETA from the completion rate since the previous poll of this job.
    const auto prev = progress.find(id);
    if (prev != progress.end() && done > prev->second.done) {
      const double dt =
          std::chrono::duration<double>(now - prev->second.at).count();
      const double rate = static_cast<double>(done - prev->second.done) / std::max(dt, 1e-9);
      os << "  ETA " << fmt(static_cast<double>(total - done) / rate, "s");
    }
    os << "  tenant " << job.at("tenant").text << '\n';
    next_progress[id] = JobProgress{done, now};
    if (prev != progress.end() && done == prev->second.done) next_progress[id] = prev->second;
  }
  progress = std::move(next_progress);
  os << '\n';
}

/// The --once snapshot: one compact JSON object (sorted keys) joining the
/// computed views a script wants without re-deriving them — cache hit
/// ratio, latency percentiles, rig utilization — plus the raw statz
/// document under "statz".
std::string once_json(const campaign::JsonValue& statz, const Exposition& metrics,
                      const std::string& statz_raw) {
  const double hits = stat_num(statz, "serve.cache_hits");
  const double lookups = hits + stat_num(statz, "serve.cache_misses");
  std::string out = "{\"cache_hit_ratio\":";
  out += campaign::format_double_exact(lookups > 0.0 ? hits / lookups : 0.0);
  out += ",\"latency\":{";
  bool first = true;
  for (const char* family :
       {"serve_http_request_us", "serve_queue_wait_ms", "serve_shard_exec_ms",
        "serve_steal_wait_ms"}) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += family;
    out += "\":";
    const auto it = metrics.histograms.find(family);
    if (it == metrics.histograms.end()) {
      out += "null";
      continue;
    }
    const HistView& h = it->second;
    out += "{\"count\":" + std::to_string(h.total);
    out += ",\"p50\":" + campaign::format_double_exact(h.quantile(0.50));
    out += ",\"p90\":" + campaign::format_double_exact(h.quantile(0.90));
    out += ",\"p99\":" + campaign::format_double_exact(h.quantile(0.99));
    out += '}';
  }
  out += "},\"schema\":\"rh-top-once/v1\",\"statz\":" + statz_raw + "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    std::int64_t port_num = args.get_int("port", 0);
    const std::string port_file = args.get("port-file", "");
    const double interval_ms = static_cast<double>(args.get_positive_int("interval-ms", 1000));
    const bool once = args.has("once");
    const double max_seconds = args.get_positive_double("max-seconds", 0.0);
    args.reject_unqueried();
    if (port_num == 0 && port_file.empty()) {
      throw common::ConfigError("rh_top needs --port=N or --port-file=PATH");
    }
    if (port_num == 0) {
      std::ifstream in(port_file);
      if (!in || !(in >> port_num)) {
        throw common::ConfigError("cannot read port from " + port_file);
      }
    }
    if (port_num < 1 || port_num > 65535) {
      throw common::CliError("--port must be in [1, 65535], got " + std::to_string(port_num));
    }
    const auto port = static_cast<std::uint16_t>(port_num);

    if (once) {
      const std::string statz_raw = fetch(port, "/statz");
      const campaign::JsonValue statz = campaign::parse_json(statz_raw, "/statz");
      const Exposition metrics = parse_exposition(fetch(port, "/metricsz"));
      // statz_raw ends in '\n' (the HTTP body); trim for clean embedding.
      std::string trimmed = statz_raw;
      while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
      std::cout << once_json(statz, metrics, trimmed) << std::endl;
      return 0;
    }

    const auto start = std::chrono::steady_clock::now();
    std::map<std::uint64_t, JobProgress> progress;
    for (;;) {
      try {
        const std::string statz_raw = fetch(port, "/statz");
        const campaign::JsonValue statz = campaign::parse_json(statz_raw, "/statz");
        const Exposition metrics = parse_exposition(fetch(port, "/metricsz"));
        const campaign::JsonValue jobs = campaign::parse_json(fetch(port, "/jobs"), "/jobs");
        render_frame(std::cout, port, statz, metrics, jobs, progress);
        std::cout.flush();
      } catch (const common::Error&) {
        std::cout << "[rh_top] waiting for rh_serve on port " << port << "...\n";
        std::cout.flush();
      }
      if (max_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (elapsed >= max_seconds) return 0;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(interval_ms));
    }
  });
}
