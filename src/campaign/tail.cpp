#include "campaign/tail.hpp"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <set>

#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "campaign/record_io.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "resilience/storage.hpp"

namespace rh::campaign {

namespace {

std::uint64_t hex_u64(const std::string& text) {
  return std::strtoull(text.c_str(), nullptr, 16);
}

std::map<std::string, std::uint64_t> counter_map(const JsonValue& object) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : object.members) out[name] += value.as_u64();
  return out;
}

void add_counters(std::map<std::string, std::uint64_t>& into,
                  const std::map<std::string, std::uint64_t>& deltas) {
  for (const auto& [name, value] : deltas) into[name] += value;
}

}  // namespace

MetricsStreamData read_metrics_stream(const std::string& path, resilience::JsonlScan* scan) {
  MetricsStreamData data;
  bool header_parsed = false;
  const auto header = [&](std::string_view payload, std::size_t) {
    const JsonValue doc = parse_json(payload, path + " (header)");
    header_parsed = true;
    const JsonValue* kind = doc.find("kind");
    if (kind == nullptr || kind->text != "rh-metrics-stream") {
      throw common::ConfigError("not an rh-metrics-stream file");
    }
    (void)doc.at("version").as_u64();
    data.seed = doc.at("seed").as_u64();
    data.config_hash = hex_u64(doc.at("config_hash").text);
    data.shards = doc.at("shards").as_u64();
    data.jobs = static_cast<unsigned>(doc.at("jobs").as_u64());
    data.cycle_cadence = doc.at("cycle_cadence").as_u64();
    data.wall_cadence_ms = doc.at("wall_cadence_ms").as_double();
    data.has_header = true;
  };
  // Every field is checked before `data` changes, so a damaged line
  // leaves no partial trace.
  const auto sample = [&](std::string_view payload, std::size_t line_no) {
    const JsonValue doc = parse_json(payload, path + " line " + std::to_string(line_no));
    const std::string& kind = doc.at("sample").text;
    if (kind == "cycles") {
      for (const char* field : {"shard", "attempt", "seq", "cycle"}) (void)doc.at(field).as_u64();
      const auto deltas = counter_map(doc.at("deltas"));
      ++data.cycles_samples;
      add_counters(data.device_counters, deltas);
    } else if (kind == "wall") {
      const double t_ms = doc.at("t_ms").as_double();
      const auto deltas = counter_map(doc.at("counters"));
      std::vector<MetricsStreamData::Worker> workers;
      for (const JsonValue& w : doc.at("workers").items) {
        workers.push_back({w.at("busy_ms").as_double(), w.at("done").as_u64(),
                           static_cast<std::int64_t>(w.at("shard").as_double())});
      }
      ++data.wall_samples;
      data.last_t_ms = t_ms;
      add_counters(data.counters, deltas);
      data.workers = std::move(workers);
    } else if (kind == "final") {
      const double t_ms = doc.at("t_ms").as_double();
      auto counters = counter_map(doc.at("counters"));
      const JsonValue& shards = doc.at("shards");
      const std::uint64_t done = shards.at("done").as_u64();
      const std::uint64_t failed = shards.at("failed").as_u64();
      const std::uint64_t skipped = shards.at("skipped").as_u64();
      const std::uint64_t total = shards.at("total").as_u64();
      data.finished = true;
      data.last_t_ms = t_ms;
      data.counters = std::move(counters);
      data.final_done = done;
      data.final_failed = failed;
      data.final_skipped = skipped;
      data.final_total = total;
    } else {
      // Well-formed JSON but not a sample we know: rot that kept the line
      // parseable, or a future writer. Either way, skippable.
      throw common::ConfigError("unknown sample kind '" + kind + "'");
    }
  };
  resilience::JsonlScan own;
  if (scan == nullptr) scan = &own;
  *scan = resilience::scan_jsonl(path, "metrics stream", header, sample);
  // Header policy: the stream is advisory telemetry, so an empty file or a
  // torn lone header is a stream with nothing to report yet. A foreign
  // header, or a damaged one with lines below it, means nothing here is
  // this stream's.
  if (!scan->header_intact && (header_parsed || !scan->corrupt_lines.empty())) {
    throw common::ConfigError("unusable metrics stream header in " + path + ": " +
                              scan->header_error);
  }
  data.torn = scan->torn_tail;
  data.corrupt_lines = scan->corrupt_lines.size();
  return data;
}

TailStatus tail_status(const std::string& journal_path, const std::string& stream_path,
                       const TailOptions& opts) {
  if (journal_path.empty() && stream_path.empty()) {
    throw common::ConfigError("tail_status needs a journal and/or a metrics stream");
  }
  TailStatus status;
  std::set<std::uint64_t> completed;

  if (!journal_path.empty()) {
    const JournalReader reader(journal_path);
    status.seed = reader.header().seed;
    status.shards_total = reader.header().shard_count;
    status.torn = status.torn || reader.torn_tail();
    status.corrupt_lines += reader.corrupt_lines().size();
    std::set<std::uint64_t> failed_shards;
    for (const auto& outcome : reader.outcomes()) {
      status.attempts += outcome.attempts;
      if (outcome.ok) {
        status.records += outcome.records;
      } else {
        failed_shards.insert(outcome.shard);
      }
    }
    for (const auto& [index, records] : reader.shards()) {
      completed.insert(index);
      failed_shards.erase(index);  // a later retry (resume) completed it
    }
    status.done = completed.size();
    status.failed = failed_shards.size();
  }

  if (!stream_path.empty()) {
    const MetricsStreamData stream = read_metrics_stream(stream_path);
    status.torn = status.torn || stream.torn;
    status.corrupt_lines += stream.corrupt_lines;
    if (stream.has_header) {
      status.seed = stream.seed;
      if (stream.shards > 0) status.shards_total = stream.shards;
      status.jobs = stream.jobs;
    }
    status.elapsed_ms = stream.last_t_ms;
    status.finished = stream.finished;
    status.counters = stream.counters;
    status.device_counters = stream.device_counters;
    if (stream.finished) {
      status.done = std::max(status.done, stream.final_done);
      status.failed = std::max(status.failed, stream.final_failed);
      status.skipped = stream.final_skipped;
      if (stream.final_total > 0) status.shards_total = stream.final_total;
    } else if (journal_path.empty()) {
      // No journal to count from: the streamed campaign counters are the
      // next-best progress signal (a wall sample lands at every commit).
      const auto find = [&](const char* name) {
        const auto it = stream.counters.find(name);
        return it != stream.counters.end() ? it->second : std::uint64_t{0};
      };
      status.done = find("campaign.shards_done");
      status.failed = find("campaign.shards_failed");
      status.skipped = find("campaign.shards_skipped");
    }
    status.workers.reserve(stream.workers.size());
    for (const auto& w : stream.workers) {
      TailWorkerView view;
      view.busy_ms = w.busy_ms;
      view.done = w.done;
      view.shard = w.shard;
      view.utilization =
          status.elapsed_ms > 0.0 ? std::min(1.0, w.busy_ms / status.elapsed_ms) : 0.0;
      status.workers.push_back(view);
    }
    if (!stream.finished) {
      for (std::size_t i = 0; i < stream.workers.size(); ++i) {
        const std::int64_t shard = stream.workers[i].shard;
        if (shard >= 0 && completed.count(static_cast<std::uint64_t>(shard)) == 0) {
          status.stalled.push_back(
              {static_cast<std::uint64_t>(shard), static_cast<unsigned>(i)});
        }
      }
    }
  }

  if (!status.finished) {
    const std::uint64_t finished_shards = status.done + status.failed + status.skipped;
    const std::uint64_t remaining =
        status.shards_total > finished_shards ? status.shards_total - finished_shards : 0;
    status.eta = eta_text(status.elapsed_ms * 1e-3, status.done + status.failed, remaining);
  }
  // Post-mortem (no live observation), every suspect is a casualty; in
  // follow mode a suspect only trips the watchdog once the files have been
  // quiet longer than the stall budget.
  status.watchdog_tripped = !status.stalled.empty() &&
                            (opts.observed_idle_ms < 0.0 ||
                             opts.observed_idle_ms >= opts.stall_ms);
  return status;
}

void render_tail_status(std::ostream& os, const TailStatus& status) {
  const std::uint64_t finished = status.done + status.failed + status.skipped;
  os << "[rh_tail] seed " << status.seed << " | " << finished << "/" << status.shards_total
     << " shards";
  if (status.shards_total > 0) os << " (" << finished * 100 / status.shards_total << "%)";
  if (status.skipped > 0) os << " | " << status.skipped << " resumed";
  if (status.failed > 0) os << " | " << status.failed << " FAILED";
  if (status.finished) {
    os << " | finished in " << format_seconds(status.elapsed_ms * 1e-3);
  } else {
    os << " | elapsed " << format_seconds(status.elapsed_ms * 1e-3);
    if (!status.eta.empty()) os << " | " << status.eta;
  }
  if (status.torn) os << " | torn tail tolerated";
  if (status.corrupt_lines > 0) {
    os << " | " << status.corrupt_lines << " corrupt line"
       << (status.corrupt_lines == 1 ? "" : "s") << " skipped";
  }
  os << '\n';
  os << "records journaled: " << status.records << " | attempts: " << status.attempts << '\n';

  os << "per-worker utilization:\n";
  if (status.workers.empty()) {
    os << "  (no wall samples yet"
       << (status.jobs > 0 ? ", " + std::to_string(status.jobs) + " workers configured" : "")
       << ")\n";
  }
  for (std::size_t i = 0; i < status.workers.size(); ++i) {
    const TailWorkerView& w = status.workers[i];
    os << "  worker " << i << ": " << common::fmt_percent(w.utilization, 0) << " busy ("
       << format_seconds(w.busy_ms * 1e-3) << "), " << w.done << " done, ";
    if (w.shard >= 0) {
      os << "shard " << w.shard << " in flight\n";
    } else {
      os << "idle\n";
    }
  }

  const auto counter = [&](const char* name) {
    const auto it = status.counters.find(name);
    return it != status.counters.end() ? it->second : std::uint64_t{0};
  };
  const std::uint64_t injected = counter("resilience.injected");
  const double elapsed_s = status.elapsed_ms * 1e-3;
  os << "faults: " << injected << " injected";
  if (elapsed_s > 0.0) {
    os << " (" << common::fmt_double(static_cast<double>(injected) / elapsed_s, 2) << "/s)";
  }
  os << ", " << counter("resilience.recovered") << " recovered, "
     << counter("resilience.aborted") << " aborted, "
     << counter("campaign.shards_retried") << " shard retries\n";

  os << "stall watchdog:\n";
  if (status.finished) {
    os << "  campaign finished cleanly — nothing in flight\n";
  } else if (status.stalled.empty()) {
    os << "  ok — no suspect shards\n";
  } else {
    for (const StalledShard& s : status.stalled) {
      os << "  " << (status.watchdog_tripped ? "STALLED" : "in flight") << ": shard "
         << s.shard << " (worker " << s.worker << ") — claimed but not journaled\n";
    }
  }
}

}  // namespace rh::campaign
