#include "campaign/journal.hpp"

#include <cstdlib>
#include <ostream>

#include "campaign/record_io.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "profiling/report.hpp"
#include "telemetry/metrics.hpp"

namespace rh::campaign {

namespace {

constexpr std::string_view kJournalKind = "rh-campaign-journal";
// v2 = CRC-framed lines. Readers accept v1 (bare payloads) forever.
constexpr std::uint64_t kJournalVersion = 2;

std::string header_line(const JournalHeader& header) {
  return std::string("{\"kind\":\"") + std::string(kJournalKind) +
         "\",\"version\":" + std::to_string(kJournalVersion) +
         ",\"seed\":" + std::to_string(header.seed) + ",\"config_hash\":\"" +
         common::hash_hex(header.config_hash) +
         "\",\"shards\":" + std::to_string(header.shard_count) + "}";
}

}  // namespace

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

JournalWriter::JournalWriter(const std::string& path, const JournalHeader& header,
                             resilience::StorageFaultInjector* injector)
    : file_(std::make_unique<resilience::DurableFile>(path, "checkpoint journal",
                                                      /*truncate=*/true, injector)) {
  write_line(header_line(header));
}

JournalWriter::JournalWriter(const std::string& path, const JournalReader& reader,
                             resilience::StorageFaultInjector* injector) {
  // Quarantined shards are absent from reader.shards(), so the resume
  // planner re-runs exactly them and the final results stay byte-identical.
  resilience::repair_jsonl(path, reader.scan(), "checkpoint journal", injector);
  file_ = std::make_unique<resilience::DurableFile>(path, "checkpoint journal",
                                                    /*truncate=*/false, injector);
}

JournalWriter::~JournalWriter() = default;

void JournalWriter::write_line(const std::string& payload) {
  file_->write_line(resilience::frame_line(payload));
}

void JournalWriter::append_shard(std::uint64_t shard,
                                 const std::vector<core::RowRecord>& records, double wall_ms,
                                 unsigned attempts) {
  std::string line = "{\"shard\":" + std::to_string(shard);
  if (wall_ms >= 0.0) {
    line += ",\"attempts\":" + std::to_string(attempts) +
            ",\"wall_ms\":" + common::fmt_double(wall_ms, 3);
  }
  line += ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) line += ',';
    append_row_record_json(line, records[i]);
  }
  line += "]}";
  write_line(line);
}

void JournalWriter::append_failure(std::uint64_t shard, unsigned attempts,
                                   const std::string& what) {
  write_line("{\"shard\":" + std::to_string(shard) + ",\"attempts\":" +
             std::to_string(attempts) + ",\"failed\":\"" + telemetry::json_escape(what) +
             "\"}");
}

JournalReader::JournalReader(const std::string& path) {
  const auto header = [&](std::string_view payload, std::size_t) {
    const JsonValue doc = parse_json(payload, path + " (header)");
    const JsonValue* kind = doc.find("kind");
    if (kind == nullptr || kind->text != kJournalKind) {
      throw common::ConfigError("not a campaign journal");
    }
    const std::uint64_t version = doc.at("version").as_u64();
    if (version != 1 && version != kJournalVersion) {
      throw common::ConfigError("unsupported journal version " + std::to_string(version));
    }
    header_.seed = doc.at("seed").as_u64();
    header_.config_hash = std::strtoull(doc.at("config_hash").text.c_str(), nullptr, 16);
    header_.shard_count = doc.at("shards").as_u64();
  };
  const auto record = [&](std::string_view payload, std::size_t line_no) {
    const JsonValue entry = parse_json(payload, path + ":" + std::to_string(line_no));
    ShardOutcome outcome;
    outcome.shard = entry.at("shard").as_u64();
    if (const JsonValue* attempts = entry.find("attempts"); attempts != nullptr) {
      outcome.attempts = static_cast<unsigned>(attempts->as_u64());
    }
    if (const JsonValue* wall = entry.find("wall_ms"); wall != nullptr) {
      outcome.wall_ms = wall->as_double();
    }
    if (const JsonValue* failed = entry.find("failed"); failed != nullptr) {
      // Failure annotation: report fodder only — the shard stays pending,
      // so a resume re-runs it.
      if (failed->kind != JsonValue::Kind::kString) {
        throw common::ConfigError("journal failure line: \"failed\" is not a string");
      }
      outcome.ok = false;
      outcome.error = failed->text;
    } else {
      const JsonValue& array = entry.at("records");
      std::vector<core::RowRecord> records;
      records.reserve(array.items.size());
      for (const JsonValue& r : array.items) records.push_back(parse_row_record(r));
      outcome.records = records.size();
      shards_[outcome.shard] = std::move(records);
    }
    outcomes_.push_back(std::move(outcome));
  };
  scan_ = resilience::scan_jsonl(path, "checkpoint journal", header, record);
  // The header is the trust anchor: nothing below a damaged one can be
  // proven to belong to this sweep.
  if (!scan_.header_intact) {
    throw common::ConfigError("unusable checkpoint journal header in " + path + ": " +
                              scan_.header_error);
  }
}

void render_journal_summary(std::ostream& os, const std::string& path,
                            const JournalReader& reader) {
  const JournalHeader& h = reader.header();
  os << "=== checkpoint journal: " << path << " ===\n";
  os << "sweep: seed " << h.seed << ", config " << common::hash_hex(h.config_hash) << ", "
     << h.shard_count << " shards planned\n";

  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t retried = 0;
  std::size_t records = 0;
  std::vector<double> wall;
  for (const ShardOutcome& o : reader.outcomes()) {
    if (o.ok) {
      ++done;
      records += o.records;
      if (o.wall_ms >= 0.0) wall.push_back(o.wall_ms);
    } else {
      ++failed;
    }
    if (o.attempts > 1) ++retried;
  }
  // Duplicate completion lines can make `done` exceed the distinct count;
  // report both so a resumed journal reads honestly.
  os << "shards: " << reader.shards().size() << "/" << h.shard_count << " complete ("
     << done << " completion lines, " << failed << " failure lines, " << retried
     << " needed retries)  |  records: " << records << '\n';
  if (reader.shards().size() < h.shard_count) {
    os << "pending: " << h.shard_count - reader.shards().size()
       << " shards — rerun with --resume to finish the sweep\n";
  }
  if (!reader.corrupt_lines().empty()) {
    os << "damage: " << reader.corrupt_lines().size()
       << " corrupt line(s) — quarantined and re-run on the next resume\n";
    for (const CorruptLine& line : reader.corrupt_lines()) {
      os << "  line " << line.line_no << ": " << line.reason << '\n';
    }
  }

  if (!wall.empty()) {
    const profiling::LatencySummary lat = profiling::summarize_latencies(wall);
    common::Table latency({"timed shards", "min", "p50", "p90", "p99", "max", "mean",
                           "total s"});
    latency.add_row({std::to_string(lat.count), common::fmt_double(lat.min, 1),
                     common::fmt_double(lat.p50, 1), common::fmt_double(lat.p90, 1),
                     common::fmt_double(lat.p99, 1), common::fmt_double(lat.max, 1),
                     common::fmt_double(lat.mean, 1),
                     common::fmt_double(lat.total_ms * 1e-3, 1)});
    os << "\nwall ms per journaled shard:\n";
    latency.print(os);
  } else {
    os << "(no per-shard wall-ms annotations in this journal)\n";
  }

  for (const ShardOutcome& o : reader.outcomes()) {
    if (!o.ok) {
      os << "failed shard " << o.shard << " after " << o.attempts
         << " attempt" << (o.attempts == 1 ? "" : "s") << ": " << o.error << '\n';
    }
  }
}

void JournalReader::require_matches(const JournalHeader& expected) const {
  if (header_.seed != expected.seed) {
    throw common::ConfigError(
        "checkpoint journal was written for seed " + std::to_string(header_.seed) +
        ", not " + std::to_string(expected.seed) + "; refusing to resume");
  }
  if (header_.shard_count != expected.shard_count) {
    throw common::ConfigError("checkpoint journal covers " + std::to_string(header_.shard_count) +
                              " shards, not " + std::to_string(expected.shard_count) +
                              "; refusing to resume");
  }
  if (header_.config_hash != expected.config_hash) {
    throw common::ConfigError(
        "checkpoint journal config hash " + common::hash_hex(header_.config_hash) +
        " does not match this campaign's " + common::hash_hex(expected.config_hash) +
        " (different stride, patterns, geometry, or characterizer settings); "
        "refusing to resume");
  }
}

}  // namespace rh::campaign
