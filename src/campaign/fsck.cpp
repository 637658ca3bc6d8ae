#include "campaign/fsck.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "campaign/journal.hpp"
#include "campaign/record_io.hpp"
#include "campaign/tail.hpp"
#include "common/error.hpp"
#include "resilience/storage.hpp"

namespace rh::campaign {

namespace {

using common::ConfigError;

bool ends_with(const std::string& text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_descriptor_name(const std::string& name) {
  // Exactly job-<digits>.json: the descriptor, not its report siblings.
  if (name.rfind("job-", 0) != 0) return false;
  const std::string::size_type dot = name.find('.');
  if (dot == std::string::npos || name.substr(dot) != ".json") return false;
  if (dot == 4) return false;
  for (std::string::size_type i = 4; i < dot; ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return false;
  }
  return true;
}

bool valid_job_state(const std::string& text) {
  return text == "queued" || text == "running" || text == "done" || text == "failed" ||
         text == "cancelled";
}

/// Whole-file JSON documents (descriptors, reports): atomically replaced,
/// so any damage means the atomic-write discipline was violated (or the
/// medium rotted) — there is no line structure to salvage.
FsckVerdict fsck_json(const std::string& path, const std::string& name,
                      const std::string& content) {
  FsckVerdict v;
  v.path = path;
  v.type = is_descriptor_name(name)
               ? FsckFileType::kDescriptor
               : (name.find(".report.") != std::string::npos ? FsckFileType::kReport
                                                             : FsckFileType::kOther);
  try {
    const JsonValue doc = parse_json(content, path);
    const JsonValue* schema = doc.find("schema");
    const std::string tag = schema != nullptr ? schema->text : "";
    if (tag == "rh-serve-job/v1") {
      v.type = FsckFileType::kDescriptor;
      (void)doc.at("id").as_u64();
      (void)doc.at("config");
      if (!valid_job_state(doc.at("state").text)) {
        throw ConfigError("unknown job state \"" + doc.at("state").text + "\"");
      }
    } else if (tag == "rh-run-report/v1") {
      v.type = FsckFileType::kReport;
    } else if (v.type != FsckFileType::kOther) {
      throw ConfigError("expected schema tag missing (found \"" + tag + "\")");
    } else {
      v.detail = "foreign json (not validated)";
    }
  } catch (const ConfigError& e) {
    v.status = FsckStatus::kCorrupt;
    v.repairable = false;
    v.issues.push_back({1, e.what()});
    v.detail = "whole-file document damaged — no line structure to salvage";
  }
  return v;
}

/// Identifies a JSONL file's family by the kind its first line names, or
/// by conventional name (.journal. / .stream.) when that line names
/// neither. A bare checkpoint (bench --checkpoint=ck.jsonl) whose header
/// no longer names its kind cannot be proven a journal, so it stays kOther.
FsckFileType jsonl_type(const std::string& path, const std::string& name) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open file: " + path);
  std::string first;
  std::getline(in, first);
  if (first.find("\"rh-campaign-journal\"") != std::string::npos) return FsckFileType::kJournal;
  if (first.find("\"rh-metrics-stream\"") != std::string::npos) return FsckFileType::kStream;
  if (name.find(".journal.") != std::string::npos) return FsckFileType::kJournal;
  if (name.find(".stream.") != std::string::npos) return FsckFileType::kStream;
  return FsckFileType::kOther;
}

/// The file's own reader classifies it: one definition of an intact line,
/// and the reader's header policy. Throws where the reader throws.
resilience::JsonlScan reader_scan(const std::string& path, FsckFileType type) {
  if (type == FsckFileType::kJournal) return JournalReader(path).scan();
  resilience::JsonlScan scan;
  (void)read_metrics_stream(path, &scan);
  return scan;
}

FsckVerdict fsck_jsonl(const std::string& path, FsckFileType type) {
  FsckVerdict v;
  v.path = path;
  v.type = type;
  resilience::JsonlScan scan;
  try {
    scan = reader_scan(path, type);
  } catch (const ConfigError& e) {
    v.status = FsckStatus::kCorrupt;
    v.issues.push_back({1, e.what()});
    v.detail = "damaged header — nothing below it can be trusted";
    return v;
  }
  v.intact_lines = scan.intact_lines.size();
  v.intact_bytes = scan.intact_bytes;
  v.torn_tail = scan.torn_tail;
  for (const resilience::CorruptLine& line : scan.corrupt_lines) {
    v.issues.push_back({line.line_no, line.reason});
  }
  v.repairable = !v.issues.empty() || v.torn_tail;
  if (!v.issues.empty()) {
    v.status = FsckStatus::kCorrupt;
    v.detail = std::to_string(v.issues.size()) + " corrupt mid-file line(s)";
  } else if (v.torn_tail) {
    v.status = FsckStatus::kTorn;
    v.detail = "torn trailing line (intact prefix: " + std::to_string(v.intact_bytes) +
               " bytes)";
  }
  return v;
}

}  // namespace

const char* to_string(FsckStatus status) {
  switch (status) {
    case FsckStatus::kOk: return "ok";
    case FsckStatus::kTorn: return "torn";
    case FsckStatus::kCorrupt: return "corrupt";
    case FsckStatus::kOrphanTmp: return "orphan-tmp";
  }
  return "?";
}

const char* to_string(FsckFileType type) {
  switch (type) {
    case FsckFileType::kJournal: return "journal";
    case FsckFileType::kStream: return "stream";
    case FsckFileType::kDescriptor: return "descriptor";
    case FsckFileType::kReport: return "report";
    case FsckFileType::kQuarantine: return "quarantine";
    case FsckFileType::kTmp: return "tmp";
    case FsckFileType::kOther: return "other";
  }
  return "?";
}

FsckVerdict fsck_file(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  FsckVerdict v;
  v.path = path;

  if (ends_with(name, ".tmp")) {
    v.type = FsckFileType::kTmp;
    v.status = FsckStatus::kOrphanTmp;
    v.repairable = true;
    v.detail = "atomic-write leftover (kill between write and rename)";
    return v;
  }
  if (ends_with(name, ".quarantine")) {
    v.type = FsckFileType::kQuarantine;
    v.detail = "quarantined lines from a past repair (kept verbatim)";
    return v;
  }

  if (ends_with(name, ".jsonl")) {
    const FsckFileType type = jsonl_type(path, name);
    if (type == FsckFileType::kOther) {
      v.detail = "unrecognized jsonl (not validated)";
      return v;
    }
    return fsck_jsonl(path, type);
  }
  if (ends_with(name, ".json")) {
    return fsck_json(path, name, resilience::read_file(path));
  }
  v.detail = "skipped";
  return v;
}

std::vector<FsckVerdict> fsck_scan(const std::string& data_dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(data_dir, ec)) {
    throw ConfigError("not a directory: " + data_dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path().string());
  }
  if (ec) throw ConfigError("cannot list directory: " + data_dir);
  std::sort(paths.begin(), paths.end());

  std::vector<FsckVerdict> verdicts;
  verdicts.reserve(paths.size());
  for (const std::string& path : paths) verdicts.push_back(fsck_file(path));
  return verdicts;
}

std::string fsck_repair(const FsckVerdict& verdict) {
  if (verdict.status == FsckStatus::kOk) return "";
  if (!verdict.repairable) {
    throw ConfigError("unrepairable: " + verdict.path + " (" +
                      (verdict.detail.empty() ? to_string(verdict.status) : verdict.detail) +
                      ")");
  }
  switch (verdict.status) {
    case FsckStatus::kOrphanTmp: {
      if (std::remove(verdict.path.c_str()) != 0) {
        throw ConfigError("cannot remove orphaned tmp file: " + verdict.path);
      }
      return "removed orphaned tmp";
    }
    case FsckStatus::kTorn:
    case FsckStatus::kCorrupt: {
      // Re-classify (verdicts carry only the diagnosis), then apply the
      // repair a resuming journal writer applies.
      const resilience::JsonlScan scan = reader_scan(verdict.path, verdict.type);
      resilience::repair_jsonl(verdict.path, scan, to_string(verdict.type));
      if (scan.corrupt_lines.empty()) {
        return "truncated torn tail to " + std::to_string(scan.intact_bytes) + " bytes";
      }
      std::string note = "quarantined " + std::to_string(scan.corrupt_lines.size()) +
                         " corrupt line(s) to " + verdict.path + ".quarantine";
      if (scan.torn_tail) note += " and dropped the torn tail";
      return note;
    }
    case FsckStatus::kOk: break;
  }
  return "";
}

void render_fsck_report(std::ostream& os, const std::vector<FsckVerdict>& verdicts) {
  std::size_t ok = 0;
  std::size_t torn = 0;
  std::size_t corrupt = 0;
  std::size_t unrepairable = 0;
  std::size_t orphans = 0;
  for (const FsckVerdict& v : verdicts) {
    char line[32];
    std::snprintf(line, sizeof line, "%-10s %-10s ", to_string(v.status), to_string(v.type));
    os << "  " << line << v.path;
    if (v.type == FsckFileType::kJournal || v.type == FsckFileType::kStream) {
      os << " (" << v.intact_lines << " intact line" << (v.intact_lines == 1 ? "" : "s")
         << ")";
    }
    if (!v.detail.empty()) os << " — " << v.detail;
    os << '\n';
    for (const FsckIssue& issue : v.issues) {
      os << "      line " << issue.line_no << ": " << issue.reason << '\n';
    }
    switch (v.status) {
      case FsckStatus::kOk: ++ok; break;
      case FsckStatus::kTorn: ++torn; break;
      case FsckStatus::kCorrupt:
        ++corrupt;
        if (!v.repairable) ++unrepairable;
        break;
      case FsckStatus::kOrphanTmp: ++orphans; break;
    }
  }
  os << "summary: " << verdicts.size() << " file(s) — " << ok << " ok, " << torn << " torn, "
     << corrupt << " corrupt (" << unrepairable << " unrepairable), " << orphans
     << " orphaned tmp\n";
}

}  // namespace rh::campaign
