// Offline integrity checking and repair for the durable campaign state —
// the library behind tools/rh_fsck.
//
// A serve data dir (or a bench working dir) accumulates four kinds of
// durable files: checkpoint journals and metrics streams (append-only
// JSONL, CRC-framed since v2), job descriptors and run reports (whole-file
// JSON, atomically replaced), plus two kinds of residue — orphaned `.tmp`
// files from a kill between write and rename, and `.quarantine` sidecars
// from past repairs. fsck has no line rules of its own: a journal is
// classified by JournalReader and a stream by read_metrics_stream, both
// through resilience::scan_jsonl, so a verdict (ok / torn tail / corrupt)
// is the reader's own view, header policy included. Repair calls
// resilience::repair_jsonl, the repair resume applies — truncate a torn
// tail, quarantine corrupt lines and compact — and deletes orphaned tmps.
// Whole-file JSON documents have no line structure to salvage, so a
// corrupt descriptor or report — like a JSONL file its reader refuses — is
// reported as unrepairable: the operator decides (the data may still be
// recoverable from the journal).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rh::campaign {

enum class FsckStatus : std::uint8_t {
  kOk = 0,     ///< fully intact (includes files fsck does not interpret)
  kTorn,       ///< only the trailing line is damaged — truncation repairs it
  kCorrupt,    ///< damage beyond the tail; repairable iff line-structured
  kOrphanTmp,  ///< leftover atomic-write temp file — deletion repairs it
};

enum class FsckFileType : std::uint8_t {
  kJournal = 0,  ///< rh-campaign-journal JSONL
  kStream,       ///< rh-metrics-stream JSONL
  kDescriptor,   ///< rh-serve-job/v1 whole-file JSON
  kReport,       ///< rh-run-report/v1 whole-file JSON
  kQuarantine,   ///< .quarantine sidecar from a past repair (not validated)
  kTmp,          ///< .tmp atomic-write leftover
  kOther,        ///< not a file fsck interprets
};

[[nodiscard]] const char* to_string(FsckStatus status);
[[nodiscard]] const char* to_string(FsckFileType type);

/// One damaged line (kCorrupt verdicts on JSONL files).
struct FsckIssue {
  std::size_t line_no = 0;  ///< 1-based position in the file
  std::string reason;       ///< "CRC mismatch", parse error text, ...
};

/// One file's verdict.
struct FsckVerdict {
  std::string path;
  FsckFileType type = FsckFileType::kOther;
  FsckStatus status = FsckStatus::kOk;
  bool repairable = false;     ///< fsck_repair() can restore integrity
  std::uint64_t intact_lines = 0;  ///< JSONL record lines that validated
  std::uint64_t intact_bytes = 0;  ///< undamaged prefix (truncation point)
  bool torn_tail = false;      ///< trailing line damaged (also set on kCorrupt)
  std::vector<FsckIssue> issues;   ///< mid-file damage, in file order
  std::string detail;          ///< one-line elaboration for the report
};

/// Classifies one file. Never throws on damage (damage IS the verdict);
/// throws common::ConfigError only when the file cannot be read at all.
[[nodiscard]] FsckVerdict fsck_file(const std::string& path);

/// Classifies every regular file directly inside `data_dir`, sorted by
/// path. Throws common::ConfigError if the directory cannot be listed.
[[nodiscard]] std::vector<FsckVerdict> fsck_scan(const std::string& data_dir);

/// Applies the repair a verdict calls for: resilience::repair_jsonl on the
/// file reader's fresh scan of a torn or corrupt JSONL file (truncates a
/// torn tail; moves corrupt lines to `path`.quarantine and compacts with
/// an atomic rewrite), or deletes an orphaned tmp. Returns a one-line note
/// of what was done ("" when the file needed nothing). Throws
/// common::ConfigError when the verdict is unrepairable or the repair
/// itself fails.
std::string fsck_repair(const FsckVerdict& verdict);

/// Human rendering: one verdict line per file plus a summary tally.
void render_fsck_report(std::ostream& os, const std::vector<FsckVerdict>& verdicts);

}  // namespace rh::campaign
