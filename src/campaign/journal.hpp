// The campaign results journal: a JSONL checkpoint file that makes a killed
// campaign resumable.
//
// Layout (one JSON document per line; since v2 every line carries a CRC-32
// frame — a trailing '\t' + 8 hex digits over the JSON payload):
//
//   {"kind":"rh-campaign-journal","version":2,"seed":...,
//    "config_hash":"<16 hex digits>","shards":N}<TAB>crc    <- header, fsync'd
//   {"shard":7,"attempts":1,"wall_ms":812.4,
//    "records":[{...RowRecord...}, ...]}<TAB>crc            <- per shard, in
//   {"shard":3,"records":[...]}<TAB>crc                        completion order
//   {"shard":9,"attempts":2,"failed":"<error text>"}<TAB>crc <- isolated failure
//
// "attempts"/"wall_ms" are optional cost annotations (rh_report --journal
// renders them); journals written before they existed parse fine, and a
// failure line never counts as a completed shard — resume re-runs it.
//
// v1 journals (bare payloads, no CRC frame) stay fully readable: the reader
// classifies each line independently, so even a mixed file (v1 prefix, v2
// appends after a resume) parses.
//
// The header binds the journal to one exact sweep: the seed, the FNV-1a
// hash of the full campaign configuration (device geometry, scramble,
// temperature, characterizer parameters, and the entire shard plan), and
// the shard count. Resume refuses a journal whose header does not match the
// sweep being run, so stale checkpoints can never silently corrupt results.
//
// Durability and damage tolerance: the header is fsync'd before any work
// starts and every shard line is flushed+fsync'd when appended — a kill can
// lose at most the shard in flight. The reader classifies lines through
// resilience::scan_jsonl, the one classifier rh_fsck and the metrics-stream
// reader share, with the parse below as the journal's definition of an
// intact line: a torn trailing line is ignored (the expected residue of a
// kill mid-append), and a corrupt mid-file line (bit rot, a torn line
// fused with its successor) is recorded, skipped, and its shard re-run on
// resume — resume applies resilience::repair_jsonl, the same quarantine-
// and-compact repair rh_fsck --repair applies. Only a damaged header is
// fatal: nothing below it can be trusted to belong to this sweep.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/characterizer.hpp"
#include "resilience/storage.hpp"

namespace rh::campaign {

class JournalReader;

/// FNV-1a 64-bit hash (used for the journal's config hash).
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// Identity of one sweep, stored in (and checked against) the header line.
struct JournalHeader {
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t shard_count = 0;
};

/// Appends completed shards to the journal. Open/truncate failures throw
/// common::ConfigError; write/sync failures throw common::StorageError
/// (callers degrade — drop the journal, fail the job — rather than abort).
class JournalWriter {
public:
  /// Creates (truncating any previous file) and writes an fsync'd header.
  /// `injector` may be null and must outlive the writer.
  JournalWriter(const std::string& path, const JournalHeader& header,
                resilience::StorageFaultInjector* injector = nullptr);
  /// Reopens a journal for appending (resume) after repairing what
  /// `reader` found (resilience::repair_jsonl): a torn tail is cut off, so
  /// it never ends up *preceding* appended lines; corrupt mid-file lines
  /// go verbatim to `path`.quarantine and the journal is compacted to
  /// header plus every intact line. The quarantined shards are absent from
  /// reader.shards(), so resume re-runs exactly them.
  JournalWriter(const std::string& path, const JournalReader& reader,
                resilience::StorageFaultInjector* injector = nullptr);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Writes one completed shard as a single line, flushed and fsync'd.
  /// `wall_ms` < 0 omits the cost annotations (attempts/wall_ms), keeping
  /// the pre-annotation byte format.
  void append_shard(std::uint64_t shard, const std::vector<core::RowRecord>& records,
                    double wall_ms = -1.0, unsigned attempts = 1);

  /// Journals an isolated shard failure (after the retry budget drained).
  /// Failure lines are report fodder only: resume still re-runs the shard.
  void append_failure(std::uint64_t shard, unsigned attempts, const std::string& what);

private:
  void write_line(const std::string& payload);

  std::unique_ptr<resilience::DurableFile> file_;
};

/// One journal line's cost/outcome annotations, in file order — what
/// rh_report --journal summarizes without re-running anything.
struct ShardOutcome {
  std::uint64_t shard = 0;
  bool ok = true;
  unsigned attempts = 1;
  double wall_ms = -1.0;     ///< < 0 when the line carried no annotation
  std::size_t records = 0;   ///< completed lines only
  std::string error;         ///< failure lines only
};

/// One damaged (non-tail) journal line: quarantine fodder.
using CorruptLine = resilience::CorruptLine;

/// Loads a journal: header plus every intact shard line, with per-line
/// damage classification (resilience::scan_jsonl). A torn final line (kill
/// mid-write) is ignored; a corrupt mid-file line is recorded in
/// corrupt_lines() and skipped — its shard simply stays pending. Only a
/// missing, damaged or foreign header throws (common::ConfigError): a
/// journal whose identity line is damaged cannot be trusted at all.
class JournalReader {
public:
  explicit JournalReader(const std::string& path);

  [[nodiscard]] const JournalHeader& header() const { return header_; }
  /// Completed shards by index. Duplicate lines: the last one wins.
  [[nodiscard]] const std::map<std::uint64_t, std::vector<core::RowRecord>>& shards() const {
    return shards_;
  }
  /// Every intact shard line (completions and failures), in file order.
  [[nodiscard]] const std::vector<ShardOutcome>& outcomes() const { return outcomes_; }

  /// Mid-file lines that failed their CRC or did not parse, in file order.
  [[nodiscard]] const std::vector<CorruptLine>& corrupt_lines() const {
    return scan_.corrupt_lines;
  }
  /// True when the final line was torn (ignored, not corruption).
  [[nodiscard]] bool torn_tail() const { return scan_.torn_tail; }

  /// The header line exactly as it sits on disk.
  [[nodiscard]] const std::string& raw_header() const { return scan_.raw_header; }
  /// The full line classification (what resume repairs and rh_fsck reports).
  [[nodiscard]] const resilience::JsonlScan& scan() const { return scan_; }

  /// Throws common::ConfigError naming the mismatched field if the journal
  /// was written for a different sweep than `expected`.
  void require_matches(const JournalHeader& expected) const;

  /// Byte length of the journal's undamaged prefix: the header plus every
  /// intact line up to the first corrupt line or the torn tail.
  [[nodiscard]] std::uint64_t intact_bytes() const { return scan_.intact_bytes; }

private:
  JournalHeader header_;
  std::map<std::uint64_t, std::vector<core::RowRecord>> shards_;
  std::vector<ShardOutcome> outcomes_;
  resilience::JsonlScan scan_;
};

/// Renders a human summary of a journal (shards done/failed/retried,
/// wall-ms-per-shard percentiles when the journal carries annotations,
/// damage report when lines were quarantined) — the standalone
/// `rh_report --journal` view of a possibly killed campaign.
void render_journal_summary(std::ostream& os, const std::string& path,
                            const JournalReader& reader);

}  // namespace rh::campaign
