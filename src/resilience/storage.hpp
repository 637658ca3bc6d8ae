// The storage fault plane and the durable-file primitives built on top of
// it.
//
// Journals, metrics streams, and job descriptors are the only state that
// survives a SIGKILL, so their write paths are the storage plane's
// injection points — short writes, failed fsyncs, post-write bit rot, torn
// lines, ENOSPC — and the recovery code (corruption-tolerant readers,
// quarantine resume, rh_fsck) is regression-tested against every one of
// them. The plane runs on the one fault schedule (fault.hpp), so two runs of
// the same write sequence against the same (seed, plan) tear the same bytes.
//
// Layering:
//   StorageFaultInjector  — FaultSchedule<StorageFaultKind>, the
//                           deterministic "when does the disk lie" oracle
//   frame_line/check_frame — CRC-32 per-line framing (the v2 record format)
//   DurableFile           — append-one-line-then-fsync with injection points
//   AdvisoryFile          — a DurableFile that goes dark on its first failure
//   write_file_atomic     — write-tmp / fsync-tmp / rename / fsync-dir
//   scan_jsonl/repair_jsonl — the one damage classifier and the one repair
//                           for CRC-framed JSONL files (journals, streams)
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "resilience/fault.hpp"

namespace rh::resilience {

/// Everything the storage plane knows how to break, in the order the write
/// path offers the opportunities.
enum class StorageFaultKind : std::uint8_t {
  kEnospc = 0,      ///< write refused outright (disk full) — nothing lands
  kShortWrite,      ///< a strict prefix of the line reaches the file, then error
  kTornLine,        ///< a prefix lands *silently* (power cut between writes)
  kBitCorrupt,      ///< the line lands whole, then bits rot on the medium
  kFsyncFail,       ///< data written but the sync barrier reports failure
};

inline constexpr std::size_t kStorageFaultKindCount = 5;

[[nodiscard]] constexpr std::string_view to_string(StorageFaultKind kind) {
  switch (kind) {
    case StorageFaultKind::kEnospc: return "enospc";
    case StorageFaultKind::kShortWrite: return "short-write";
    case StorageFaultKind::kTornLine: return "torn-line";
    case StorageFaultKind::kBitCorrupt: return "bit-corrupt";
    case StorageFaultKind::kFsyncFail: return "fsync-fail";
  }
  return "?";
}

template <>
struct FaultTraits<StorageFaultKind> {
  static constexpr std::size_t kCount = kStorageFaultKindCount;
  // Distinct from the transport plane's tags, so the two planes' streams
  // stay decorrelated even when both run off the same campaign seed.
  static constexpr std::uint64_t kFireTag = 0x5709A6Eu;
  static constexpr std::uint64_t kShapeTag = 0xD15C5Au;
  /// A disk storm arms every kind.
  static constexpr bool in_storm(StorageFaultKind /*kind*/) { return true; }
};

using ScriptedStorageFault = ScriptedFaultOf<StorageFaultKind>;
using StorageFaultPlan = FaultPlanOf<StorageFaultKind>;
/// One file family's disk-fault stream. Belongs to one writer: journal
/// writers append under the campaign/job lock, the stream writer brings
/// its own mutex.
using StorageFaultInjector = FaultSchedule<StorageFaultKind>;

// ---------------------------------------------------------------------------
// CRC-32 line framing: the v2 record format shared by the campaign journal
// and the metrics stream.
//
//   <payload> '\t' <8 lowercase hex digits of crc32(payload)>
//
// Payloads are compact JSON documents and never contain a tab, so the frame
// is unambiguous; the frame is a pure function of the payload, so every
// byte-identity property over payloads survives framing. v1 lines (bare
// payloads) stay readable: check_frame() reports them as kUnframed and the
// readers accept them without integrity checking.
// ---------------------------------------------------------------------------

/// Result of inspecting one line for a CRC frame.
enum class FrameCheck : std::uint8_t {
  kFramed = 0,  ///< well-formed frame, CRC matches the payload
  kUnframed,    ///< no frame present (a v1 line) — payload is the whole line
  kMismatch,    ///< frame present but the CRC disagrees: the line is corrupt
};

/// Appends the CRC-32 frame to `payload`.
[[nodiscard]] std::string frame_line(std::string_view payload);

/// Classifies `line` and extracts its payload (the whole line for
/// kUnframed, the pre-frame prefix otherwise — also for kMismatch, so
/// callers can quote the damaged payload in diagnostics).
[[nodiscard]] FrameCheck check_frame(std::string_view line, std::string_view& payload);

// ---------------------------------------------------------------------------
// Durable write primitives.
// ---------------------------------------------------------------------------

/// Append-one-line-then-fsync file handle with storage-fault injection
/// points, adopted by the journal writer and by AdvisoryFile.
///
/// Real I/O failures and injected kEnospc / kShortWrite / kFsyncFail throw
/// common::StorageError; kTornLine returns silently with only a prefix on
/// disk (that is the point: the writer believes the line landed);
/// kBitCorrupt lands the whole line and then flips two bits in it through
/// a separate descriptor. Open/creation failures throw
/// common::ConfigError (a path problem, not a durability event).
class DurableFile {
public:
  /// `what` names the file family in error messages ("checkpoint journal").
  /// Truncates (fresh) or appends (resume); `injector` may be null and must
  /// outlive the file.
  DurableFile(std::string path, std::string what, bool truncate,
              StorageFaultInjector* injector);
  ~DurableFile();

  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Writes `line` plus '\n', flushed and fsync'd, with injection points
  /// before (ENOSPC), during (short write, torn line), and after (bit
  /// corruption, fsync failure) the write.
  void write_line(std::string_view line);

  [[nodiscard]] const std::string& path() const { return path_; }

private:
  void flush_and_sync();
  void corrupt_on_disk(std::uint64_t offset, std::size_t length);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string what_;
  StorageFaultInjector* injector_ = nullptr;
  std::uint64_t offset_ = 0;  ///< current end-of-file position
};

/// A DurableFile for advisory records (metrics streams, access logs),
/// which must never cost the work they describe: lines are CRC-framed and
/// appended under one lock, and the first StorageError sends the file dark
/// instead of propagating. A dark file drops every later line and keeps
/// the first failure for degraded()/storage_error().
class AdvisoryFile {
public:
  /// Opens `path` as DurableFile does and, when `header` is non-empty,
  /// writes it as the first line. An open failure throws ConfigError and a
  /// header that cannot land StorageError: a file that never existed is
  /// the caller's call.
  AdvisoryFile(const std::string& path, const std::string& what, bool truncate,
               StorageFaultInjector* injector, std::string_view header = {});

  /// Appends `payload` as one framed line, flushed and fsync'd; a no-op
  /// once dark. Never throws on storage failure.
  void append(std::string_view payload);

  /// True once a storage failure has silenced the file.
  [[nodiscard]] bool degraded() const;
  /// The first storage failure's message ("" while healthy).
  [[nodiscard]] std::string storage_error() const;
  [[nodiscard]] const std::string& path() const { return path_; }

private:
  mutable std::mutex mutex_;
  std::unique_ptr<DurableFile> file_;  ///< null once dark
  std::string path_;
  std::string storage_error_;
};

/// Atomically replaces `path` with `text`: write `path`.tmp, fsync it,
/// rename over `path`, fsync the parent directory. A kill at any point
/// leaves either the old content or the new content at `path` — never a
/// torn file (the orphaned .tmp is rh_fsck fodder, not corruption).
///
/// Injection points: kEnospc (before anything lands), kShortWrite (a torn
/// .tmp is left behind, `path` untouched), kFsyncFail (tmp written but the
/// barrier failed — the caller must assume the new content is not durable).
/// Whole-file replacement has no append seam, so kTornLine/kBitCorrupt do
/// not apply here. Failures throw common::StorageError; open/rename
/// problems throw common::ConfigError.
void write_file_atomic(const std::string& path, std::string_view text,
                       const std::string& what, StorageFaultInjector* injector = nullptr);

/// Reads all of `path`. Throws common::ConfigError when it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path, const std::string& what = "file");

// ---------------------------------------------------------------------------
// Damage classification and repair for CRC-framed JSONL files: a header
// line, then one record per line. The journal reader, the metrics-stream
// reader and rh_fsck all classify through scan_jsonl, so "intact" has one
// definition: the CRC frame holds (or the line is a bare v1 payload) and
// the reader's parse function accepts the payload. A damaged line is a
// torn tail when it is the file's last line (the residue of a kill
// mid-append; a final line without '\n' that parses is intact) and
// corruption otherwise. A damaged header stops the scan: nothing below it
// can be trusted. What a damaged header means is each reader's call.
// ---------------------------------------------------------------------------

/// One damaged line with a successor: quarantine fodder.
struct CorruptLine {
  std::size_t line_no = 0;  ///< 1-based position in the file
  std::string reason;       ///< "CRC mismatch", parse error text, ...
  std::string raw;          ///< the line exactly as it sits on disk
};

/// One JSONL file's damage taxonomy.
struct JsonlScan {
  bool header_intact = false;
  std::string header_error;               ///< why not, when !header_intact
  std::string raw_header;                 ///< as on disk, when intact
  std::vector<std::string> intact_lines;  ///< record lines as on disk, in file order
  /// Damaged lines with a successor, in file order. A damaged header with
  /// lines below it is line 1 here (and the scan stops there).
  std::vector<CorruptLine> corrupt_lines;
  bool torn_tail = false;                 ///< the last line (maybe the header) is damaged
  /// The undamaged prefix: header plus every line before the first damage.
  std::uint64_t intact_bytes = 0;
};

/// Parses one line's payload (line_no is 1-based); throws
/// common::ConfigError when the line is malformed.
using JsonlParse = std::function<void(std::string_view payload, std::size_t line_no)>;

/// Reads and classifies `path`: `parse_header` sees line 1, `parse_record`
/// every later non-empty line whose frame holds, in file order. Throws
/// common::ConfigError only when the file cannot be opened.
[[nodiscard]] JsonlScan scan_jsonl(const std::string& path, const std::string& what,
                                   const JsonlParse& parse_header,
                                   const JsonlParse& parse_record);

/// Restores `path` to the intact lines `scan` found. Tail-only damage is
/// cut back to intact_bytes, and a kept final line lacking its '\n' gets
/// one, so the next append starts a line of its own. Corrupt lines are
/// appended verbatim to `path`.quarantine and the file is rewritten
/// atomically (through `injector`) as header plus intact lines. A scan
/// with a damaged header and lines below it is beyond repair (precondition).
void repair_jsonl(const std::string& path, const JsonlScan& scan, const std::string& what,
                  StorageFaultInjector* injector = nullptr);

}  // namespace rh::resilience
