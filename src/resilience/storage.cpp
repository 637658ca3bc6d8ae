#include "resilience/storage.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "resilience/crc32.hpp"

#if __has_include(<unistd.h>) && __has_include(<fcntl.h>)
#include <fcntl.h>
#include <unistd.h>
#define RH_STORAGE_HAS_FSYNC 1
#endif

namespace rh::resilience {

namespace {

using common::ConfigError;
using common::StorageError;

/// Bits a bit-corrupt fault rots per line (CRC-32 detects any 1..3-bit
/// error).
constexpr std::uint32_t kRotBits = 2;

constexpr std::size_t kFrameHexDigits = 8;
// '\t' + 8 hex digits.
constexpr std::size_t kFrameBytes = 1 + kFrameHexDigits;

std::uint32_t payload_crc(std::string_view payload) {
  return crc32({reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
}

void fsync_or_throw(std::FILE* file, const std::string& what, const std::string& path) {
  if (std::fflush(file) != 0) {
    throw StorageError("cannot flush " + what + ": " + path);
  }
#ifdef RH_STORAGE_HAS_FSYNC
  if (::fsync(fileno(file)) != 0) {
    throw StorageError("cannot fsync " + what + ": " + path);
  }
#endif
}

}  // namespace

std::string frame_line(std::string_view payload) {
  char frame[kFrameBytes + 1];
  std::snprintf(frame, sizeof frame, "\t%08x", payload_crc(payload));
  return std::string(payload) + frame;
}

FrameCheck check_frame(std::string_view line, std::string_view& payload) {
  payload = line;
  if (line.size() < kFrameBytes || line[line.size() - kFrameBytes] != '\t') {
    return FrameCheck::kUnframed;
  }
  const std::string_view hex = line.substr(line.size() - kFrameHexDigits);
  std::uint32_t stored = 0;
  for (const char c : hex) {
    if (c >= '0' && c <= '9') {
      stored = stored * 16 + static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      stored = stored * 16 + static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      // A tab this close to the end but no hex digest: not a frame. JSON
      // payloads escape tabs, so this only happens to damaged lines —
      // which the payload-level parse will then reject.
      return FrameCheck::kUnframed;
    }
  }
  payload = line.substr(0, line.size() - kFrameBytes);
  return payload_crc(payload) == stored ? FrameCheck::kFramed : FrameCheck::kMismatch;
}

DurableFile::DurableFile(std::string path, std::string what, bool truncate,
                         StorageFaultInjector* injector)
    : path_(std::move(path)), what_(std::move(what)), injector_(injector) {
  file_ = std::fopen(path_.c_str(), truncate ? "wb" : "r+b");
  if (file_ == nullptr) {
    throw ConfigError("cannot " + std::string(truncate ? "create" : "reopen") + " " + what_ +
                      ": " + path_);
  }
  if (!truncate) {
    if (std::fseek(file_, 0, SEEK_END) != 0) {
      std::fclose(file_);
      file_ = nullptr;
      throw ConfigError("cannot seek to end of " + what_ + ": " + path_);
    }
    offset_ = static_cast<std::uint64_t>(std::ftell(file_));
  }
}

DurableFile::~DurableFile() {
  if (file_ != nullptr) std::fclose(file_);
}

void DurableFile::flush_and_sync() { fsync_or_throw(file_, what_, path_); }

void DurableFile::corrupt_on_disk(std::uint64_t offset, std::size_t length) {
  // A separate descriptor: file_ is in append position, and on POSIX an
  // "a"-mode stream writes at end-of-file regardless of seeks anyway.
  std::FILE* side = std::fopen(path_.c_str(), "r+b");
  if (side == nullptr) return;  // best-effort rot; the write itself succeeded
  for (std::uint32_t i = 0; i < kRotBits; ++i) {
    const auto pos = static_cast<long>(offset + injector_->shape() % length);
    const auto bit = static_cast<int>(injector_->shape() % 8);
    if (std::fseek(side, pos, SEEK_SET) != 0) break;
    const int c = std::fgetc(side);
    if (c == EOF) break;
    if (std::fseek(side, pos, SEEK_SET) != 0) break;
    if (std::fputc(c ^ (1 << bit), side) == EOF) break;
  }
  std::fflush(side);
#ifdef RH_STORAGE_HAS_FSYNC
  ::fsync(fileno(side));
#endif
  std::fclose(side);
}

void DurableFile::write_line(std::string_view line) {
  if (injector_ != nullptr) {
    if (injector_->should_fire(StorageFaultKind::kEnospc)) {
      throw StorageError("injected ENOSPC on " + what_ + ": " + path_);
    }
    if (!line.empty() && injector_->should_fire(StorageFaultKind::kShortWrite)) {
      // A strict prefix reaches the file and the write reports failure —
      // the torn tail the reader must later shrug off.
      const std::size_t keep = injector_->shape() % line.size();
      if (keep > 0 && std::fwrite(line.data(), 1, keep, file_) != keep) {
        throw StorageError("cannot write " + what_ + ": " + path_);
      }
      std::fflush(file_);
      offset_ += keep;
      throw StorageError("injected short write (" + std::to_string(keep) + "/" +
                         std::to_string(line.size()) + " bytes) on " + what_ + ": " + path_);
    }
    if (!line.empty() && injector_->should_fire(StorageFaultKind::kTornLine)) {
      // The nastier variant: a prefix lands with NO error reported (power
      // cut after the page-cache copy). If this was the last write the file
      // just has a torn tail; if more lines follow, the tear fuses with the
      // next line into mid-file corruption — exactly what quarantine resume
      // and rh_fsck exist for.
      const std::size_t keep = 1 + injector_->shape() % line.size();
      if (std::fwrite(line.data(), 1, keep, file_) != keep) {
        throw StorageError("cannot write " + what_ + ": " + path_);
      }
      flush_and_sync();
      offset_ += keep;
      return;
    }
  }

  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF) {
    throw StorageError("cannot write " + what_ + ": " + path_);
  }
  if (std::fflush(file_) != 0) {
    throw StorageError("cannot flush " + what_ + ": " + path_);
  }
  if (injector_ != nullptr && !line.empty() &&
      injector_->should_fire(StorageFaultKind::kBitCorrupt)) {
    // The line is on disk and the writer saw success; the medium then rots
    // kRotBits bits inside it (never the newline — byte rot within a
    // line is the CRC's job; eaten line breaks are the torn-line fault's).
    corrupt_on_disk(offset_, line.size());
  }
  if (injector_ != nullptr && injector_->should_fire(StorageFaultKind::kFsyncFail)) {
    offset_ += line.size() + 1;
    throw StorageError("injected fsync failure on " + what_ + ": " + path_);
  }
  flush_and_sync();
  offset_ += line.size() + 1;
}

AdvisoryFile::AdvisoryFile(const std::string& path, const std::string& what, bool truncate,
                           StorageFaultInjector* injector, std::string_view header)
    : file_(std::make_unique<DurableFile>(path, what, truncate, injector)), path_(path) {
  if (!header.empty()) file_->write_line(frame_line(header));
}

void AdvisoryFile::append(std::string_view payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;  // already dark
  try {
    file_->write_line(frame_line(payload));
  } catch (const StorageError& e) {
    // Go dark and remember why; the owner reads degraded() to surface it.
    storage_error_ = e.what();
    file_.reset();
  }
}

bool AdvisoryFile::degraded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return file_ == nullptr;
}

std::string AdvisoryFile::storage_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return storage_error_;
}

void write_file_atomic(const std::string& path, std::string_view text,
                       const std::string& what, StorageFaultInjector* injector) {
  if (injector != nullptr && injector->should_fire(StorageFaultKind::kEnospc)) {
    throw StorageError("injected ENOSPC writing " + what + ": " + path);
  }
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw ConfigError("cannot create " + what + " temp file: " + tmp);
  }
  const bool short_write =
      injector != nullptr && !text.empty() && injector->should_fire(StorageFaultKind::kShortWrite);
  const std::size_t n = short_write ? injector->shape() % text.size() : text.size();
  if (std::fwrite(text.data(), 1, n, file) != n) {
    std::fclose(file);
    throw StorageError("cannot write " + what + ": " + tmp);
  }
  if (short_write) {
    // The torn .tmp stays behind (an orphan for rh_fsck); `path` itself is
    // untouched — that is the whole point of the write-then-rename shape.
    std::fflush(file);
    std::fclose(file);
    throw StorageError("injected short write (" + std::to_string(n) + "/" +
                       std::to_string(text.size()) + " bytes) on " + what + ": " + tmp);
  }
  try {
    // fsync BEFORE rename: otherwise a power loss can leave the rename
    // durable but the data not, i.e. a valid-looking empty/garbage file
    // where the old good content used to be.
    fsync_or_throw(file, what, tmp);
  } catch (...) {
    std::fclose(file);
    throw;
  }
  if (injector != nullptr && injector->should_fire(StorageFaultKind::kFsyncFail)) {
    std::fclose(file);
    throw StorageError("injected fsync failure on " + what + ": " + tmp);
  }
  std::fclose(file);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot rename " + what + " into place: " + path);
  }
#ifdef RH_STORAGE_HAS_FSYNC
  // fsync the parent directory so the rename itself survives power loss.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      throw StorageError("cannot fsync parent directory of " + what + ": " + dir);
    }
  }
#endif
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot open " + what + ": " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

JsonlScan scan_jsonl(const std::string& path, const std::string& what,
                     const JsonlParse& parse_header, const JsonlParse& parse_record) {
  const std::string content = read_file(path, what);
  std::vector<std::string_view> lines;
  for (std::size_t start = 0; start < content.size();) {
    const std::size_t nl = std::min(content.find('\n', start), content.size());
    lines.push_back(std::string_view(content).substr(start, nl - start));
    start = nl + 1;
  }
  // "" when the line is intact, else why not.
  const auto classify = [](std::string_view line, std::size_t line_no, const JsonlParse& parse) {
    std::string_view payload;
    if (check_frame(line, payload) == FrameCheck::kMismatch) return std::string("CRC mismatch");
    try {
      parse(payload, line_no);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  JsonlScan scan;
  scan.header_error = lines.empty() ? "empty file" : classify(lines[0], 1, parse_header);
  if (!scan.header_error.empty()) {
    if (lines.size() == 1) {
      scan.torn_tail = true;
    } else if (lines.size() > 1) {
      scan.corrupt_lines.push_back({1, scan.header_error, std::string(lines[0])});
    }
    return scan;
  }
  scan.header_intact = true;
  scan.raw_header = lines[0];
  scan.intact_bytes = lines[0].size() + 1;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    const bool in_prefix = scan.corrupt_lines.empty();
    std::string reason = line.empty() ? "" : classify(line, i + 1, parse_record);
    if (reason.empty()) {
      if (!line.empty()) scan.intact_lines.emplace_back(line);
      if (in_prefix) scan.intact_bytes += line.size() + 1;
    } else if (i + 1 == lines.size()) {
      scan.torn_tail = true;
    } else {
      scan.corrupt_lines.push_back({i + 1, std::move(reason), std::string(line)});
    }
  }
  // An intact final line without its '\n' is one byte short on disk.
  scan.intact_bytes = std::min<std::uint64_t>(scan.intact_bytes, content.size());
  return scan;
}

void repair_jsonl(const std::string& path, const JsonlScan& scan, const std::string& what,
                  StorageFaultInjector* injector) {
  RH_EXPECTS(scan.header_intact || scan.corrupt_lines.empty());
  if (scan.corrupt_lines.empty()) {
    std::error_code ec;
    if (std::filesystem::file_size(path, ec) > scan.intact_bytes && !ec) {
      std::filesystem::resize_file(path, scan.intact_bytes, ec);
    }
    if (ec) throw ConfigError("cannot truncate torn tail of " + what + ": " + path);
    std::FILE* file = std::fopen(path.c_str(), "r+b");
    if (file == nullptr) throw ConfigError("cannot reopen " + what + ": " + path);
    const bool unterminated = std::fseek(file, -1, SEEK_END) == 0 && std::fgetc(file) != '\n';
    const bool ok = !unterminated ||
                    (std::fseek(file, 0, SEEK_END) == 0 && std::fputc('\n', file) != EOF);
    if (std::fclose(file) != 0 || !ok) throw StorageError("cannot write " + what + ": " + path);
    return;
  }
  // Nothing is ever silently discarded: the damaged lines move verbatim to
  // a sidecar before the file is compacted.
  const std::string qpath = path + ".quarantine";
  std::ofstream quarantine(qpath, std::ios::app | std::ios::binary);
  for (const CorruptLine& line : scan.corrupt_lines) quarantine << line.raw << '\n';
  quarantine.flush();
  if (!quarantine) throw ConfigError("cannot write " + what + " quarantine file: " + qpath);
  std::string compacted = scan.raw_header + '\n';
  for (const std::string& line : scan.intact_lines) {
    compacted += line;
    compacted += '\n';
  }
  write_file_atomic(path, compacted, what, injector);
}

}  // namespace rh::resilience
