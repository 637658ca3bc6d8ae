#include "common/table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <ostream>

#include "common/assert.hpp"

namespace rh::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  RH_EXPECTS(!header_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  RH_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  if (s.rfind("0x", 0) == 0) return false;  // hex literals read as labels
  for (char c : s) {
    if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' || c == '-' || c == '+' ||
          c == 'e' || c == 'E' || c == '%' || c == 'x')) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = widths[c] - row[c].size();
      os << "  ";
      if (looks_numeric(row[c]) && c > 0) {
        os << std::string(pad, ' ') << row[c];
      } else {
        os << row[c] << std::string(pad, ' ');
      }
    }
    os << '\n';
  };

  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string fmt_double(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_percent(double fraction, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", digits, fraction * 100.0);
  return buf;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace rh::common
