// Aligned ASCII table rendering for bench harness output. Every figure/table
// bench prints the series the paper plots as one of these tables.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rh::common {

/// A simple column-aligned text table.
///
/// Usage:
///   Table t({"channel", "mean BER (%)", "max BER (%)"});
///   t.add_row({"0", "0.81", "1.54"});
///   t.print(std::cout);
class Table {
public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Renders with a header rule and right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

  /// Renders as CSV (no alignment, comma-separated, header first).
  void print_csv(std::ostream& os) const;

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant decimal places.
[[nodiscard]] std::string fmt_double(double v, int digits = 4);

/// Formats a fraction as a percentage string, e.g. 0.0313 -> "3.13%".
[[nodiscard]] std::string fmt_percent(double fraction, int digits = 2);

/// Formats a 64-bit hash as 16 lowercase hex digits, zero-padded: the one
/// rendering of config hashes in journals, streams and the service API.
[[nodiscard]] std::string hash_hex(std::uint64_t h);

}  // namespace rh::common
