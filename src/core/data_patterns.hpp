// The paper's Table 1 data patterns.
//
// Each test initializes the victim row V, its two aggressors V±1, and the
// surrounding rows V±[2:8] with a fixed byte each:
//
//   pattern      victim  aggressors  V±[2:8]
//   Rowstripe0    0x00      0xFF       0x00
//   Rowstripe1    0xFF      0x00       0xFF
//   Checkered0    0x55      0xAA       0x55
//   Checkered1    0xAA      0x55       0xAA
//
// The paper's WCDP ("worst-case data pattern") is chosen *per row*: the
// pattern with the smallest HC_first, ties broken by the largest BER at
// 256 K hammers (§3.1).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hbm/geometry.hpp"

namespace rh::core {

enum class DataPattern : std::uint8_t {
  kRowstripe0,
  kRowstripe1,
  kCheckered0,
  kCheckered1,
};

inline constexpr std::array<DataPattern, 4> kAllPatterns{
    DataPattern::kRowstripe0, DataPattern::kRowstripe1, DataPattern::kCheckered0,
    DataPattern::kCheckered1};

[[nodiscard]] constexpr std::string_view to_string(DataPattern p) {
  switch (p) {
    case DataPattern::kRowstripe0: return "Rowstripe0";
    case DataPattern::kRowstripe1: return "Rowstripe1";
    case DataPattern::kCheckered0: return "Checkered0";
    case DataPattern::kCheckered1: return "Checkered1";
  }
  return "?";
}

[[nodiscard]] constexpr std::uint8_t victim_byte(DataPattern p) {
  switch (p) {
    case DataPattern::kRowstripe0: return 0x00;
    case DataPattern::kRowstripe1: return 0xFF;
    case DataPattern::kCheckered0: return 0x55;
    case DataPattern::kCheckered1: return 0xAA;
  }
  return 0;
}

[[nodiscard]] constexpr std::uint8_t aggressor_byte(DataPattern p) {
  switch (p) {
    case DataPattern::kRowstripe0: return 0xFF;
    case DataPattern::kRowstripe1: return 0x00;
    case DataPattern::kCheckered0: return 0xAA;
    case DataPattern::kCheckered1: return 0x55;
  }
  return 0;
}

/// Rows V±[2:8] carry the victim byte (Table 1).
[[nodiscard]] constexpr std::uint8_t surround_byte(DataPattern p) { return victim_byte(p); }

/// Builds a full row image filled with `value`.
[[nodiscard]] std::vector<std::uint8_t> make_row_image(const hbm::Geometry& geometry,
                                                       std::uint8_t value);

/// Bit flips in a readback of rows that were written with `expected` in
/// every byte.
struct FlipCount {
  std::uint64_t total = 0;
  std::uint64_t ones_to_zeros = 0;  ///< written 1, read 0
  std::uint64_t zeros_to_ones = 0;  ///< written 0, read 1
};

/// Counts the flips in `readback` against `expected`, a 64-bit word at a
/// time (any length; a tail shorter than a word is counted too).
[[nodiscard]] FlipCount count_flips(std::span<const std::uint8_t> readback,
                                    std::uint8_t expected);

}  // namespace rh::core
