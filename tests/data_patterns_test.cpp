#include "core/data_patterns.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rh::core {
namespace {

TEST(DataPatterns, Table1VictimBytes) {
  EXPECT_EQ(victim_byte(DataPattern::kRowstripe0), 0x00);
  EXPECT_EQ(victim_byte(DataPattern::kRowstripe1), 0xFF);
  EXPECT_EQ(victim_byte(DataPattern::kCheckered0), 0x55);
  EXPECT_EQ(victim_byte(DataPattern::kCheckered1), 0xAA);
}

TEST(DataPatterns, Table1AggressorBytes) {
  EXPECT_EQ(aggressor_byte(DataPattern::kRowstripe0), 0xFF);
  EXPECT_EQ(aggressor_byte(DataPattern::kRowstripe1), 0x00);
  EXPECT_EQ(aggressor_byte(DataPattern::kCheckered0), 0xAA);
  EXPECT_EQ(aggressor_byte(DataPattern::kCheckered1), 0x55);
}

TEST(DataPatterns, SurroundingRowsCarryTheVictimByte) {
  // Table 1: V±[2:8] match the victim row's value.
  for (const auto p : kAllPatterns) {
    EXPECT_EQ(surround_byte(p), victim_byte(p));
  }
}

TEST(DataPatterns, AggressorIsAlwaysTheVictimComplement) {
  for (const auto p : kAllPatterns) {
    EXPECT_EQ(aggressor_byte(p), static_cast<std::uint8_t>(~victim_byte(p)));
  }
}

TEST(DataPatterns, NamesRoundTrip) {
  EXPECT_EQ(to_string(DataPattern::kRowstripe0), "Rowstripe0");
  EXPECT_EQ(to_string(DataPattern::kRowstripe1), "Rowstripe1");
  EXPECT_EQ(to_string(DataPattern::kCheckered0), "Checkered0");
  EXPECT_EQ(to_string(DataPattern::kCheckered1), "Checkered1");
}

TEST(DataPatterns, RowImageFillsTheWholeRow) {
  const auto geometry = hbm::paper_geometry();
  const auto image = make_row_image(geometry, 0x5A);
  EXPECT_EQ(image.size(), geometry.row_bytes());
  for (const auto b : image) EXPECT_EQ(b, 0x5A);
}

TEST(DataPatterns, AllPatternsEnumeratesFour) {
  EXPECT_EQ(kAllPatterns.size(), 4u);
}

/// The per-byte reference count_flips replaces.
FlipCount reference_flips(const std::vector<std::uint8_t>& readback, std::uint8_t expected) {
  FlipCount out;
  for (const std::uint8_t got : readback) {
    const auto diff = static_cast<unsigned>(got ^ expected);
    out.total += static_cast<std::uint64_t>(std::popcount(diff));
    out.ones_to_zeros += static_cast<std::uint64_t>(std::popcount(diff & expected));
    out.zeros_to_ones +=
        static_cast<std::uint64_t>(std::popcount(diff & static_cast<unsigned>(~expected & 0xffu)));
  }
  return out;
}

void expect_same(const FlipCount& got, const FlipCount& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.ones_to_zeros, want.ones_to_zeros);
  EXPECT_EQ(got.zeros_to_ones, want.zeros_to_ones);
}

TEST(DataPatterns, CountFlipsMatchesThePerByteReferenceForEveryByte) {
  // Every byte value against every Table 1 victim byte, at each position of
  // a word and in a tail shorter than a word.
  for (const auto p : kAllPatterns) {
    const std::uint8_t expected = victim_byte(p);
    SCOPED_TRACE(to_string(p));
    for (unsigned value = 0; value < 256; ++value) {
      for (std::size_t at = 0; at < 11; ++at) {
        std::vector<std::uint8_t> readback(11, expected);
        readback[at] = static_cast<std::uint8_t>(value);
        expect_same(count_flips(readback, expected), reference_flips(readback, expected));
      }
    }
  }
}

TEST(DataPatterns, CountFlipsHandlesLengthsThatAreNotWordMultiples) {
  for (const auto p : kAllPatterns) {
    const std::uint8_t expected = victim_byte(p);
    for (const std::size_t length : {0u, 1u, 7u, 8u, 9u, 15u, 17u, 1023u, 1024u, 1031u}) {
      SCOPED_TRACE(length);
      std::vector<std::uint8_t> readback(length);
      for (std::size_t i = 0; i < length; ++i) {
        readback[i] = static_cast<std::uint8_t>(i * 37 + 11);
      }
      expect_same(count_flips(readback, expected), reference_flips(readback, expected));
    }
  }
}

TEST(DataPatterns, CountFlipsSplitsDirections) {
  // 0x55 written, 0xF0 read: bits 7, 5 went 0->1, bits 2, 0 went 1->0.
  const std::vector<std::uint8_t> readback = {0xF0};
  const FlipCount flips = count_flips(readback, 0x55);
  EXPECT_EQ(flips.total, 4u);
  EXPECT_EQ(flips.ones_to_zeros, 2u);
  EXPECT_EQ(flips.zeros_to_ones, 2u);
}

}  // namespace
}  // namespace rh::core
