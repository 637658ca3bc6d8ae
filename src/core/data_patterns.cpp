#include "core/data_patterns.hpp"

#include <bit>
#include <cstring>

namespace rh::core {

std::vector<std::uint8_t> make_row_image(const hbm::Geometry& geometry, std::uint8_t value) {
  return std::vector<std::uint8_t>(geometry.row_bytes(), value);
}

FlipCount count_flips(std::span<const std::uint8_t> readback, std::uint8_t expected) {
  FlipCount out;
  const auto tally = [&](std::uint64_t got, std::uint64_t want) {
    const std::uint64_t diff = got ^ want;
    if (diff == 0) return;  // the common case: a clean word
    out.total += static_cast<std::uint64_t>(std::popcount(diff));
    out.ones_to_zeros += static_cast<std::uint64_t>(std::popcount(diff & want));
  };
  const std::uint64_t want = 0x0101010101010101ULL * expected;
  std::size_t i = 0;
  for (; i + 8 <= readback.size(); i += 8) {
    std::uint64_t got = 0;
    std::memcpy(&got, readback.data() + i, 8);
    tally(got, want);
  }
  for (; i < readback.size(); ++i) tally(readback[i], expected);
  out.zeros_to_ones = out.total - out.ones_to_zeros;
  return out;
}

}  // namespace rh::core
