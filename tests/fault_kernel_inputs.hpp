// Inputs for the fast fault kernels' identity tests: random draws, and the
// boundary inputs. The kernels switch path (cached tail or reference scan)
// and return early at exact threshold values, and cut the tail at an exact
// lane sum, so the tests feed both models the inputs on and beside those
// edges, ulp by ulp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/cell_traits.hpp"
#include "fault/context.hpp"
#include "hbm/geometry.hpp"

namespace rh::test {

/// A uniformly drawn bank of the stack.
inline fault::BankContext random_bank(const hbm::Geometry& geometry, common::Xoshiro256& rng) {
  const auto draw = [&](std::uint32_t n) { return static_cast<std::uint32_t>(rng.below(n)); };
  return fault::BankContext::from(
      geometry, hbm::BankAddress{draw(geometry.channels),
                                 draw(geometry.pseudo_channels_per_channel),
                                 draw(geometry.banks_per_pseudo_channel)});
}

/// A row image of uniformly drawn bytes.
inline std::vector<std::uint8_t> random_row(const hbm::Geometry& geometry,
                                            common::Xoshiro256& rng) {
  std::vector<std::uint8_t> data(geometry.row_bytes());
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
  return data;
}

/// The doubles around `guess` (> 0) at which the non-decreasing `f`
/// crosses `target`: the last x with f(x) < target, every x with
/// f(x) == target, and the first x with f(x) > target.
template <typename F>
std::vector<double> crossing(const F& f, double target, double guess) {
  double x = guess;
  while (f(x) >= target) x = std::nextafter(x, 0.0);
  while (f(std::nextafter(x, HUGE_VAL)) < target) x = std::nextafter(x, HUGE_VAL);
  std::vector<double> xs{x};
  do {
    x = std::nextafter(x, HUGE_VAL);
    xs.push_back(x);
  } while (f(x) <= target);
  return xs;
}

/// The lane sums of the first `bits` cells of a row under stream `s`, in
/// bit order.
inline std::vector<std::uint32_t> lane_sums(std::uint64_t seed, fault::Stream s,
                                            const fault::BankContext& b, std::uint32_t row,
                                            std::uint32_t bits) {
  const fault::RowHash hash(seed, s, b, row);
  std::vector<std::uint32_t> sums(bits);
  for (std::uint32_t bit = 0; bit < bits; ++bit) sums[bit] = common::lane_sum(hash.at(bit));
  return sums;
}

/// The two smallest distinct z values among `sums`: the row's weakest cell
/// and the next weakest.
inline std::vector<double> weakest_two_z(std::vector<std::uint32_t> sums) {
  std::sort(sums.begin(), sums.end());
  sums.erase(std::unique(sums.begin(), sums.end()), sums.end());
  return {common::approx_normal_of_lane_sum(sums[0]), common::approx_normal_of_lane_sum(sums[1])};
}

}  // namespace rh::test
