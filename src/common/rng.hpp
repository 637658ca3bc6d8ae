// Deterministic randomness for the device simulator and the fault model.
//
// Two kinds of randomness are needed:
//
//  1. *Counter-based* ("hash") randomness: every DRAM cell owns random
//     quantities (RowHammer threshold, retention time, orientation jitter)
//     that must be (a) reproducible across runs, (b) addressable without
//     storing per-cell state (a 4 GiB stack has 2^35 cells), and (c)
//     statistically independent. We derive them as pure functions of
//     (seed, channel, pseudo-channel, bank, row, bit) via SplitMix64
//     finalization, the standard stateless construction.
//
//  2. *Sequential* randomness for host-side experiment decisions (row
//     sampling, shuffles): a small xoshiro256** engine, seeded explicitly.
//
// All distribution helpers are branch-light so the fault model can evaluate
// millions of cells per second.
#pragma once

#include <array>
#include <cstdint>

namespace rh::common {

/// SplitMix64 finalizer: bijective avalanche mixer over 64-bit words.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a running hash with one more word (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept {
  return splitmix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Stateless hash of up to five coordinates, used to address per-cell
/// randomness: hash_coords(seed, channel, bank, row, bit) and similar.
[[nodiscard]] constexpr std::uint64_t hash_coords(std::uint64_t seed, std::uint64_t a,
                                                  std::uint64_t b = 0, std::uint64_t c = 0,
                                                  std::uint64_t d = 0) noexcept {
  std::uint64_t h = splitmix64(seed);
  h = hash_combine(h, a);
  h = hash_combine(h, b);
  h = hash_combine(h, c);
  h = hash_combine(h, d);
  return h;
}

/// Maps a 64-bit hash to a uniform double in [0, 1).
[[nodiscard]] constexpr double to_unit_double(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Irwin-Hall lane sum of a 64-bit hash: the sum of its four 16-bit lanes,
/// an integer in [0, kMaxLaneSum]. approx_normal is a monotone function of
/// it, so a cut on z is exactly a cut on this integer
/// (max_lane_sum_at_most), and a kernel can filter cells without converting
/// them to double.
[[nodiscard]] constexpr std::uint32_t lane_sum(std::uint64_t h) noexcept {
  // Add the lanes pairwise in place, then fold the two 32-bit halves.
  const std::uint64_t pairs = (h & 0x0000ffff0000ffffULL) + ((h >> 16) & 0x0000ffff0000ffffULL);
  return static_cast<std::uint32_t>((pairs & 0xffffffffULL) + (pairs >> 32));
}

inline constexpr std::uint32_t kMaxLaneSum = 4 * 0xffffU;

/// The approximate standard normal of lane sum `sum`: the sum of four
/// U(0,1) (mean 2, variance 4/12 = 1/3), centered and scaled by sqrt(3).
[[nodiscard]] constexpr double approx_normal_of_lane_sum(std::uint32_t sum) noexcept {
  constexpr double inv = 1.0 / 65536.0;
  constexpr double sqrt3 = 1.7320508075688772;
  return (static_cast<double>(sum) * inv - 2.0) * sqrt3;
}

/// Approximate standard normal from a single 64-bit hash via the Irwin-Hall
/// construction (sum of four 16-bit uniforms, centered and scaled).
/// Max abs error vs a true normal is small in the central region; tails are
/// bounded at ~±3.46 sigma, which is adequate (and convenient) for modelling
/// bounded physical parameter variation.
[[nodiscard]] constexpr double approx_normal(std::uint64_t h) noexcept {
  return approx_normal_of_lane_sum(lane_sum(h));
}

/// The lower bound of approx_normal, -2 * sqrt(3) (all four lanes zero).
inline constexpr double kApproxNormalMin = approx_normal_of_lane_sum(0);

/// The largest lane sum whose approx normal is <= z, for z >=
/// kApproxNormalMin: `lane_sum(h) <= max_lane_sum_at_most(z)` holds exactly
/// when `approx_normal(h) <= z`. A bisection, valid because the map is
/// monotone (rng_test checks every sum).
[[nodiscard]] constexpr std::uint32_t max_lane_sum_at_most(double z) noexcept {
  std::uint32_t lo = 0;  // approx_normal_of_lane_sum(lo) <= z throughout
  std::uint32_t hi = kMaxLaneSum;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo + 1) / 2;
    if (approx_normal_of_lane_sum(mid) <= z) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// The strict form: the largest lane sum whose approx normal is < z, for
/// z > kApproxNormalMin, so `lane_sum(h) <= max_lane_sum_below(z)` holds
/// exactly when `approx_normal(h) < z`.
[[nodiscard]] constexpr std::uint32_t max_lane_sum_below(double z) noexcept {
  const std::uint32_t sum = max_lane_sum_at_most(z);
  return approx_normal_of_lane_sum(sum) < z ? sum : sum - 1;
}

/// xoshiro256** sequential PRNG for host-side sampling decisions.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 expansion of `seed`.
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) {
      s += 0x9e3779b97f4a7c15ULL;
      w = splitmix64(s);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return to_unit_double((*this)()); }

  /// Uniform integer in [0, n) without modulo bias for the n we use
  /// (n << 2^64; single multiply-shift reduction).
  std::uint64_t below(std::uint64_t n) noexcept {
    return static_cast<std::uint64_t>((static_cast<__uint128_t>((*this)()) * n) >> 64);
  }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace rh::common
