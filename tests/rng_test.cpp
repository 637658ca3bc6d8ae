#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "fault/row_fault_cache.hpp"

namespace rh::common {
namespace {

TEST(SplitMix64, IsDeterministic) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(SplitMix64, AvalanchesSingleBitFlips) {
  // Flipping one input bit should change roughly half the output bits.
  for (int bit = 0; bit < 64; bit += 7) {
    const std::uint64_t a = splitmix64(0x1234567890abcdefULL);
    const std::uint64_t b = splitmix64(0x1234567890abcdefULL ^ (1ULL << bit));
    const int flipped = std::popcount(a ^ b);
    EXPECT_GT(flipped, 16) << "bit " << bit;
    EXPECT_LT(flipped, 48) << "bit " << bit;
  }
}

TEST(HashCoords, IsOrderSensitive) {
  EXPECT_NE(hash_coords(1, 2, 3, 4, 5), hash_coords(1, 5, 4, 3, 2));
  EXPECT_NE(hash_coords(1, 2, 3), hash_coords(2, 2, 3));
}

TEST(HashCoords, ProducesDistinctStreamsForDistinctCells) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t row = 0; row < 64; ++row) {
    for (std::uint64_t bit = 0; bit < 64; ++bit) {
      seen.insert(hash_coords(7, 0, row, bit));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(ToUnitDouble, StaysInHalfOpenUnitInterval) {
  EXPECT_GE(to_unit_double(0), 0.0);
  EXPECT_LT(to_unit_double(~0ULL), 1.0);
  EXPECT_LT(to_unit_double(splitmix64(99)), 1.0);
}

TEST(ToUnitDouble, IsApproximatelyUniform) {
  std::vector<int> buckets(16, 0);
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double u = to_unit_double(splitmix64(static_cast<std::uint64_t>(i)));
    ++buckets[static_cast<std::size_t>(u * 16.0)];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, n / 16, n / 16 / 10);
  }
}

TEST(ApproxNormal, HasStandardMoments) {
  const int n = 400'000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = approx_normal(splitmix64(static_cast<std::uint64_t>(i) * 31 + 7));
    sum += z;
    sum2 += z * z;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(ApproxNormal, IsBoundedByIrwinHallSupport) {
  // Sum of four uniforms scaled: |z| <= 2*sqrt(3).
  const double bound = 2.0 * std::sqrt(3.0) + 1e-9;
  for (int i = 0; i < 100'000; ++i) {
    const double z = approx_normal(splitmix64(static_cast<std::uint64_t>(i)));
    EXPECT_LE(std::abs(z), bound);
  }
}

TEST(ApproxNormal, IsTheLaneSumMap) {
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(i));
    const std::uint64_t sum =
        (h & 0xffffULL) + ((h >> 16) & 0xffffULL) + ((h >> 32) & 0xffffULL) + (h >> 48);
    ASSERT_EQ(lane_sum(h), sum);
    ASSERT_EQ(approx_normal(h), approx_normal_of_lane_sum(lane_sum(h)));
  }
  EXPECT_EQ(lane_sum(~0ULL), kMaxLaneSum);
  EXPECT_EQ(approx_normal(0), kApproxNormalMin);
}

TEST(ApproxNormal, LaneSumCutIsExactlyTheZCut) {
  // Over every lane sum: the map to z is monotone, so a cut on the integer
  // sum selects exactly the cells a cut on z selects, and the weak-tail
  // cut is the largest sum whose z is <= kTierZ.
  const double tier = fault::RowFaultCache::kTierZ;
  std::uint32_t largest_in_tier = 0;
  for (std::uint32_t sum = 1; sum <= kMaxLaneSum; ++sum) {
    ASSERT_LT(approx_normal_of_lane_sum(sum - 1), approx_normal_of_lane_sum(sum)) << sum;
    if (approx_normal_of_lane_sum(sum) <= tier) largest_in_tier = sum;
  }
  EXPECT_EQ(fault::RowFaultCache::kTierLaneSum, largest_in_tier);
  EXPECT_EQ(max_lane_sum_at_most(kApproxNormalMin), 0u);
  EXPECT_EQ(max_lane_sum_at_most(approx_normal_of_lane_sum(kMaxLaneSum)), kMaxLaneSum);
}

TEST(ApproxNormal, StrictLaneSumCutIsExactlyTheStrictZCut) {
  // At every sum's own z the strict cap is the sum below it; one ulp above
  // that z it is the sum itself.
  for (std::uint32_t sum = 1; sum <= kMaxLaneSum; ++sum) {
    const double z = approx_normal_of_lane_sum(sum);
    ASSERT_EQ(max_lane_sum_below(z), sum - 1) << sum;
    ASSERT_EQ(max_lane_sum_below(std::nextafter(z, HUGE_VAL)), sum) << sum;
  }
  EXPECT_EQ(max_lane_sum_below(std::nextafter(kApproxNormalMin, HUGE_VAL)), 0u);
}

TEST(Xoshiro256, IsDeterministicPerSeed) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  Xoshiro256 c(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool any_diff = false;
  Xoshiro256 a2(5);
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(123);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro256, UniformCoversUnitInterval) {
  Xoshiro256 rng(9);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

class HashStreamIndependence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HashStreamIndependence, DifferentSeedsDecorrelate) {
  const std::uint64_t seed = GetParam();
  // Correlation proxy: identical coordinates under different seeds should
  // agree on the normal's sign about half the time.
  int agree = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double a = approx_normal(hash_coords(seed, static_cast<std::uint64_t>(i)));
    const double b = approx_normal(hash_coords(seed + 1, static_cast<std::uint64_t>(i)));
    if ((a < 0) == (b < 0)) ++agree;
  }
  EXPECT_NEAR(agree, n / 2, n / 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashStreamIndependence,
                         ::testing::Values(0ULL, 1ULL, 0xdeadbeefULL, 0x5AFA2123ULL));

}  // namespace
}  // namespace rh::common
