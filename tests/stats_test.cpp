#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"

namespace rh::common {
namespace {

TEST(Mean, HandlesEmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  const std::vector<double> one{3.5};
  EXPECT_DOUBLE_EQ(mean(one), 3.5);
}

TEST(Mean, ComputesArithmeticMean) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stddev, IsZeroForConstantData) {
  const std::vector<double> xs{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stddev, MatchesPopulationFormula) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);  // classic textbook example
}

TEST(CoefficientOfVariation, NormalizesByMean) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 2.0 / 5.0);
}

TEST(CoefficientOfVariation, ZeroMeanYieldsZero) {
  const std::vector<double> xs{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(QuantileSorted, InterpolatesLinearly) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.25), 2.5);
}

TEST(QuantileSorted, RejectsBadInput) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)quantile_sorted(xs, 1.5), PreconditionError);
  EXPECT_THROW((void)quantile_sorted({}, 0.5), PreconditionError);
}

TEST(BoxStats, EmptyInputYieldsZeroCount) {
  const BoxStats s = box_stats({});
  EXPECT_EQ(s.count, 0u);
}

TEST(BoxStats, SingletonCollapsesAllQuantiles) {
  const std::vector<double> xs{7.0};
  const BoxStats s = box_stats(xs);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.q1, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.q3, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(BoxStats, UsesTukeyHingesOddLength) {
  // Paper caption: q1/q3 are the medians of the first and second halves.
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7};
  const BoxStats s = box_stats(xs);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);  // median of {1,2,3}
  EXPECT_DOUBLE_EQ(s.q3, 6.0);  // median of {5,6,7}
}

TEST(BoxStats, UsesTukeyHingesEvenLength) {
  const std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
  const BoxStats s = box_stats(xs);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.q1, 2.5);  // median of {1,2,3,4}
  EXPECT_DOUBLE_EQ(s.q3, 6.5);  // median of {5,6,7,8}
}

TEST(BoxStats, IsPermutationInvariant) {
  const std::vector<double> a{5, 1, 4, 2, 3};
  const std::vector<double> b{1, 2, 3, 4, 5};
  const BoxStats sa = box_stats(a);
  const BoxStats sb = box_stats(b);
  EXPECT_DOUBLE_EQ(sa.median, sb.median);
  EXPECT_DOUBLE_EQ(sa.q1, sb.q1);
  EXPECT_DOUBLE_EQ(sa.q3, sb.q3);
}

class BoxStatsOrdering : public ::testing::TestWithParam<int> {};

TEST_P(BoxStatsOrdering, QuantilesAreMonotone) {
  // Property: for any data, min <= q1 <= median <= q3 <= max and the mean
  // lies in [min, max].
  std::vector<double> xs;
  std::uint64_t state = static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 1;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    xs.push_back(static_cast<double>(state >> 40));
  }
  const BoxStats s = box_stats(xs);
  EXPECT_LE(s.min, s.q1);
  EXPECT_LE(s.q1, s.median);
  EXPECT_LE(s.median, s.q3);
  EXPECT_LE(s.q3, s.max);
  EXPECT_GE(s.mean, s.min);
  EXPECT_LE(s.mean, s.max);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoxStatsOrdering, ::testing::Values(1, 2, 3, 5, 8, 64, 1001));

}  // namespace
}  // namespace rh::common
