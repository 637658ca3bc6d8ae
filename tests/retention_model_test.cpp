#include "fault/retention_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fault/cell_traits.hpp"
#include "fault/row_fault_cache.hpp"
#include "fault_kernel_inputs.hpp"
#include "hbm/geometry.hpp"

namespace rh::fault {
namespace {

class RetentionModelTest : public ::testing::Test {
protected:
  BankContext bank(std::uint32_t ch = 0) const {
    return BankContext::from(geometry_, hbm::BankAddress{ch, 0, 0});
  }

  std::size_t flips(std::uint32_t row, std::uint8_t value, double elapsed_s,
                    double temp = 85.0) const {
    std::vector<std::uint8_t> data(geometry_.row_bytes(), value);
    return model_.apply(bank(), row, data, elapsed_s, temp);
  }

  FaultConfig cfg_{};
  hbm::Geometry geometry_ = hbm::paper_geometry();
  RetentionModel model_{cfg_, geometry_};
};

TEST_F(RetentionModelTest, ShortWaitsNeverDecay) {
  // The paper's 27 ms experiment budget must be retention-safe at 85 degC.
  EXPECT_EQ(flips(100, 0x00, 0.027), 0u);
  EXPECT_EQ(flips(100, 0xFF, 0.027), 0u);
}

TEST_F(RetentionModelTest, GlobalMinBoundIsSound) {
  const double bound = model_.global_min_retention_s(85.0);
  EXPECT_GT(bound, 0.027);  // paper's methodology bound fits under it
  for (std::uint32_t r = 0; r < 2000; r += 173) {
    EXPECT_EQ(flips(r, 0x00, bound * 0.99), 0u) << "row " << r;
  }
}

TEST_F(RetentionModelTest, LongWaitsDecayManyCells) {
  EXPECT_GT(flips(100, 0x00, 600.0), 1000u);
}

TEST_F(RetentionModelTest, FlipCountIsMonotoneInElapsed) {
  std::size_t prev = 0;
  for (const double s : {0.05, 0.2, 1.0, 5.0, 25.0}) {
    const std::size_t f = flips(100, 0x00, s);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST_F(RetentionModelTest, HeatHalvesRetention) {
  // Same wait decays more at higher temperature (halving per +10 degC).
  const double wait = 0.4;
  EXPECT_GE(flips(100, 0x00, wait, 95.0), flips(100, 0x00, wait, 85.0));
  EXPECT_GE(flips(100, 0x00, wait, 85.0), flips(100, 0x00, wait, 65.0));
  // Quantitatively: t at 75C = 2x t at 85C.
  EXPECT_NEAR(model_.cell_retention_s(bank(), 5, 3, 75.0),
              2.0 * model_.cell_retention_s(bank(), 5, 3, 85.0), 1e-9);
}

TEST_F(RetentionModelTest, OnlyChargedCellsDecay) {
  // A cell stores its charged value or its discharged value; decay flips
  // charged cells only, so an all-zero row and an all-one row decay
  // *different* (complementary) cell populations.
  std::vector<std::uint8_t> zeros(geometry_.row_bytes(), 0x00);
  std::vector<std::uint8_t> ones(geometry_.row_bytes(), 0xFF);
  const double wait = 40.0;
  model_.apply(bank(), 100, zeros, wait, 85.0);
  model_.apply(bank(), 100, ones, wait, 85.0);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    // A bit cannot have decayed in both experiments: decayed-from-zero means
    // the cell is anti (charged at 0), decayed-from-one means true.
    const std::uint8_t decayed_from_zero = zeros[i];          // 0 -> 1 flips
    const std::uint8_t decayed_from_one = static_cast<std::uint8_t>(~ones[i]);  // 1 -> 0 flips
    EXPECT_EQ(decayed_from_zero & decayed_from_one, 0) << "byte " << i;
  }
}

TEST_F(RetentionModelTest, DecayDirectionMatchesOrientation) {
  std::vector<std::uint8_t> zeros(geometry_.row_bytes(), 0x00);
  model_.apply(bank(), 100, zeros, 40.0, 85.0);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      if ((zeros[i] >> j) & 1) {
        const auto bit = static_cast<std::uint32_t>(i) * 8 + j;
        EXPECT_TRUE(is_anti_cell(cfg_.seed, bank(), 100, bit, cfg_.anti_cell_fraction))
            << "bit " << bit << " flipped 0->1 but is a true cell";
      }
    }
  }
}

TEST_F(RetentionModelTest, RowMinRetentionIsConsistentWithApply) {
  const double t_min = model_.row_min_retention_s(bank(), 321, 85.0);
  EXPECT_EQ(flips(321, 0x00, t_min * 0.95) + flips(321, 0xFF, t_min * 0.95), 0u);
  EXPECT_GT(flips(321, 0x00, t_min * 1.05) + flips(321, 0xFF, t_min * 1.05), 0u);
}

TEST_F(RetentionModelTest, RowMinRetentionSuitsUtrrTimescales) {
  // §5 relies on profiling rows with usable retention times; typical
  // per-row minima should be fractions of a second to seconds at 85 degC.
  double lo = 1e18;
  double hi = 0.0;
  for (std::uint32_t r = 0; r < 64; ++r) {
    const double t = model_.row_min_retention_s(bank(), 4096 + r, 85.0);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_GT(lo, 0.03);
  EXPECT_LT(lo, 2.0);
  EXPECT_LT(hi, 60.0);
}

TEST_F(RetentionModelTest, ApplyIsDeterministic) {
  std::vector<std::uint8_t> a(geometry_.row_bytes(), 0x00);
  std::vector<std::uint8_t> b(geometry_.row_bytes(), 0x00);
  model_.apply(bank(), 77, a, 3.0, 85.0);
  model_.apply(bank(), 77, b, 3.0, 85.0);
  EXPECT_EQ(a, b);
}

/// A reference model and a fast-kernel model of one device, fed identical
/// inputs. The parameter seeds both the device (FaultConfig::seed) and the
/// input draws.
class RetentionFastKernel : public ::testing::TestWithParam<std::uint64_t> {
protected:
  RetentionFastKernel() : cfg_(seeded(GetParam())) { fast_.set_fast_kernel(true); }

  static FaultConfig seeded(std::uint64_t seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    return cfg;
  }

  /// Decays both models' own copies of the row image by `elapsed_s`,
  /// expects the same flips, and advances both copies.
  void expect_same(const BankContext& b, std::uint32_t row, std::vector<std::uint8_t>& ref_data,
                   std::vector<std::uint8_t>& fast_data, double elapsed_s, double temp) {
    SCOPED_TRACE(::testing::Message() << "bank " << b.flat_bank << " row " << row << " elapsed "
                                      << std::hexfloat << elapsed_s << " at " << temp);
    const std::size_t want = reference_.apply(b, row, ref_data, elapsed_s, temp);
    EXPECT_EQ(fast_.apply(b, row, fast_data, elapsed_s, temp), want);
    EXPECT_EQ(fast_data, ref_data);
  }

  void expect_same(const BankContext& b, std::uint32_t row, std::vector<std::uint8_t> data,
                   double elapsed_s, double temp) {
    std::vector<std::uint8_t> fast_data = data;
    expect_same(b, row, data, fast_data, elapsed_s, temp);
  }

  /// The decay threshold of a wait at the reference temperature, computed
  /// as apply() does (the temperature scale there is exactly 1).
  double z_max(double elapsed_s) const {
    return std::log(elapsed_s / (cfg_.retention_median_s * 1.0)) / cfg_.retention_sigma;
  }

  /// The waits whose threshold lands just below, on and just above `z`.
  std::vector<double> waits_at(double z) const {
    return test::crossing([&](double e) { return z_max(e); }, z,
                    cfg_.retention_median_s * std::exp(z * cfg_.retention_sigma));
  }

  hbm::Geometry geometry_ = hbm::paper_geometry();
  FaultConfig cfg_;
  RetentionModel reference_{cfg_, geometry_};
  RetentionModel fast_{cfg_, geometry_};
};

TEST_P(RetentionFastKernel, MatchesTheReferenceOnRandomDraws) {
  // Waits from under the global bound to far past the cached tier, at
  // three temperatures.
  common::Xoshiro256 rng(GetParam());
  for (int draw = 0; draw < 96; ++draw) {
    const BankContext b = test::random_bank(geometry_, rng);
    const auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
    const double elapsed_s = 0.03 * std::pow(1000.0, rng.uniform());
    const double temp = 65.0 + 15.0 * static_cast<double>(rng.below(3));
    expect_same(b, r, test::random_row(geometry_, rng), elapsed_s, temp);
  }
}

TEST_P(RetentionFastKernel, MatchesTheReferenceAtTheTierAndTheWeakestCells) {
  // The cached path is taken iff z_max <= kTierZ and returns early iff
  // z_max <= z_min, and a charged cell decays iff z < z_max (strict). Each
  // row drawn holds a cell on one side of the tail's edge: the last lane
  // sum inside the tail (kTierLaneSum, decayed just below the tier) or the
  // first outside it. Sweep z_max ulp by ulp across the tier, the first z
  // outside it and the row's two weakest z, for both polarities of the row.
  const double z_outside = common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum + 1);
  const double temp = cfg_.retention_ref_temp_c;
  common::Xoshiro256 rng(GetParam());
  for (int draw = 0; draw < 4; ++draw) {
    const BankContext b = test::random_bank(geometry_, rng);
    auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
    const std::uint32_t edge = RowFaultCache::kTierLaneSum + (draw % 2 == 0 ? 0 : 1);
    std::vector<std::uint32_t> sums;
    for (;; r = (r + 1) % geometry_.rows_per_bank) {
      sums = test::lane_sums(cfg_.seed, Stream::kRetentionZ, b, r, geometry_.row_bits());
      if (std::count(sums.begin(), sums.end(), edge) > 0) break;
    }
    std::vector<double> waits = waits_at(RowFaultCache::kTierZ);
    ASSERT_LT(z_max(waits.front()), RowFaultCache::kTierZ);
    ASSERT_GT(z_max(waits.back()), RowFaultCache::kTierZ);
    std::vector<double> targets = test::weakest_two_z(sums);
    targets.push_back(z_outside);
    for (const double z : targets) {
      const std::vector<double> at = waits_at(z);
      waits.insert(waits.end(), at.begin(), at.end());
    }
    waits.push_back(waits.back() * 1.05);  // a few weak cells over the edge
    for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
      for (const double wait : waits) {
        expect_same(b, r, std::vector<std::uint8_t>(geometry_.row_bytes(), value), wait, temp);
      }
    }
  }
}

TEST_P(RetentionFastKernel, MatchesTheReferenceOnRepeatedAppliesToOneRow) {
  // U-TRR's probe row: the wait rises and falls below, at and above the
  // row's retention time, and past the tier. A longer wait rebuilds the
  // row's entry in place at its own cap, a shorter one reads the deeper
  // entry and skips the slots above its cap.
  common::Xoshiro256 rng(GetParam());
  const BankContext b = test::random_bank(geometry_, rng);
  const auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
  const double t = reference_.row_min_retention_s(b, r, 85.0);
  std::vector<std::uint8_t> ref_data = test::random_row(geometry_, rng);
  std::vector<std::uint8_t> fast_data = ref_data;
  for (const double wait : {0.75 * t, 1.5 * t, 1.5 * t, 3.0 * t, 0.75 * t, 8.0, 1.5 * t}) {
    expect_same(b, r, ref_data, fast_data, wait, 85.0);
  }
}

TEST_P(RetentionFastKernel, MatchesTheReferenceAcrossLruEviction) {
  // More distinct rows than the cache holds (512), then the first rows
  // again: evicted entries are rebuilt to the same tails.
  common::Xoshiro256 rng(GetParam());
  const BankContext b = test::random_bank(geometry_, rng);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t r = 0; r < (pass == 0 ? 600u : 64u); ++r) {
      expect_same(b, r, std::vector<std::uint8_t>(geometry_.row_bytes(), 0x00), 0.3, 85.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetentionFastKernel, ::testing::Values(0x5AFA2123ULL, 1ULL));

}  // namespace
}  // namespace rh::fault
