#include "fault/rowhammer_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "fault/cell_traits.hpp"
#include "fault/process_variation.hpp"
#include "fault/row_fault_cache.hpp"
#include "fault_kernel_inputs.hpp"
#include "hbm/geometry.hpp"
#include "hbm/subarray.hpp"

namespace rh::fault {
namespace {

class RowHammerModelTest : public ::testing::Test {
protected:
  RowHammerModelTest()
      : layout_(hbm::SubarrayLayout::paper_layout(geometry_.rows_per_bank)),
        variation_(cfg_, geometry_),
        model_(cfg_, geometry_, layout_, variation_) {}

  BankContext bank(std::uint32_t ch = 0) const {
    return BankContext::from(geometry_, hbm::BankAddress{ch, 0, 0});
  }

  std::vector<std::uint8_t> row(std::uint8_t value) const {
    return std::vector<std::uint8_t>(geometry_.row_bytes(), value);
  }

  std::size_t flips(std::uint32_t ch, std::uint32_t physical_row, std::uint8_t victim,
                    std::uint8_t aggressor, double disturbance) const {
    auto data = row(victim);
    const auto above = row(aggressor);
    const auto below = row(aggressor);
    // A fresh copy per call: apply() mutates.
    return const_cast<RowHammerModel&>(model_).apply(bank(ch), physical_row, data, above, below,
                                                     disturbance, 85.0);
  }

  FaultConfig cfg_{};
  hbm::Geometry geometry_ = hbm::paper_geometry();
  hbm::SubarrayLayout layout_;
  ProcessVariation variation_;
  RowHammerModel model_;
};

TEST_F(RowHammerModelTest, ZeroDisturbanceNeverFlips) {
  EXPECT_EQ(flips(0, 100, 0x00, 0xFF, 0.0), 0u);
}

TEST_F(RowHammerModelTest, BelowGlobalMinNeverFlips) {
  const double d = model_.global_min_disturbance() * 0.99;
  for (std::uint32_t r = 0; r < 3000; r += 123) {
    EXPECT_EQ(flips(7, r, 0x00, 0xFF, d), 0u) << "row " << r;
  }
}

TEST_F(RowHammerModelTest, LargeDisturbanceFlipsEveryRow) {
  // The paper: "RH bitflips occur in every tested DRAM row".
  for (std::uint32_t r = 100; r < 800; r += 37) {
    EXPECT_GT(flips(0, r, 0x00, 0xFF, 2'000'000.0), 0u) << "row " << r;
  }
}

TEST_F(RowHammerModelTest, FlipCountIsMonotoneInDisturbance) {
  const std::uint32_t r = 416;  // mid-subarray
  std::size_t prev = 0;
  for (const double d : {2e5, 4e5, 8e5, 1.6e6, 3.2e6}) {
    const std::size_t f = flips(0, r, 0x00, 0xFF, d);
    EXPECT_GE(f, prev) << "d=" << d;
    prev = f;
  }
}

TEST_F(RowHammerModelTest, OppositeAggressorDataCouplesMoreStrongly) {
  // Classic RH data-pattern dependence: aggressors storing the victim's
  // complement flip more bits than aggressors storing the same value.
  const std::uint32_t r = 416;
  EXPECT_GT(flips(0, r, 0x00, 0xFF, 6e5), flips(0, r, 0x00, 0x00, 6e5));
}

TEST_F(RowHammerModelTest, AllZeroVictimBeatsAllOneVictim) {
  // anti_cell_fraction > 0.5 and anti_cell_relative > 1: all-zero victims
  // (Rowstripe0) are the most vulnerable — Fig. 4's RS0 < RS1 HC_first.
  std::size_t zero_total = 0;
  std::size_t one_total = 0;
  for (std::uint32_t r = 100; r < 700; r += 29) {
    zero_total += flips(0, r, 0x00, 0xFF, 5e5);
    one_total += flips(0, r, 0xFF, 0x00, 5e5);
  }
  EXPECT_GT(zero_total, one_total);
}

TEST_F(RowHammerModelTest, CheckeredCouplesMoreWeaklyThanRowstripe) {
  std::size_t rowstripe = 0;
  std::size_t checkered = 0;
  for (std::uint32_t r = 100; r < 700; r += 29) {
    rowstripe += flips(0, r, 0x00, 0xFF, 5e5);
    checkered += flips(0, r, 0x55, 0xAA, 5e5);
  }
  EXPECT_GT(rowstripe, checkered);
}

TEST_F(RowHammerModelTest, MidSubarrayIsMoreVulnerableThanEdges) {
  // Fig. 5: BER is higher mid-subarray, lower toward the sense amps.
  const double edge = model_.row_vulnerability(bank(0), 1, 85.0);
  const double mid = model_.row_vulnerability(bank(0), 416, 85.0);
  EXPECT_GT(mid, edge);
}

TEST_F(RowHammerModelTest, LastSubarrayIsStronglyAttenuated) {
  const auto b = bank(0);
  const double last = model_.row_vulnerability(b, geometry_.rows_per_bank - 416, 85.0);
  const double normal = model_.row_vulnerability(b, 416, 85.0);
  EXPECT_LT(last, normal * 0.35);
}

TEST_F(RowHammerModelTest, WorstChannelIsMoreVulnerable) {
  const double ch0 = model_.row_vulnerability(bank(0), 416, 85.0);
  const double ch7 = model_.row_vulnerability(bank(7), 416, 85.0);
  EXPECT_GT(ch7, ch0);
}

TEST_F(RowHammerModelTest, TemperatureMildlyIncreasesVulnerability) {
  EXPECT_GT(model_.temperature_factor(95.0), model_.temperature_factor(85.0));
  EXPECT_LT(model_.temperature_factor(45.0), model_.temperature_factor(85.0));
  EXPECT_NEAR(model_.temperature_factor(85.0), 1.0, 1e-12);
}

TEST_F(RowHammerModelTest, ApplyIsDeterministic) {
  auto d1 = row(0x00);
  auto d2 = row(0x00);
  const auto above = row(0xFF);
  const auto below = row(0xFF);
  model_.apply(bank(0), 416, d1, above, below, 6e5, 85.0);
  model_.apply(bank(0), 416, d2, above, below, 6e5, 85.0);
  EXPECT_EQ(d1, d2);
}

TEST_F(RowHammerModelTest, FlippedCellsStayFlippedOnReapplication) {
  // Once materialized, a flipped (now discharged) cell must not flip back
  // when the model is applied again with more disturbance.
  auto data = row(0x00);
  const auto above = row(0xFF);
  const auto below = row(0xFF);
  const auto b = bank(7);
  const std::size_t first = model_.apply(b, 416, data, above, below, 6e5, 85.0);
  ASSERT_GT(first, 0u);
  auto snapshot = data;
  model_.apply(b, 416, data, above, below, 6e5, 85.0);
  // Everything that was flipped (0 -> 1 for the all-zero victim) must still
  // be flipped: no bit set in the snapshot may be cleared by reapplication.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(snapshot[i] & ~data[i], 0) << "byte " << i;
  }
  // And the flip count barely grows (the same bits are already flipped).
  std::size_t diff = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    diff += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(snapshot[i] ^ data[i])));
  }
  EXPECT_LT(diff, first / 4 + 8);
}

TEST_F(RowHammerModelTest, MissingNeighbourMeansNoOppositeBoost) {
  const std::uint32_t r = 416;
  auto with_both = row(0x00);
  auto with_none = row(0x00);
  const auto agg = row(0xFF);
  const std::size_t both = model_.apply(bank(0), r, with_both, agg, agg, 5e5, 85.0);
  const std::size_t none = model_.apply(bank(0), r, with_none, {}, {}, 5e5, 85.0);
  EXPECT_GT(both, none);
}

/// A reference model and a fast-kernel model of one device, fed identical
/// inputs. The parameter seeds both the device (FaultConfig::seed) and the
/// input draws.
class FastKernel : public ::testing::TestWithParam<std::uint64_t> {
protected:
  FastKernel()
      : cfg_(seeded(GetParam())),
        layout_(hbm::SubarrayLayout::paper_layout(geometry_.rows_per_bank)),
        variation_(cfg_, geometry_),
        reference_(cfg_, geometry_, layout_, variation_),
        fast_(cfg_, geometry_, layout_, variation_) {
    fast_.set_fast_kernel(true);
  }

  static FaultConfig seeded(std::uint64_t seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    return cfg;
  }

  /// Applies `disturbance` through both models to their own copies of the
  /// victim image, expects the same flips, and advances both copies.
  void expect_same(const BankContext& b, std::uint32_t row, std::vector<std::uint8_t>& ref_data,
                   std::vector<std::uint8_t>& fast_data, std::span<const std::uint8_t> above,
                   std::span<const std::uint8_t> below, double disturbance) {
    SCOPED_TRACE(::testing::Message() << "bank " << b.flat_bank << " row " << row
                                      << " d=" << std::hexfloat << disturbance);
    const std::size_t want =
        reference_.apply(b, row, ref_data, above, below, disturbance, 85.0);
    EXPECT_EQ(fast_.apply(b, row, fast_data, above, below, disturbance, 85.0), want);
    EXPECT_EQ(fast_data, ref_data);
  }

  void expect_same(const BankContext& b, std::uint32_t row, std::vector<std::uint8_t> data,
                   std::span<const std::uint8_t> above, std::span<const std::uint8_t> below,
                   double disturbance) {
    std::vector<std::uint8_t> fast_data = data;
    expect_same(b, row, data, fast_data, above, below, disturbance);
  }

  /// The batch's most permissive threshold at `disturbance`, computed as
  /// apply() does: the strongest class under the default coupling is a
  /// charged anti cell between two opposite aggressors, undamped.
  double z_cap(const BankContext& b, std::uint32_t row, double disturbance) const {
    const double coupling = (cfg_.coupling_base + 2 * cfg_.coupling_opposite_aggressor) *
                            cfg_.anti_cell_relative;
    return (std::log(disturbance * reference_.row_vulnerability(b, row, 85.0)) +
            std::log(coupling) - std::log(cfg_.hc0)) /
           cfg_.sigma_cell;
  }

  /// The disturbances whose z_cap lands just below, on and just above `z`.
  std::vector<double> disturbances_at(const BankContext& b, std::uint32_t row, double z) const {
    const double guess = std::exp((z - z_cap(b, row, 1.0)) * cfg_.sigma_cell);
    return test::crossing([&](double d) { return z_cap(b, row, d); }, z, guess);
  }

  std::vector<std::uint8_t> row(std::uint8_t value) const {
    return std::vector<std::uint8_t>(geometry_.row_bytes(), value);
  }

  hbm::Geometry geometry_ = hbm::paper_geometry();
  FaultConfig cfg_;
  hbm::SubarrayLayout layout_;
  ProcessVariation variation_;
  RowHammerModel reference_;
  RowHammerModel fast_;
};

TEST_P(FastKernel, MatchesTheReferenceOnRandomDraws) {
  // Disturbances span the cached tier and the reference fallback above it;
  // one neighbour in eight is missing, as at a bank edge.
  common::Xoshiro256 rng(GetParam());
  for (int draw = 0; draw < 96; ++draw) {
    const BankContext b = test::random_bank(geometry_, rng);
    const auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
    const std::vector<std::uint8_t> data = test::random_row(geometry_, rng);
    const std::vector<std::uint8_t> above = rng.below(8) == 0 ? std::vector<std::uint8_t>{}
                                                              : test::random_row(geometry_, rng);
    const std::vector<std::uint8_t> below = rng.below(8) == 0 ? std::vector<std::uint8_t>{}
                                                              : test::random_row(geometry_, rng);
    const double d = 1e5 * std::pow(100.0, rng.uniform());
    expect_same(b, r, data, above, below, d);
  }
}

TEST_P(FastKernel, MatchesTheReferenceAtTheTierAndTheWeakestCells) {
  // The cached path is taken iff z_cap <= kTierZ and returns early iff
  // z_cap < z_min, and a cell flips iff its z is <= its class's threshold.
  // Each row drawn holds an anti cell, which the strongest class flips, on
  // one side of the tail's edge: the last lane sum inside the tail
  // (kTierLaneSum, flipped just below the tier) or the first outside it.
  // Sweep z_cap ulp by ulp across the tier, the first z outside it and the
  // row's two weakest z, for both victim polarities.
  const double z_outside = common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum + 1);
  common::Xoshiro256 rng(GetParam());
  for (int draw = 0; draw < 4; ++draw) {
    const BankContext b = test::random_bank(geometry_, rng);
    auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
    const std::uint32_t edge = RowFaultCache::kTierLaneSum + (draw % 2 == 0 ? 0 : 1);
    std::vector<std::uint32_t> sums;
    const auto anti_on_edge = [&] {
      for (std::uint32_t bit = 0; bit < sums.size(); ++bit) {
        if (sums[bit] == edge && is_anti_cell(cfg_.seed, b, r, bit, cfg_.anti_cell_fraction)) {
          return true;
        }
      }
      return false;
    };
    for (;; r = (r + 1) % geometry_.rows_per_bank) {
      sums = test::lane_sums(cfg_.seed, Stream::kRowHammerZ, b, r, geometry_.row_bits());
      if (anti_on_edge()) break;
    }
    std::vector<double> ds = disturbances_at(b, r, RowFaultCache::kTierZ);
    ASSERT_LT(z_cap(b, r, ds.front()), RowFaultCache::kTierZ);
    ASSERT_GT(z_cap(b, r, ds.back()), RowFaultCache::kTierZ);
    std::vector<double> targets = test::weakest_two_z(sums);
    targets.push_back(z_outside);
    for (const double z : targets) {
      const std::vector<double> at = disturbances_at(b, r, z);
      ds.insert(ds.end(), at.begin(), at.end());
    }
    ds.push_back(ds.back() * 1.02);  // a few weak cells over the edge
    for (const std::uint8_t victim : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
      const auto aggressor = static_cast<std::uint8_t>(~victim);
      for (const double d : ds) expect_same(b, r, row(victim), row(aggressor), row(aggressor), d);
    }
  }
}

TEST_P(FastKernel, MatchesTheReferenceOnRepeatedAppliesToOneRow) {
  // Every apply after the first is a cache hit on the same entry; flipped
  // cells stay flipped on both sides.
  common::Xoshiro256 rng(GetParam());
  const BankContext b = test::random_bank(geometry_, rng);
  const auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
  std::vector<std::uint8_t> ref_data = test::random_row(geometry_, rng);
  std::vector<std::uint8_t> fast_data = ref_data;
  const std::vector<std::uint8_t> above = test::random_row(geometry_, rng);
  const std::vector<std::uint8_t> below = test::random_row(geometry_, rng);
  for (const double d : {3e5, 3e5, 6e5, 1.2e6, 2.4e6, 1e7, 2.4e6}) {
    expect_same(b, r, ref_data, fast_data, above, below, d);
  }
}

TEST_P(FastKernel, MatchesTheReferenceAcrossLruEviction) {
  // More distinct rows than the cache holds (512), then the first rows
  // again: evicted entries are rebuilt to the same tails.
  common::Xoshiro256 rng(GetParam());
  const BankContext b = test::random_bank(geometry_, rng);
  const std::vector<std::uint8_t> victim = row(0x00);
  const std::vector<std::uint8_t> aggressor = row(0xFF);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t r = 0; r < (pass == 0 ? 600u : 64u); ++r) {
      expect_same(b, 2 * r + 1, victim, aggressor, aggressor, 8e5);
    }
  }
}

TEST_P(FastKernel, MatchesTheReferenceAcrossAFlippedByteEdge) {
  // The one flipped bit the reference scan reads: bit 0 of byte i sees bit
  // 7 of byte i - 1 after that bit's decision. On checkered data (victim
  // 0x55, aggressors 0xAA) every cell sits between opposite-valued
  // neighbours, so its coupling is damped by intra_row_opposite_factor.
  // Find a charged anti cell at bit 7 of byte i - 1 that flips and a
  // charged true cell at bit 0 of byte i that flips only once it is
  // undamped, i.e. once its left neighbour has flipped, at a disturbance
  // inside the cached tier.
  const double k2 = cfg_.coupling_base + 2 * cfg_.coupling_opposite_aggressor;
  const double ln_edge = std::log(k2 * cfg_.intra_row_opposite_factor * cfg_.anti_cell_relative);
  const double ln_undamped = std::log(k2);
  const double ln_damped = std::log(k2 * cfg_.intra_row_opposite_factor);
  const double ln_cap = std::log(k2 * cfg_.anti_cell_relative);
  const double s = cfg_.sigma_cell;
  common::Xoshiro256 rng(GetParam());
  const BankContext b = test::random_bank(geometry_, rng);
  auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
  for (int tries = 0;; ++tries, r = (r + 1) % geometry_.rows_per_bank) {
    ASSERT_LT(tries, 64) << "no flipped byte edge in 64 rows";
    const std::vector<std::uint32_t> sums =
        test::lane_sums(cfg_.seed, Stream::kRowHammerZ, b, r, geometry_.row_bits());
    const auto z = [&](std::uint32_t bit) { return common::approx_normal_of_lane_sum(sums[bit]); };
    const auto anti = [&](std::uint32_t bit) {
      return is_anti_cell(cfg_.seed, b, r, bit, cfg_.anti_cell_fraction);
    };
    // In the log domain L = ln(d * vulnerability / hc0), a cell of class c
    // flips iff z * sigma <= L + ln(coupling_c).
    double lo = 0;
    double hi = 0;
    std::uint32_t edge = 0;
    for (std::uint32_t bit = 8; bit < geometry_.row_bits() && edge == 0; bit += 8) {
      if (!anti(bit - 1) || anti(bit)) continue;
      lo = std::max(z(bit - 1) * s - ln_edge, z(bit) * s - ln_undamped);
      hi = std::min(z(bit) * s - ln_damped, RowFaultCache::kTierZ * s - ln_cap);
      if (hi - lo > 1e-3) edge = bit;
    }
    if (edge == 0) continue;
    const double d = std::exp((lo + hi) / 2 + std::log(cfg_.hc0)) /
                     reference_.row_vulnerability(b, r, 85.0);
    ASSERT_LE(z_cap(b, r, d), RowFaultCache::kTierZ);
    std::vector<std::uint8_t> ref_data = row(0x55);
    std::vector<std::uint8_t> fast_data = ref_data;
    expect_same(b, r, ref_data, fast_data, row(0xAA), row(0xAA), d);
    const std::size_t i = edge / 8;
    EXPECT_NE(ref_data[i - 1] & 0x80, 0x55 & 0x80) << "bit 7 of byte " << i - 1 << " kept";
    EXPECT_NE(ref_data[i] & 0x01, 0x55 & 0x01) << "bit 0 of byte " << i << " kept";
    return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastKernel, ::testing::Values(0x5AFA2123ULL, 1ULL));

/// The cache's contract, checked against the scalar hashes under both
/// threshold streams. The parameter seeds the device and the draws.
class RowFaultCacheTest : public ::testing::TestWithParam<std::uint64_t> {
protected:
  RowFaultCacheTest() { cfg_.seed = GetParam(); }

  /// (lane sum, bit, anti) of every slot of `entry`, in slot order.
  static std::vector<std::array<std::uint32_t, 3>> decoded(const RowFaultCache::Entry& entry) {
    std::vector<std::array<std::uint32_t, 3>> cells;
    for (const std::uint32_t slot : entry.slots) {
      cells.push_back({RowFaultCache::slot_sum(slot), RowFaultCache::slot_bit(slot),
                       RowFaultCache::slot_anti(slot) ? 1u : 0u});
    }
    return cells;
  }

  hbm::Geometry geometry_ = hbm::paper_geometry();
  FaultConfig cfg_;
};

TEST_P(RowFaultCacheTest, EntryIsTheRowsWeakTailInStrengthOrder) {
  // Every cell whose lane sum is <= kTierLaneSum, with the scalar lane sum
  // and orientation, in ascending slot order: by lane sum, equal sums by
  // bit. The front is the row's weakest cell over all its cells.
  for (const Stream stream : {Stream::kRowHammerZ, Stream::kRetentionZ}) {
    RowFaultCache cache(cfg_, geometry_, stream);
    common::Xoshiro256 rng(GetParam());
    for (int draw = 0; draw < 64; ++draw) {
      const BankContext b = test::random_bank(geometry_, rng);
      const auto r = static_cast<std::uint32_t>(rng.below(geometry_.rows_per_bank));
      SCOPED_TRACE(::testing::Message() << "bank " << b.flat_bank << " row " << r);
      const std::vector<std::uint32_t> sums =
          test::lane_sums(cfg_.seed, stream, b, r, geometry_.row_bits());
      std::vector<std::array<std::uint32_t, 3>> want;
      for (std::uint32_t bit = 0; bit < sums.size(); ++bit) {
        if (sums[bit] > RowFaultCache::kTierLaneSum) continue;
        const bool anti = is_anti_cell(cfg_.seed, b, r, bit, cfg_.anti_cell_fraction);
        want.push_back({sums[bit], bit, anti ? 1u : 0u});
      }
      std::sort(want.begin(), want.end());
      const RowFaultCache::Entry& entry = cache.get(b, r);
      ASSERT_EQ(decoded(entry), want);
      EXPECT_TRUE(std::is_sorted(entry.slots.begin(), entry.slots.end()));
      EXPECT_EQ(RowFaultCache::slot_sum(entry.slots.front()),
                *std::min_element(sums.begin(), sums.end()));
    }
  }
}

TEST_P(RowFaultCacheTest, RecycledNodesKeepNoOtherRowsSlots) {
  // 600 distinct rows through a 512-entry cache, then the first 64 again:
  // each rebuild lands in the node of an evicted row and must equal the
  // row's first build, whether its tail is longer or shorter than the one
  // the node held.
  for (const Stream stream : {Stream::kRowHammerZ, Stream::kRetentionZ}) {
    RowFaultCache cache(cfg_, geometry_, stream);
    common::Xoshiro256 rng(GetParam());
    const BankContext b = test::random_bank(geometry_, rng);
    std::vector<RowFaultCache::Entry> first_builds;
    std::map<const RowFaultCache::Entry*, std::size_t> held;  // node -> its last tail size
    for (std::uint32_t r = 0; r < 600; ++r) {
      const RowFaultCache::Entry& entry = cache.get(b, r);
      if (r < 64) first_builds.push_back(entry);
      held[&entry] = entry.slots.size();
    }
    int longer = 0;
    int shorter = 0;
    for (std::uint32_t r = 0; r < 64; ++r) {
      const RowFaultCache::Entry& entry = cache.get(b, r);
      ASSERT_TRUE(held.count(&entry) == 1) << "row " << r << " did not land in a recycled node";
      longer += entry.slots.size() > held[&entry] ? 1 : 0;
      shorter += entry.slots.size() < held[&entry] ? 1 : 0;
      held[&entry] = entry.slots.size();
      EXPECT_EQ(entry.slots, first_builds[r].slots) << "row " << r;
    }
    EXPECT_GT(longer, 0);
    EXPECT_GT(shorter, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowFaultCacheTest, ::testing::Values(0x5AFA2123ULL, 1ULL));

class DisturbanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DisturbanceSweep, FlipFractionIsSane) {
  const FaultConfig cfg{};
  const auto geometry = hbm::paper_geometry();
  const auto layout = hbm::SubarrayLayout::paper_layout(geometry.rows_per_bank);
  const ProcessVariation variation(cfg, geometry);
  const RowHammerModel model(cfg, geometry, layout, variation);
  const auto b = BankContext::from(geometry, hbm::BankAddress{7, 0, 0});
  std::vector<std::uint8_t> data(geometry.row_bytes(), 0x00);
  const std::vector<std::uint8_t> agg(geometry.row_bytes(), 0xFF);
  const std::size_t flips = model.apply(b, 416, data, agg, agg, GetParam(), 85.0);
  // Even at very large disturbance, discharged cells can't flip in the
  // charge-loss direction — the fraction must stay well below 100%.
  EXPECT_LT(flips, geometry.row_bits());
  // The fast kernel flips the same cells at every level: cached below the
  // tier, the reference scan above it.
  RowHammerModel fast(cfg, geometry, layout, variation);
  fast.set_fast_kernel(true);
  std::vector<std::uint8_t> fast_data(geometry.row_bytes(), 0x00);
  EXPECT_EQ(fast.apply(b, 416, fast_data, agg, agg, GetParam(), 85.0), flips);
  EXPECT_EQ(fast_data, data);
}

INSTANTIATE_TEST_SUITE_P(Levels, DisturbanceSweep, ::testing::Values(1e5, 1e6, 1e7, 1e8));

}  // namespace
}  // namespace rh::fault
