#include "hbm/bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fault/cell_traits.hpp"
#include "fault/process_variation.hpp"
#include "fault/retention_model.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/subarray.hpp"

namespace rh::hbm {
namespace {

/// Standalone bank rig: geometry + models + one bank, with an identity
/// scrambler so physical == logical and neighbourhoods are easy to reason
/// about.
struct BankRig {
  explicit BankRig(fault::FaultConfig cfg = {}, std::uint32_t channel = 0)
      : geometry(paper_geometry()),
        timings(paper_timings()),
        scrambler(ScrambleKind::kIdentity, geometry.rows_per_bank),
        layout(SubarrayLayout::paper_layout(geometry.rows_per_bank)),
        variation(cfg, geometry),
        rh_model(cfg, geometry, layout, variation),
        retention(cfg, geometry),
        bank(geometry, timings,
             fault::BankContext::from(geometry, BankAddress{channel, 0, 0}), scrambler, rh_model,
             retention) {}

  Geometry geometry;
  TimingParams timings;
  RowScrambler scrambler;
  SubarrayLayout layout;
  fault::ProcessVariation variation;
  fault::RowHammerModel rh_model;
  fault::RetentionModel retention;
  Bank bank;

  /// Writes `value` to every column of `row` through the protocol.
  Cycle write_row(std::uint32_t row, std::uint8_t value, Cycle t) {
    bank.activate(row, t, 85.0);
    t += timings.tRCD;
    std::vector<std::uint8_t> burst(geometry.bytes_per_column, value);
    for (std::uint32_t col = 0; col < geometry.columns_per_row; ++col) {
      bank.write(col, burst, t);
      t += timings.tCCD;
    }
    t += timings.tWR;
    bank.precharge(t, 85.0);
    return t + timings.tRP;
  }

  /// Reads the whole row; returns total bits mismatching `expected`.
  std::uint64_t read_row_flips(std::uint32_t row, std::uint8_t expected, Cycle& t,
                               bool ecc = false) {
    bank.activate(row, t, 85.0);
    t += timings.tRCD;
    std::vector<std::uint8_t> burst(geometry.bytes_per_column);
    std::uint64_t flips = 0;
    for (std::uint32_t col = 0; col < geometry.columns_per_row; ++col) {
      bank.read(col, t, ecc, burst);
      for (const std::uint8_t b : burst) {
        flips += static_cast<std::uint64_t>(std::popcount(static_cast<unsigned>(b ^ expected)));
      }
      t += timings.tCCD;
    }
    t += timings.tRTP;
    bank.precharge(t, 85.0);
    t += timings.tRP;
    return flips;
  }
};

TEST(Bank, WriteReadRoundTrip) {
  BankRig rig;
  Cycle t = rig.write_row(100, 0xA5, 1000);
  EXPECT_EQ(rig.read_row_flips(100, 0xA5, t), 0u);
}

TEST(Bank, UnwrittenRowsHaveStableDefaultContent) {
  BankRig rig1;
  BankRig rig2;
  Cycle t1 = 1000;
  Cycle t2 = 1000;
  rig1.bank.activate(42, t1, 85.0);
  rig2.bank.activate(42, t2, 85.0);
  std::vector<std::uint8_t> a(rig1.geometry.bytes_per_column);
  std::vector<std::uint8_t> b(rig2.geometry.bytes_per_column);
  rig1.bank.read(0, t1 + rig1.timings.tRCD, false, a);
  rig2.bank.read(0, t2 + rig2.timings.tRCD, false, b);
  EXPECT_EQ(a, b);  // power-on content is deterministic in the seed
}

TEST(Bank, DefaultContentDiffersAcrossRows) {
  BankRig rig;
  Cycle t = 1000;
  std::vector<std::uint8_t> a(rig.geometry.bytes_per_column);
  std::vector<std::uint8_t> b(rig.geometry.bytes_per_column);
  rig.bank.activate(1, t, 85.0);
  rig.bank.read(0, t + rig.timings.tRCD, false, a);
  rig.bank.precharge(t + rig.timings.tRAS + rig.timings.tRTP, 85.0);
  t += 2 * rig.timings.tRC;
  rig.bank.activate(5, t, 85.0);
  rig.bank.read(0, t + rig.timings.tRCD, false, b);
  EXPECT_NE(a, b);
}

TEST(Bank, ActivateDisturbsNeighboursWithDistanceWeights) {
  BankRig rig;
  rig.bank.activate(100, 1000, 85.0);
  const auto& cfg = rig.rh_model.config();
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(99), cfg.distance1_weight);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(101), cfg.distance1_weight);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(98), cfg.distance2_weight);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(102), cfg.distance2_weight);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(97), 0.0);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(100), 0.0);  // own ACT restores
}

TEST(Bank, DisturbanceDoesNotCrossSubarrayBoundaries) {
  // Physical row 832 starts the second subarray in the paper layout and
  // 831 ends the first; the bank's first and last rows are the outer edges
  // of the first and last subarrays. An ACT at an edge reaches its
  // distance-1 and distance-2 neighbours on the inward side only.
  const std::int64_t last = paper_geometry().rows_per_bank - 1;
  const struct {
    std::int64_t aggressor;
    std::int64_t inward;  ///< +1: the aggressor's subarray lies above it
  } kEdges[] = {{832, +1}, {831, -1}, {0, +1}, {last, -1}};
  for (const auto& edge : kEdges) {
    SCOPED_TRACE(edge.aggressor);
    BankRig rig;
    rig.bank.activate(static_cast<std::uint32_t>(edge.aggressor), 1000, 85.0);
    for (const std::int64_t d : {-2, -1, 1, 2}) {
      const std::int64_t row = edge.aggressor + d * edge.inward;
      if (row < 0 || row > last) continue;
      const double got = rig.bank.disturbance_of_physical(static_cast<std::uint32_t>(row));
      if (d > 0) {
        EXPECT_GT(got, 0.0) << row;
      } else {
        EXPECT_DOUBLE_EQ(got, 0.0) << row;
      }
    }
  }
}

TEST(Bank, ActivatingTheVictimResetsItsDisturbance) {
  BankRig rig;
  Cycle t = 1000;
  rig.bank.activate(100, t, 85.0);
  rig.bank.precharge(t + rig.timings.tRAS, 85.0);
  ASSERT_GT(rig.bank.disturbance_of_physical(101), 0.0);
  t += rig.timings.tRAS + rig.timings.tRP;
  rig.bank.activate(101, t, 85.0);  // the victim itself
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(101), 0.0);
}

TEST(Bank, HammerBatchAccumulatesOnVictim) {
  BankRig rig;
  const std::uint64_t count = 5000;
  rig.bank.hammer_pair(100, 102, count, rig.timings.tRAS,
                       1000 + count * 2 * rig.timings.tRC, 85.0);
  const auto& cfg = rig.rh_model.config();
  // Victim at 101 is distance 1 from both aggressors.
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(101),
                   2.0 * count * cfg.distance1_weight);
  // Aggressors end the batch restored.
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(100), 0.0);
  EXPECT_DOUBLE_EQ(rig.bank.disturbance_of_physical(102), 0.0);
  EXPECT_EQ(rig.bank.stats().activates, 2 * count);
}

TEST(Bank, HammerBatchMatchesUnrolledActPreLoop) {
  // The HAMMER macro-op must be observationally equivalent to the raw
  // ACT/PRE loop: same victim disturbance, hence identical flips.
  fault::FaultConfig weak;
  weak.hc0 = 2000.0;  // tiny thresholds so a short loop already flips
  BankRig batch_rig(weak);
  BankRig loop_rig(weak);
  const std::uint32_t count = 600;

  Cycle t = 1000;
  batch_rig.write_row(101, 0x00, t);
  t = 200'000;
  batch_rig.bank.hammer_pair(100, 102, count, batch_rig.timings.tRAS,
                             t + count * 2 * batch_rig.timings.tRC, 85.0);

  Cycle t2 = 1000;
  loop_rig.write_row(101, 0x00, t2);
  t2 = 200'000;
  for (std::uint32_t i = 0; i < count; ++i) {
    for (const std::uint32_t row : {100u, 102u}) {
      loop_rig.bank.activate(row, t2, 85.0);
      loop_rig.bank.precharge(t2 + loop_rig.timings.tRAS, 85.0);
      t2 += loop_rig.timings.tRAS + loop_rig.timings.tRP;
    }
  }

  EXPECT_DOUBLE_EQ(batch_rig.bank.disturbance_of_physical(101),
                   loop_rig.bank.disturbance_of_physical(101));

  Cycle tb = 10'000'000;
  Cycle tl = 10'000'000;
  EXPECT_EQ(batch_rig.read_row_flips(101, 0x00, tb), loop_rig.read_row_flips(101, 0x00, tl));
}

TEST(Bank, HammeringInducesFlipsAboveThreshold) {
  BankRig rig(fault::FaultConfig{}, /*channel=*/7);
  Cycle t = rig.write_row(101, 0x00, 1000);
  t = rig.write_row(100, 0xFF, t);
  t = rig.write_row(102, 0xFF, t);
  rig.bank.hammer_pair(100, 102, 262'144, rig.timings.tRAS,
                       t + 262'144ULL * 2 * rig.timings.tRC, 85.0);
  t += 262'144ULL * 2 * rig.timings.tRC + rig.timings.tRP;
  EXPECT_GT(rig.read_row_flips(101, 0x00, t), 0u);
  EXPECT_GT(rig.bank.stats().rowhammer_flips, 0u);
}

TEST(Bank, RowPressOnTimeAddsExtraDisturbance) {
  BankRig rig;
  Cycle t = 1000;
  rig.bank.activate(100, t, 85.0);
  rig.bank.precharge(t + 16 * rig.timings.tRAS, 85.0);  // held open long
  const double pressed = rig.bank.disturbance_of_physical(101);

  BankRig rig2;
  rig2.bank.activate(100, 1000, 85.0);
  rig2.bank.precharge(1000 + rig2.timings.tRAS, 85.0);  // minimal on-time
  const double minimal = rig2.bank.disturbance_of_physical(101);

  EXPECT_GT(pressed, minimal * 1.5);
}

TEST(Bank, RetentionFlipsAppearAfterLongUnrefreshedWait) {
  BankRig rig;
  Cycle t = rig.write_row(300, 0x00, 1000);
  t += ms_to_cycles(60'000.0);  // 60 s at 85 degC: deep into the weak tail
  const std::uint64_t flips = rig.read_row_flips(300, 0x00, t);
  EXPECT_GT(flips, 0u);
  EXPECT_GT(rig.bank.stats().retention_flips, 0u);
}

TEST(Bank, RefreshPreventsRetentionFlips) {
  BankRig rig;
  Cycle t = rig.write_row(300, 0x00, 1000);
  // Refresh every ~16 ms for 40 simulated refresh windows.
  for (int i = 0; i < 40; ++i) {
    t += ms_to_cycles(16.0);
    rig.bank.refresh_physical_row(300, t, 85.0);
  }
  EXPECT_EQ(rig.read_row_flips(300, 0x00, t), 0u);
}

TEST(Bank, EccMasksSparseFlipsOnReads) {
  fault::FaultConfig weak;
  weak.hc0 = 1.0e6;
  BankRig no_ecc(weak, 0);
  BankRig with_ecc(weak, 0);

  const auto run = [&](BankRig& rig, bool ecc) {
    Cycle t = rig.write_row(101, 0x00, 1000);
    t = rig.write_row(100, 0xFF, t);
    t = rig.write_row(102, 0xFF, t);
    // Light hammering: few flips, mostly isolated single-bit-per-word.
    rig.bank.hammer_pair(100, 102, 9'000, rig.timings.tRAS,
                         t + 9'000ULL * 2 * rig.timings.tRC, 85.0);
    t += 9'000ULL * 2 * rig.timings.tRC + rig.timings.tRP;
    return rig.read_row_flips(101, 0x00, t, ecc);
  };

  const std::uint64_t raw = run(no_ecc, false);
  const std::uint64_t corrected = run(with_ecc, true);
  ASSERT_GT(raw, 0u);
  EXPECT_LT(corrected, raw);
  EXPECT_GT(with_ecc.bank.stats().ecc_corrections, 0u);
}

TEST(Bank, ProtocolErrorsPropagate) {
  BankRig rig;
  std::vector<std::uint8_t> burst(rig.geometry.bytes_per_column, 0);
  EXPECT_THROW(rig.bank.read(0, 1000, false, burst), common::ProtocolError);
  EXPECT_THROW(rig.bank.precharge(1000, 85.0), common::ProtocolError);
  rig.bank.activate(5, 1000, 85.0);
  EXPECT_THROW(rig.bank.activate(6, 1000 + rig.timings.tRC, 85.0), common::ProtocolError);
}

TEST(Bank, RejectsOutOfRangeOperands) {
  BankRig rig;
  EXPECT_THROW(rig.bank.activate(rig.geometry.rows_per_bank, 1000, 85.0),
               common::PreconditionError);
  rig.bank.activate(5, 1000, 85.0);
  std::vector<std::uint8_t> burst(rig.geometry.bytes_per_column, 0);
  EXPECT_THROW(rig.bank.read(rig.geometry.columns_per_row, 1000 + rig.timings.tRCD, false, burst),
               common::PreconditionError);
}

TEST(Bank, FreshRowsKeepPowerOnContentWhereAStoreDoesNotReach) {
  // A whole-row burst leaves none of a fresh row's power-on content, one
  // WR leaves it in every other column, and a burst one column short
  // leaves it in the last column; with ECC off and on.
  BankRig rig;
  const Geometry& g = rig.geometry;
  const std::uint32_t columns = g.columns_per_row;
  const auto col = [&](std::uint32_t c) {
    return static_cast<std::ptrdiff_t>(static_cast<std::size_t>(c) * g.bytes_per_column);
  };
  std::vector<std::uint8_t> image(g.row_bytes());
  for (std::size_t i = 0; i < image.size(); ++i) image[i] = static_cast<std::uint8_t>(i * 7 + 3);
  std::uint32_t row = 200;
  Cycle t = 1000;
  // Opens a fresh row, stores through `store`, reads the whole row back.
  const auto fresh_row = [&](bool ecc, const auto& store) {
    ++row;
    rig.bank.activate(row, t, 85.0);
    store();
    std::vector<std::uint8_t> out(g.row_bytes());
    rig.bank.read_columns(columns, ecc, out);
    rig.bank.precharge(t + rig.timings.tRC, 85.0);
    t += 2 * rig.timings.tRC;
    return out;
  };
  const auto power_on = [&] {
    std::vector<std::uint8_t> bytes(g.row_bytes());
    fault::fill_default_data(rig.rh_model.config().seed, rig.bank.context(), row, bytes);
    return bytes;
  };
  for (const bool ecc : {false, true}) {
    SCOPED_TRACE(ecc ? "ecc on" : "ecc off");
    EXPECT_EQ(fresh_row(ecc, [&] { rig.bank.write_columns(image, columns); }), image);

    const std::uint32_t wr_column = 3;
    const std::vector<std::uint8_t> one_wr = fresh_row(ecc, [&] {
      rig.bank.write(wr_column, std::span(image).subspan(static_cast<std::size_t>(col(wr_column)),
                                                         g.bytes_per_column),
                     t + rig.timings.tRCD);
    });
    std::vector<std::uint8_t> want = power_on();
    std::copy(image.begin() + col(wr_column), image.begin() + col(wr_column + 1),
              want.begin() + col(wr_column));
    EXPECT_EQ(one_wr, want);

    const std::vector<std::uint8_t> short_burst =
        fresh_row(ecc, [&] { rig.bank.write_columns(image, columns - 1); });
    want = power_on();
    std::copy(image.begin(), image.begin() + col(columns - 1), want.begin());
    EXPECT_EQ(short_burst, want);
  }
  EXPECT_EQ(rig.bank.stats().ecc_corrections, 0u);
}

TEST(Bank, LazyStorageOnlyTracksTouchedRows) {
  BankRig rig;
  EXPECT_EQ(rig.bank.tracked_rows(), 0u);
  Cycle t = rig.write_row(100, 0xFF, 1000);
  (void)t;
  EXPECT_EQ(rig.bank.tracked_rows(), 1u);
  EXPECT_TRUE(rig.bank.row_materialized_physical(100));
  EXPECT_FALSE(rig.bank.row_materialized_physical(101));
}

}  // namespace
}  // namespace rh::hbm
