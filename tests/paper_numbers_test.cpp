// N1: the calibration contract. Every headline quantity of the paper's
// evaluation must land inside an agreed band (DESIGN.md §5) — ordering,
// grouping, factors and crossovers, not absolute silicon numbers. A change
// to the fault model that silently breaks a figure's shape fails here.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"
#include "core/spatial.hpp"
#include "core/utrr.hpp"

namespace rh::core {
namespace {

/// One shared survey for all assertions (it is the expensive part). It runs
/// as a campaign on its own rig; `host_` serves the U-TRR run and the layout.
class PaperNumbers : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    host_ = new bender::BenderHost(hbm::DeviceConfig{});
    host_->set_chip_temperature(85.0);
    SurveyConfig config;
    config.row_stride = 192;
    config.characterizer.wcdp_tolerance = 2048;
    campaign::CampaignConfig run;
    run.progress = false;
    records_ = new std::vector<RowRecord>(
        campaign::Campaign(run).run(campaign::survey_sweep(hbm::DeviceConfig{}, config)).flat());
    ber_ = new std::vector<ChannelPatternStats>(aggregate_ber(*records_));
    hc_ = new std::vector<ChannelPatternStats>(aggregate_hc_first(*records_));
  }

  static void TearDownTestSuite() {
    delete records_;
    delete ber_;
    delete hc_;
    delete host_;
    records_ = nullptr;
    ber_ = nullptr;
    hc_ = nullptr;
    host_ = nullptr;
  }

  static double ber_mean(std::uint32_t channel, std::size_t pattern) {
    for (const auto& s : *ber_) {
      if (s.channel == channel && s.pattern == pattern) return s.stats.mean;
    }
    ADD_FAILURE() << "missing BER stats for ch" << channel;
    return 0.0;
  }

  static const common::BoxStats& hc_stats(std::uint32_t channel, std::size_t pattern) {
    for (const auto& s : *hc_) {
      if (s.channel == channel && s.pattern == pattern) return s.stats;
    }
    static common::BoxStats empty;
    ADD_FAILURE() << "missing HC_first stats for ch" << channel;
    return empty;
  }

  static bender::BenderHost* host_;
  static std::vector<RowRecord>* records_;
  static std::vector<ChannelPatternStats>* ber_;
  static std::vector<ChannelPatternStats>* hc_;
};

bender::BenderHost* PaperNumbers::host_ = nullptr;
std::vector<RowRecord>* PaperNumbers::records_ = nullptr;
std::vector<ChannelPatternStats>* PaperNumbers::ber_ = nullptr;
std::vector<ChannelPatternStats>* PaperNumbers::hc_ = nullptr;

constexpr std::size_t kWcdp = 4;

TEST_F(PaperNumbers, EveryChannelExhibitsBitflips) {
  // §4: "RH bitflips occur in every tested DRAM row across all HBM channels"
  // (we assert the weaker per-channel form at our sampling stride).
  for (std::uint32_t ch = 0; ch < 8; ++ch) {
    EXPECT_GT(ber_mean(ch, kWcdp), 0.0) << "channel " << ch;
  }
}

TEST_F(PaperNumbers, Channel7ToChannel0WcdpBerRatioNearPaper) {
  // Paper: 2.03x. Band: [1.4, 2.9].
  const double ratio = ber_mean(7, kWcdp) / ber_mean(0, kWcdp);
  EXPECT_GE(ratio, 1.4);
  EXPECT_LE(ratio, 2.9);
}

TEST_F(PaperNumbers, Channels6And7AreTheMostVulnerable) {
  const double worst_pair = 0.5 * (ber_mean(6, kWcdp) + ber_mean(7, kWcdp));
  for (std::uint32_t ch = 0; ch < 6; ++ch) {
    EXPECT_LT(ber_mean(ch, kWcdp), worst_pair * 1.05) << "channel " << ch;
  }
}

TEST_F(PaperNumbers, ChannelsGroupInDiePairs) {
  // Fig. 3: "channels can be classified into groups of two". Same-die
  // channels must sit closer than the die-0 vs die-3 gap.
  const double within = std::abs(ber_mean(6, kWcdp) - ber_mean(7, kWcdp));
  const double across = std::abs(ber_mean(7, kWcdp) - ber_mean(0, kWcdp));
  EXPECT_LT(within, across);
}

TEST_F(PaperNumbers, MinHcFirstNearPaper) {
  // Paper: 14531 hammers. Band: [9K, 26K] at our sampling stride.
  double global_min = 1e18;
  for (const auto& s : *hc_) {
    if (s.stats.count > 0) global_min = std::min(global_min, s.stats.min);
  }
  EXPECT_GE(global_min, 9'000.0);
  EXPECT_LE(global_min, 26'000.0);
}

TEST_F(PaperNumbers, Rowstripe0IsStrongerThanRowstripe1InHcFirst) {
  // Paper ch0: RS0 mean 57925 < RS1 mean 79179 (ratio 1.37). Band on the
  // ratio: [1.1, 1.8].
  const double rs0 = hc_stats(0, 0).mean;
  const double rs1 = hc_stats(0, 1).mean;
  ASSERT_GT(rs0, 0.0);
  const double ratio = rs1 / rs0;
  EXPECT_GE(ratio, 1.1);
  EXPECT_LE(ratio, 1.8);
}

TEST_F(PaperNumbers, RowstripesBeatCheckeredPatterns) {
  // Fig. 4: checkered HC_first means sit above rowstripe means.
  for (std::uint32_t ch : {0u, 7u}) {
    EXPECT_GT(hc_stats(ch, 2).mean, hc_stats(ch, 0).mean) << "ch" << ch;
    EXPECT_GT(hc_stats(ch, 3).mean, hc_stats(ch, 0).mean) << "ch" << ch;
  }
}

TEST_F(PaperNumbers, Channel7MaxBerRowstripe1ExceedsCheckered0) {
  // Paper: ch7 max BER 3.13% (RS1) vs 2.04% (Checkered0).
  double rs1_max = 0.0;
  double ck0_max = 0.0;
  for (const auto& s : *ber_) {
    if (s.channel != 7) continue;
    if (s.pattern == 1) rs1_max = s.stats.max;
    if (s.pattern == 2) ck0_max = s.stats.max;
  }
  EXPECT_GT(rs1_max, ck0_max);
}

TEST_F(PaperNumbers, WcdpBerMagnitudesAreParperScale) {
  // Percent-scale BER at 256 K hammers (paper's Fig. 3 y-axis tops out at
  // a few percent).
  EXPECT_GT(ber_mean(7, kWcdp), 0.005);
  EXPECT_LT(ber_mean(7, kWcdp), 0.08);
  EXPECT_GT(ber_mean(0, kWcdp), 0.002);
  EXPECT_LT(ber_mean(0, kWcdp), 0.05);
}

TEST_F(PaperNumbers, HcFirstChannelSpreadIsSecondOrder) {
  // §1: HC_first varies across channels by ~20%, far less than BER's ~2x.
  const double hc0 = hc_stats(0, kWcdp).mean;
  const double hc7 = hc_stats(7, kWcdp).mean;
  ASSERT_GT(hc7, 0.0);
  const double hc_ratio = hc0 / hc7;
  const double ber_ratio = ber_mean(7, kWcdp) / ber_mean(0, kWcdp);
  EXPECT_GT(hc_ratio, 1.0);   // worst channel flips earlier...
  EXPECT_LT(hc_ratio, 2.2);   // ...but the spread stays moderate
  EXPECT_GT(ber_ratio, hc_ratio * 0.8);
}

TEST_F(PaperNumbers, LastSubarrayIsHeavilyAttenuated) {
  // §4: "significantly fewer bitflips occur in the last subarray".
  const auto& layout = host_->device().subarray_layout();
  double last_sum = 0.0;
  double rest_sum = 0.0;
  std::size_t last_n = 0;
  std::size_t rest_n = 0;
  for (const auto& rec : *records_) {
    if (layout.in_last_subarray(rec.physical_row)) {
      last_sum += rec.wcdp_ber().ber();
      ++last_n;
    } else {
      rest_sum += rec.wcdp_ber().ber();
      ++rest_n;
    }
  }
  ASSERT_GT(last_n, 0u);
  ASSERT_GT(rest_n, 0u);
  EXPECT_LT(last_sum / last_n, 0.3 * (rest_sum / rest_n));
}

TEST_F(PaperNumbers, MidSubarrayRowsBeatEdgeRows) {
  // Fig. 5's periodic pattern: aggregate BER by relative position.
  const auto& layout = host_->device().subarray_layout();
  double mid_sum = 0.0;
  double edge_sum = 0.0;
  std::size_t mid_n = 0;
  std::size_t edge_n = 0;
  for (const auto& rec : *records_) {
    if (layout.in_last_subarray(rec.physical_row)) continue;
    const double x = layout.relative_position(rec.physical_row);
    if (x > 0.35 && x < 0.65) {
      mid_sum += rec.wcdp_ber().ber();
      ++mid_n;
    } else if (x < 0.15 || x > 0.85) {
      edge_sum += rec.wcdp_ber().ber();
      ++edge_n;
    }
  }
  ASSERT_GT(mid_n, 0u);
  ASSERT_GT(edge_n, 0u);
  EXPECT_GT(mid_sum / mid_n, edge_sum / edge_n);
}

TEST_F(PaperNumbers, UndisclosedTrrHasPeriod17) {
  // §5's headline, end to end through the retention side channel.
  const RowMap map = RowMap::from_device(host_->device());
  UtrrConfig cfg;
  cfg.iterations = 40;
  UtrrExperiment experiment(*host_, map, cfg);
  const Site site{1, 1, 3};
  UtrrResult result;
  for (std::uint32_t row = 4096;; ++row) {
    try {
      result = experiment.run(site, row);
      break;
    } catch (const common::Error&) {
      ASSERT_LT(row, 4160u);
    }
  }
  ASSERT_TRUE(result.inferred_period.has_value());
  EXPECT_EQ(*result.inferred_period, 17u);
}

}  // namespace
}  // namespace rh::core
