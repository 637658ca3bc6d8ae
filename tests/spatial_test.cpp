#include "core/spatial.hpp"

#include <gtest/gtest.h>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"

namespace rh::core {
namespace {

TEST(PaperRegions, CoverFirstMiddleAndLast3K) {
  const auto geometry = hbm::paper_geometry();
  const auto regions = paper_regions(geometry);
  ASSERT_EQ(regions.size(), 3u);
  EXPECT_EQ(regions[0].name, "first");
  EXPECT_EQ(regions[0].first_row, 0u);
  EXPECT_EQ(regions[0].rows, 3072u);
  EXPECT_EQ(regions[1].name, "middle");
  EXPECT_EQ(regions[1].first_row, (16384u - 3072u) / 2);
  EXPECT_EQ(regions[2].name, "last");
  EXPECT_EQ(regions[2].first_row, 16384u - 3072u);
}

TEST(PaperRegions, MiddleRegionLandsInThe768RowSubarrays) {
  const auto geometry = hbm::paper_geometry();
  const auto layout = hbm::SubarrayLayout::paper_layout(geometry.rows_per_bank);
  const auto regions = paper_regions(geometry);
  EXPECT_EQ(layout.size_of(layout.subarray_of(regions[1].first_row + 1000)), 768u);
}

TEST(PaperRegions, RejectOversizedRegions) {
  EXPECT_THROW((void)paper_regions(hbm::paper_geometry(), 10'000), common::PreconditionError);
}

class SurveyTest : public ::testing::Test {
protected:
  static SurveyConfig quick_config() {
    SurveyConfig cfg;
    cfg.channels = {0, 7};
    cfg.row_stride = 512;
    cfg.wcdp_by_ber = true;  // BER-only: fast
    return cfg;
  }

  /// `cfg`'s survey, run as a campaign on one rig pinned at 85 degC.
  static std::vector<RowRecord> survey(const SurveyConfig& cfg) {
    campaign::SweepSpec spec = campaign::survey_sweep(hbm::DeviceConfig{}, cfg);
    spec.settle_thermal = false;
    campaign::CampaignConfig config;
    config.progress = false;
    return campaign::Campaign(config).run(spec).flat();
  }
};

TEST_F(SurveyTest, SurveyRowsCoversRequestedChannelsAndRegions) {
  const auto records = survey(quick_config());
  const std::size_t rows_per_channel = 3 * (3072 / 512);
  EXPECT_EQ(records.size(), 2 * rows_per_channel);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.site.channel == 0 || rec.site.channel == 7);
    EXPECT_EQ(rec.ber[0].bits_tested, hbm::paper_geometry().row_bits());
  }
}

TEST_F(SurveyTest, WorstChannelHasHigherMeanWcdpBer) {
  const auto records = survey(quick_config());
  const auto stats = aggregate_ber(records);
  double ch0_mean = 0.0;
  double ch7_mean = 0.0;
  for (const auto& s : stats) {
    if (s.pattern == 4 && s.channel == 0) ch0_mean = s.stats.mean;
    if (s.pattern == 4 && s.channel == 7) ch7_mean = s.stats.mean;
  }
  EXPECT_GT(ch7_mean, ch0_mean);
}

TEST_F(SurveyTest, AggregateBerEmitsFivePatternsPerChannel) {
  const auto records = survey(quick_config());
  const auto stats = aggregate_ber(records);
  EXPECT_EQ(stats.size(), 2u * 5u);  // 2 channels x (4 patterns + WCDP)
  for (const auto& s : stats) {
    EXPECT_EQ(s.stats.count, records.size() / 2);
  }
}

TEST_F(SurveyTest, AggregateHcFirstSkipsUnflippableRows) {
  SurveyConfig cfg = quick_config();
  cfg.wcdp_by_ber = false;  // full HC_first methodology
  cfg.row_stride = 1024;
  cfg.characterizer.wcdp_tolerance = 8192;
  const auto records = survey(cfg);
  const auto stats = aggregate_hc_first(records);
  for (const auto& s : stats) {
    // Counts can be below the row count (last-subarray rows cap out), but
    // whatever is there must be positive and below the 256 K ceiling.
    EXPECT_LE(s.stats.count, records.size() / 2);
    if (s.stats.count > 0) {
      EXPECT_GT(s.stats.min, 0.0);
      EXPECT_LE(s.stats.max, 262'144.0);
    }
  }
}

TEST_F(SurveyTest, PatternLabelsAreStable) {
  EXPECT_EQ(pattern_label(0), "Rowstripe0");
  EXPECT_EQ(pattern_label(3), "Checkered1");
  EXPECT_EQ(pattern_label(4), "WCDP");
}

TEST_F(SurveyTest, BerProxyAgreesWithHcFirstWcdpOnClearCases) {
  // The fast Fig. 5/6 mode picks the WCDP as the max-BER pattern; in this
  // monotone regime it should agree with the paper's HC_first-based
  // definition whenever the choice is not a near-tie.
  bender::BenderHost host{hbm::DeviceConfig{}};
  host.device().set_temperature(85.0);
  const RowMap map = RowMap::from_device(host.device());
  CharacterizerConfig cfg;
  cfg.wcdp_tolerance = 1024;
  Characterizer chr(host, map, cfg);
  const Site site{7, 0, 0};
  for (std::uint32_t row = 410; row < 470; row += 17) {
    const RowRecord full = chr.characterize_row(site, row);
    std::size_t max_ber = 0;
    for (std::size_t i = 1; i < kAllPatterns.size(); ++i) {
      if (full.ber[i].bit_errors > full.ber[max_ber].bit_errors) max_ber = i;
    }
    // Near-ties in flips are legitimately ambiguous; require agreement only
    // when the max-BER pattern leads by >20%.
    const auto chosen = static_cast<std::size_t>(full.wcdp);
    if (full.ber[max_ber].bit_errors * 4 > full.ber[chosen].bit_errors * 5) continue;
    EXPECT_EQ(chosen, max_ber) << "row " << row;
  }
}

}  // namespace
}  // namespace rh::core
