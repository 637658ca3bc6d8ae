// Spatial-variation surveys (paper §4): what a survey covers, and the
// series each figure plots from its records. The sweeps themselves are
// shard plans (core/shard.hpp) that a campaign runs.
//
//   Fig. 3: BER box-stats per (channel, data pattern incl. WCDP)
//   Fig. 4: HC_first box-stats per (channel, data pattern incl. WCDP)
//   Fig. 5: per-row WCDP BER across the first / middle / last 3 K rows
//   Fig. 6: per-bank (mean BER, coefficient of variation) scatter
//
// The paper tests the first, middle, and last 3 K rows of one bank in every
// channel, all four Table 1 patterns, five repeats, at 85 degC. The survey
// samples rows with a configurable stride so quick runs stay quick; a stride
// of 1 reproduces the full methodology.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/characterizer.hpp"
#include "core/site.hpp"

namespace rh::core {

/// Index of the per-row WCDP series in pattern-indexed aggregations: indices
/// 0..kAllPatterns.size()-1 are the Table 1 patterns, kWcdpPatternIndex is
/// the per-row worst-case data pattern (see ChannelPatternStats::pattern).
inline constexpr std::size_t kWcdpPatternIndex = kAllPatterns.size();

struct RegionSpec {
  std::string name;
  std::uint32_t first_row = 0;
  std::uint32_t rows = 0;
};

/// The paper's three test regions: first, middle, and last `region_rows`
/// rows of the bank.
[[nodiscard]] std::vector<RegionSpec> paper_regions(const hbm::Geometry& geometry,
                                                    std::uint32_t region_rows = 3072);

struct SurveyConfig {
  /// Channels to survey (paper: all 8).
  std::vector<std::uint32_t> channels{0, 1, 2, 3, 4, 5, 6, 7};
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;
  /// Rows per region and sampling stride (stride 1 = the paper's full set).
  std::uint32_t region_rows = 3072;
  std::uint32_t row_stride = 96;
  /// When true, skip the HC_first searches and pick the WCDP as the pattern
  /// with the largest BER — a fast proxy that agrees with the HC_first-based
  /// definition in this monotone regime (used by the Fig. 5/6 sweeps).
  bool wcdp_by_ber = false;
  CharacterizerConfig characterizer{};
};

/// Aggregation for Figs. 3 and 4: index 0..3 = Table 1 patterns, 4 = WCDP.
struct ChannelPatternStats {
  std::uint32_t channel = 0;
  std::size_t pattern = 0;  ///< 0..3 = kAllPatterns, 4 = per-row WCDP
  common::BoxStats stats;
};

[[nodiscard]] std::string pattern_label(std::size_t pattern_index);

/// BER box-stats per channel x pattern (+ WCDP). Fig. 3's series.
[[nodiscard]] std::vector<ChannelPatternStats> aggregate_ber(
    const std::vector<RowRecord>& records);

/// HC_first box-stats per channel x pattern (+ WCDP), over rows where
/// HC_first exists. Fig. 4's series.
[[nodiscard]] std::vector<ChannelPatternStats> aggregate_hc_first(
    const std::vector<RowRecord>& records);

/// One bank's WCDP BER over its sampled rows.
struct BankPoint {
  Site site;
  double mean_ber = 0.0;
  double cv = 0.0;
  std::size_t rows_tested = 0;
};

/// Per-bank mean and coefficient of variation of the WCDP BER, one point per
/// bank in channel, pseudo channel, bank order. Fig. 6's series.
[[nodiscard]] std::vector<BankPoint> aggregate_banks(const std::vector<RowRecord>& records);

}  // namespace rh::core
