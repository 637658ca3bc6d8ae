// Deterministic work units for experiment campaigns.
//
// A ShardSpec names a contiguous slice of a characterization sweep — one
// site, a physical-row range sampled at a stride, and a measurement mode.
// Shards are the unit of scheduling, journaling, and retry for the campaign
// runner (src/campaign): because the fault model is a pure function of
// (seed, coordinates) and every per-row test re-initializes its own
// neighbourhood, running disjoint shards on independently constructed
// devices with the same seed is bitwise-equivalent to running the whole plan
// in order on one host.
//
// Each sweep family has one planner here, and every runner (the benches'
// Campaign::run, rh_serve's jobs) runs the plan it returns: a survey
// (Figs. 3-5), a bank survey (Fig. 6) and an onset curve (A12).
#pragma once

#include <cstdint>
#include <vector>

#include "core/characterizer.hpp"
#include "core/site.hpp"
#include "hbm/geometry.hpp"

namespace rh::core {

struct SurveyConfig;  // core/spatial.hpp

/// What a shard measures per sampled row.
enum class ShardMode : std::uint8_t {
  /// Full paper methodology: BER + HC_first per pattern, WCDP selection.
  kFullRow = 0,
  /// BER for the four Table 1 patterns, WCDP by largest BER (fast proxy).
  kBerOnly = 1,
  /// One measure_ber call for `pattern` at `hammers` (onset-curve sweeps).
  kSinglePattern = 2,
};

/// One deterministic unit of campaign work: rows [row_begin, row_end) of
/// `site`, sampled every `row_stride`, measured per `mode`. `index` is the
/// shard's position in the plan; merged results are ordered by it.
struct ShardSpec {
  std::uint64_t index = 0;
  Site site;
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;  ///< exclusive
  std::uint32_t row_stride = 1;
  ShardMode mode = ShardMode::kFullRow;
  /// kSinglePattern only: pattern index into kAllPatterns.
  std::uint8_t pattern = 0;
  /// kSinglePattern only: hammer count (0 = the characterizer's ber_hammers).
  std::uint64_t hammers = 0;

  /// Rows this shard samples.
  [[nodiscard]] std::size_t sampled_rows() const {
    if (row_end <= row_begin) return 0;
    return (row_end - row_begin + row_stride - 1) / row_stride;
  }
};

/// Executes one shard on a characterizer: one record per sampled row, in row
/// order.
[[nodiscard]] std::vector<RowRecord> run_shard(Characterizer& characterizer,
                                               const ShardSpec& shard);

/// Decomposes a row survey (Figs. 3-5) into shards over the configured
/// channels at `config`'s pseudo channel and bank, in channel, then region,
/// then row order. Regions are split so no shard samples more than
/// `max_rows_per_shard` rows, which bounds the checkpoint/retry granularity.
[[nodiscard]] std::vector<ShardSpec> plan_survey_shards(const SurveyConfig& config,
                                                        const hbm::Geometry& geometry,
                                                        std::uint32_t max_rows_per_shard = 64);

/// Fig. 6's bank survey: the same regions, stride and split as
/// plan_survey_shards, over every pseudo channel and bank of each configured
/// channel (`config.pseudo_channel` and `config.bank` are not read), in
/// channel, pseudo channel, bank, region, row order.
[[nodiscard]] std::vector<ShardSpec> plan_bank_shards(const SurveyConfig& config,
                                                      const hbm::Geometry& geometry,
                                                      std::uint32_t max_rows_per_shard = 64);

/// The onset-curve sweep (ablation A12): BER of one pattern at each hammer
/// count, on `rows` rows from `row_begin` every `row_stride`.
struct OnsetConfig {
  std::vector<std::uint32_t> channels{0, 7};
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;
  std::vector<std::uint64_t> hammer_counts{8'192,  16'384,  32'768,  65'536,
                                           98'304, 131'072, 196'608, 262'144};
  std::uint32_t rows = 10;
  std::uint32_t row_begin = 410;
  std::uint32_t row_stride = 23;
  /// Index into kAllPatterns (0 = Rowstripe0).
  std::uint32_t pattern = 0;
};

/// One kSinglePattern shard per (hammer count, channel), count-major, so
/// each point of the curve is an independent unit of work.
[[nodiscard]] std::vector<ShardSpec> plan_onset_shards(const OnsetConfig& config);

}  // namespace rh::core
