#include "core/shard.hpp"

#include "common/assert.hpp"
#include "core/spatial.hpp"

namespace rh::core {

std::vector<RowRecord> run_shard(Characterizer& characterizer, const ShardSpec& shard) {
  RH_EXPECTS(shard.row_stride >= 1);
  RH_EXPECTS(shard.mode != ShardMode::kSinglePattern || shard.pattern < kAllPatterns.size());
  std::vector<RowRecord> records;
  records.reserve(shard.sampled_rows());
  for (std::uint32_t row = shard.row_begin; row < shard.row_end; row += shard.row_stride) {
    switch (shard.mode) {
      case ShardMode::kFullRow:
        records.push_back(characterizer.characterize_row(shard.site, row));
        break;
      case ShardMode::kBerOnly: {
        // BER for the four Table 1 patterns; the WCDP is the one with the
        // most bit errors (the first on a tie).
        RowRecord rec;
        rec.site = shard.site;
        rec.physical_row = row;
        std::size_t best = 0;
        for (std::size_t i = 0; i < kAllPatterns.size(); ++i) {
          rec.ber[i] = characterizer.measure_ber(shard.site, row, kAllPatterns[i]);
          if (rec.ber[i].bit_errors > rec.ber[best].bit_errors) best = i;
        }
        rec.wcdp = kAllPatterns[best];
        records.push_back(rec);
        break;
      }
      case ShardMode::kSinglePattern: {
        RowRecord rec;
        rec.site = shard.site;
        rec.physical_row = row;
        const auto pattern = kAllPatterns[shard.pattern];
        rec.ber[shard.pattern] =
            characterizer.measure_ber(shard.site, row, pattern, shard.hammers);
        rec.wcdp = pattern;
        records.push_back(rec);
        break;
      }
    }
  }
  return records;
}

namespace {

/// The one region-splitting loop: for each site in order, the paper regions
/// at `config.row_stride`, cut into shards of at most `max_rows_per_shard`
/// sampled rows.
std::vector<ShardSpec> plan_region_shards(const std::vector<Site>& sites,
                                          const SurveyConfig& config,
                                          const hbm::Geometry& geometry,
                                          std::uint32_t max_rows_per_shard) {
  RH_EXPECTS(!sites.empty());
  RH_EXPECTS(config.row_stride >= 1);
  RH_EXPECTS(max_rows_per_shard >= 1);
  const auto regions = paper_regions(geometry, config.region_rows);
  const std::uint32_t span = max_rows_per_shard * config.row_stride;

  std::vector<ShardSpec> shards;
  for (const Site& site : sites) {
    for (const auto& region : regions) {
      const std::uint32_t region_end = region.first_row + region.rows;
      for (std::uint32_t begin = region.first_row; begin < region_end; begin += span) {
        ShardSpec shard;
        shard.index = shards.size();
        shard.site = site;
        shard.row_begin = begin;
        shard.row_end = std::min(region_end, begin + span);
        shard.row_stride = config.row_stride;
        shard.mode = config.wcdp_by_ber ? ShardMode::kBerOnly : ShardMode::kFullRow;
        shards.push_back(shard);
      }
    }
  }
  return shards;
}

}  // namespace

std::vector<ShardSpec> plan_survey_shards(const SurveyConfig& config,
                                          const hbm::Geometry& geometry,
                                          std::uint32_t max_rows_per_shard) {
  std::vector<Site> sites;
  for (const std::uint32_t channel : config.channels) {
    sites.push_back(Site{channel, config.pseudo_channel, config.bank});
  }
  return plan_region_shards(sites, config, geometry, max_rows_per_shard);
}

std::vector<ShardSpec> plan_bank_shards(const SurveyConfig& config,
                                        const hbm::Geometry& geometry,
                                        std::uint32_t max_rows_per_shard) {
  std::vector<Site> sites;
  for (const std::uint32_t channel : config.channels) {
    for (std::uint32_t pc = 0; pc < geometry.pseudo_channels_per_channel; ++pc) {
      for (std::uint32_t bank = 0; bank < geometry.banks_per_pseudo_channel; ++bank) {
        sites.push_back(Site{channel, pc, bank});
      }
    }
  }
  return plan_region_shards(sites, config, geometry, max_rows_per_shard);
}

std::vector<ShardSpec> plan_onset_shards(const OnsetConfig& config) {
  RH_EXPECTS(config.row_stride >= 1);
  RH_EXPECTS(config.pattern < kAllPatterns.size());
  std::vector<ShardSpec> shards;
  for (const std::uint64_t hammers : config.hammer_counts) {
    for (const std::uint32_t channel : config.channels) {
      ShardSpec shard;
      shard.index = shards.size();
      shard.site = Site{channel, config.pseudo_channel, config.bank};
      shard.row_begin = config.row_begin;
      shard.row_end = config.row_begin + config.rows * config.row_stride;
      shard.row_stride = config.row_stride;
      shard.mode = ShardMode::kSinglePattern;
      shard.pattern = static_cast<std::uint8_t>(config.pattern);
      shard.hammers = hammers;
      shards.push_back(shard);
    }
  }
  return shards;
}

}  // namespace rh::core
