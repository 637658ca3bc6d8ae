#include "core/spatial.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/assert.hpp"

namespace rh::core {

std::vector<RegionSpec> paper_regions(const hbm::Geometry& geometry, std::uint32_t region_rows) {
  RH_EXPECTS(region_rows > 0 && region_rows * 2 <= geometry.rows_per_bank);
  const std::uint32_t middle_first = (geometry.rows_per_bank - region_rows) / 2;
  return {
      {"first", 0, region_rows},
      {"middle", middle_first, region_rows},
      {"last", geometry.rows_per_bank - region_rows, region_rows},
  };
}

std::string pattern_label(std::size_t pattern_index) {
  if (pattern_index < kAllPatterns.size()) {
    return std::string(to_string(kAllPatterns[pattern_index]));
  }
  return "WCDP";
}

namespace {

template <typename Extract>
std::vector<ChannelPatternStats> aggregate(const std::vector<RowRecord>& records,
                                           Extract&& extract) {
  std::vector<std::uint32_t> channels;
  for (const auto& rec : records) {
    if (std::find(channels.begin(), channels.end(), rec.site.channel) == channels.end()) {
      channels.push_back(rec.site.channel);
    }
  }
  std::sort(channels.begin(), channels.end());

  std::vector<ChannelPatternStats> out;
  for (const std::uint32_t channel : channels) {
    for (std::size_t pattern = 0; pattern <= kWcdpPatternIndex; ++pattern) {
      std::vector<double> values;
      for (const auto& rec : records) {
        if (rec.site.channel != channel) continue;
        extract(rec, pattern, values);
      }
      ChannelPatternStats s;
      s.channel = channel;
      s.pattern = pattern;
      s.stats = common::box_stats(values);
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

std::vector<ChannelPatternStats> aggregate_ber(const std::vector<RowRecord>& records) {
  return aggregate(records,
                   [](const RowRecord& rec, std::size_t pattern, std::vector<double>& values) {
                     if (pattern < kAllPatterns.size()) {
                       values.push_back(rec.ber[pattern].ber());
                     } else {
                       values.push_back(rec.wcdp_ber().ber());
                     }
                   });
}

std::vector<ChannelPatternStats> aggregate_hc_first(const std::vector<RowRecord>& records) {
  return aggregate(records,
                   [](const RowRecord& rec, std::size_t pattern, std::vector<double>& values) {
                     if (pattern < kAllPatterns.size()) {
                       if (rec.hc_first[pattern]) {
                         values.push_back(static_cast<double>(*rec.hc_first[pattern]));
                       }
                     } else if (const auto hc = rec.hc_first[static_cast<std::size_t>(rec.wcdp)]) {
                       values.push_back(static_cast<double>(*hc));
                     }
                   });
}

std::vector<BankPoint> aggregate_banks(const std::vector<RowRecord>& records) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, std::vector<double>> banks;
  for (const auto& rec : records) {
    banks[{rec.site.channel, rec.site.pseudo_channel, rec.site.bank}].push_back(
        rec.wcdp_ber().ber());
  }
  std::vector<BankPoint> points;
  for (const auto& [key, bers] : banks) {
    const auto [channel, pseudo_channel, bank] = key;
    points.push_back({Site{channel, pseudo_channel, bank}, common::mean(bers),
                      common::coefficient_of_variation(bers), bers.size()});
  }
  return points;
}

}  // namespace rh::core
