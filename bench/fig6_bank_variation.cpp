// Fig. 6 of the paper: per-bank BER variation. Every bank (8 channels x 2
// pseudo channels x 16 banks = 256 banks) is summarized by the mean (y) and
// coefficient of variation (x) of its per-row WCDP BER over the first,
// middle, and last 100 rows. The survey runs as a sharded campaign (one
// shard per bank and region; --jobs/--checkpoint/--resume/--report).
//
// Paper's observations this harness reproduces in shape:
//   - banks vary in mean BER (up to ~0.23% spread within channel 7)
//   - bank-to-bank variation is dominated by channel-to-channel variation:
//     banks cluster by channel
#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "core/shard.hpp"
#include "core/spatial.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  core::SurveyConfig config;
  config.wcdp_by_ber = true;
  config.characterizer.ber_hammers =
      static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  config.characterizer.max_hammers = config.characterizer.ber_hammers;
  campaign::SweepSpec spec;
  spec.device = benchutil::paper_device_config(bench.seed());
  // The first, middle and last regions must not overlap: at most half a bank.
  config.region_rows = static_cast<std::uint32_t>(
      args.get_int_in("rows-per-region", 100, 1, spec.device.geometry.rows_per_bank / 2));
  config.row_stride = static_cast<std::uint32_t>(args.get_positive_int("row-stride", 8));

  spec.characterizer = config.characterizer;
  spec.shards = core::plan_bank_shards(config, spec.device.geometry);
  const auto points = core::aggregate_banks(bench.run_campaign("fig6", spec).flat());

  common::Table table({"channel", "pc", "bank", "mean BER", "CV", "rows"});
  for (const auto& p : points) {
    table.add_row({std::to_string(p.site.channel), std::to_string(p.site.pseudo_channel),
                   std::to_string(p.site.bank), common::fmt_percent(p.mean_ber, 3),
                   common::fmt_double(p.cv, 3), std::to_string(p.rows_tested)});
  }
  bench.write_csv(table);
  std::cout << "(" << table.rows() << " banks measured; per-bank table in --csv output)\n\n";

  // Scatter: glyph = channel digit (color in the paper); the paper marks
  // pseudo channels by shape, which the per-bank CSV preserves.
  std::vector<common::ScatterPoint> scatter;
  for (const auto& p : points) {
    scatter.push_back(
        {p.cv, p.mean_ber * 100.0, static_cast<char>('0' + (p.site.channel % 10))});
  }
  common::render_scatter(std::cout, scatter, 72, 20,
                         "per-bank mean WCDP BER % (y) vs CV (x); glyph = channel");

  // Headline checks.
  std::map<std::uint32_t, std::pair<double, double>> ch_minmax;  // channel -> {min,max} mean BER
  for (const auto& p : points) {
    auto it = ch_minmax.find(p.site.channel);
    if (it == ch_minmax.end()) {
      ch_minmax[p.site.channel] = {p.mean_ber, p.mean_ber};
    } else {
      it->second.first = std::min(it->second.first, p.mean_ber);
      it->second.second = std::max(it->second.second, p.mean_ber);
    }
  }
  common::Table summary({"channel", "min bank mean", "max bank mean", "spread (pp)"});
  for (const auto& [ch, mm] : ch_minmax) {
    summary.add_row({std::to_string(ch), common::fmt_percent(mm.first, 3),
                     common::fmt_percent(mm.second, 3),
                     common::fmt_double((mm.second - mm.first) * 100.0, 3)});
  }
  summary.print(std::cout);
  std::cout << "\npaper: up to 0.23% mean-BER spread across banks within ch7  |  measured ch7: "
            << common::fmt_double((ch_minmax[7].second - ch_minmax[7].first) * 100.0, 3)
            << " pp\n";

  // Channel dominance: worst within-channel spread vs cross-channel spread.
  double max_within = 0.0;
  for (const auto& [ch, mm] : ch_minmax) {
    (void)ch;
    max_within = std::max(max_within, mm.second - mm.first);
  }
  double lo = 1e9;
  double hi = -1e9;
  for (const auto& [ch, mm] : ch_minmax) {
    (void)ch;
    lo = std::min(lo, 0.5 * (mm.first + mm.second));
    hi = std::max(hi, 0.5 * (mm.first + mm.second));
  }
  std::cout << "cross-channel spread of channel means: " << common::fmt_double((hi - lo) * 100.0, 3)
            << " pp vs max within-channel bank spread: "
            << common::fmt_double(max_within * 100.0, 3)
            << " pp (paper: channel-level variation dominates)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Figure 6",
                              "BER variation across banks (mean vs CV, 256 banks)", bench_main);
}
