// Fig. 3 of the paper: RowHammer BER distribution across DRAM rows, per
// channel and data pattern (plus the per-row worst-case data pattern).
//
// Paper's headline observations this harness reproduces in shape:
//   - bitflips occur in every tested row across all channels
//   - channels group in pairs (dies); channels 6 and 7 are worst
//   - channel 7 WCDP BER ~2x channel 0's
//   - BER depends on the data pattern (e.g. ch7 max BER: Rowstripe1 3.13%
//     vs Checkered0 2.04% on the real chip)
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "core/spatial.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  core::SurveyConfig config;
  config.row_stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 256));
  config.characterizer.ber_hammers =
      static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  config.characterizer.max_hammers = config.characterizer.ber_hammers;
  const campaign::SweepSpec spec =
      campaign::survey_sweep(benchutil::paper_device_config(bench.seed()), config);
  const auto records = bench.run_campaign("fig3", spec).flat();
  const auto stats = core::aggregate_ber(records);

  common::Table table({"channel", "pattern", "min", "q1", "median", "q3", "max", "mean", "rows"});
  for (const auto& s : stats) {
    table.add_row({std::to_string(s.channel), core::pattern_label(s.pattern),
                   common::fmt_percent(s.stats.min), common::fmt_percent(s.stats.q1),
                   common::fmt_percent(s.stats.median), common::fmt_percent(s.stats.q3),
                   common::fmt_percent(s.stats.max), common::fmt_percent(s.stats.mean),
                   std::to_string(s.stats.count)});
  }
  bench.print_table(table);

  // Compact rendering of the figure: WCDP box per channel.
  std::vector<common::BoxRow> rows;
  std::map<std::uint32_t, double> wcdp_mean;
  for (const auto& s : stats) {
    if (s.pattern == core::kWcdpPatternIndex) {
      common::BoxStats pct = s.stats;
      pct.min *= 100.0;
      pct.q1 *= 100.0;
      pct.median *= 100.0;
      pct.q3 *= 100.0;
      pct.max *= 100.0;
      pct.mean *= 100.0;
      rows.push_back({"ch" + std::to_string(s.channel), pct});
      wcdp_mean[s.channel] = s.stats.mean;
    }
  }
  std::cout << "\nWCDP BER per channel (percent):\n";
  common::render_boxplot(std::cout, rows, 64, "BER %");

  if (wcdp_mean.count(0) != 0 && wcdp_mean.count(7) != 0 && wcdp_mean[0] > 0.0) {
    std::cout << "\npaper: ch7 WCDP BER = 2.03x ch0  |  measured: " << common::fmt_double(
                     wcdp_mean[7] / wcdp_mean[0], 2)
              << "x\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Figure 3",
                              "BER across rows, channels, and data patterns", bench_main);
}
