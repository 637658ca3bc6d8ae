// Fig. 4 of the paper: HC_first distribution across DRAM rows, per channel
// and data pattern (plus the per-row WCDP).
//
// Paper's headline observations this harness reproduces in shape:
//   - HC_first as low as ~14531 hammers across channels and patterns
//   - channels 6 and 7 have more rows with small HC_first
//   - HC_first depends on the pattern (ch0 means: Rowstripe0 57925 vs
//     Rowstripe1 79179 on the real chip)
#include <iostream>
#include <limits>
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
  config.characterizer.max_hammers =
      static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  config.characterizer.ber_hammers = config.characterizer.max_hammers;
  config.characterizer.wcdp_tolerance =
      static_cast<std::uint64_t>(args.get_positive_int("tolerance", 512));
  const campaign::SweepSpec spec =
      campaign::survey_sweep(benchutil::paper_device_config(bench.seed()), config);
  const auto records = bench.run_campaign("fig4", spec).flat();
  const auto stats = core::aggregate_hc_first(records);

  common::Table table({"channel", "pattern", "min", "q1", "median", "q3", "max", "mean", "rows"});
  for (const auto& s : stats) {
    table.add_row({std::to_string(s.channel), core::pattern_label(s.pattern),
                   common::fmt_double(s.stats.min, 0), common::fmt_double(s.stats.q1, 0),
                   common::fmt_double(s.stats.median, 0), common::fmt_double(s.stats.q3, 0),
                   common::fmt_double(s.stats.max, 0), common::fmt_double(s.stats.mean, 0),
                   std::to_string(s.stats.count)});
  }
  bench.print_table(table);

  std::vector<common::BoxRow> rows;
  for (const auto& s : stats) {
    if (s.pattern == core::kWcdpPatternIndex && s.stats.count > 0) {
      rows.push_back({"ch" + std::to_string(s.channel), s.stats});
    }
  }
  std::cout << "\nWCDP HC_first per channel (hammers):\n";
  common::render_boxplot(std::cout, rows, 64, "HC_first");

  // Headline numbers.
  double global_min = std::numeric_limits<double>::infinity();
  for (const auto& s : stats) {
    if (s.stats.count > 0) global_min = std::min(global_min, s.stats.min);
  }
  std::cout << "\npaper: min HC_first across channels/patterns = 14531  |  measured: "
            << common::fmt_double(global_min, 0) << '\n';
  std::map<std::size_t, double> ch0_mean;
  for (const auto& s : stats) {
    if (s.channel == 0) ch0_mean[s.pattern] = s.stats.mean;
  }
  std::cout << "paper: ch0 mean HC_first RS0 57925 / RS1 79179  |  measured: "
            << common::fmt_double(ch0_mean[0], 0) << " / " << common::fmt_double(ch0_mean[1], 0)
            << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Figure 4",
                              "HC_first across rows, channels, and data patterns", bench_main);
}
