// Spatial characterization scenario: a compact version of the paper's §4
// study. Surveys two channels (the best and the worst die), prints the
// BER / HC_first distributions, and walks through the subarray structure
// the way Figs. 3-5 do. Use the bench binaries for the full-figure runs.
//
// Run:   ./build/examples/spatial_characterization [--stride=N]
#include <iostream>
#include <vector>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"
#include "common/ascii_plot.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/row_map.hpp"
#include "core/spatial.hpp"

using namespace rh;

namespace {

int example_main(common::CliArgs& args) {
  core::SurveyConfig config;
  config.channels = {0, 6, 7};
  config.row_stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 384));
  config.characterizer.wcdp_tolerance = 4096;
  args.reject_unqueried();

  std::cout << "== spatial variation study (paper §4, condensed) ==\n\n";

  bender::BenderHost host{hbm::DeviceConfig{}};
  host.set_chip_temperature(85.0);

  // The survey runs as a campaign on its own rig; `host` is the probe's.
  campaign::CampaignConfig run;
  run.progress = false;
  std::cout << "surveying channels 0, 6, 7 (stride " << config.row_stride
            << " over the first/middle/last 3K rows)...\n\n";
  const auto records =
      campaign::Campaign(run).run(campaign::survey_sweep(hbm::DeviceConfig{}, config)).flat();

  // Fig. 3 style: WCDP BER per channel.
  const auto ber_stats = core::aggregate_ber(records);
  std::vector<common::BoxRow> rows;
  for (const auto& s : ber_stats) {
    if (s.pattern == 4) {
      common::BoxStats pct = s.stats;
      for (double* v : {&pct.min, &pct.q1, &pct.median, &pct.q3, &pct.max, &pct.mean}) {
        *v *= 100.0;
      }
      rows.push_back({"ch" + std::to_string(s.channel), pct});
    }
  }
  std::cout << "WCDP BER by channel (percent) — channels 6/7 share the most\n"
               "vulnerable die, exactly the pairing the paper observes:\n";
  common::render_boxplot(std::cout, rows, 60, "BER %");

  // Fig. 4 style: HC_first summary.
  const auto hc_stats = core::aggregate_hc_first(records);
  common::Table table({"channel", "pattern", "min HC_first", "mean HC_first", "rows"});
  for (const auto& s : hc_stats) {
    if (s.stats.count == 0) continue;
    table.add_row({std::to_string(s.channel), core::pattern_label(s.pattern),
                   common::fmt_double(s.stats.min, 0), common::fmt_double(s.stats.mean, 0),
                   std::to_string(s.stats.count)});
  }
  std::cout << '\n';
  table.print(std::cout);

  // Fig. 5 / footnote 3: find the subarray boundaries by single-sided probes.
  std::cout << "\nreverse engineering subarray boundaries around the first 2.5K rows\n"
               "(an aggressor at a subarray edge flips victims on only one side):\n";
  const core::RowMap map = core::RowMap::from_device(host.device());
  const auto starts = core::find_subarray_boundaries(host, core::Site{0, 0, 0}, map, 1, 2500);
  std::cout << "  subarray starts:";
  for (const auto s : starts) std::cout << ' ' << s;
  std::cout << "\n  -> subarrays of ";
  for (std::size_t i = 1; i < starts.size(); ++i) std::cout << starts[i] - starts[i - 1] << ' ';
  std::cout << "rows (the paper finds 832- and 768-row subarrays)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
