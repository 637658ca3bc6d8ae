// Fig. 5 of the paper: per-row WCDP BER across a bank (first / middle / last
// 3 K rows, every channel), exposing the subarray structure.
//
// Paper's observations this harness reproduces in shape:
//   - BER rises toward the middle of each subarray and falls toward its
//     edges (periodic pattern across rows)
//   - subarrays of 832 rows (SA X) and 768 rows (SA Y) — also confirmed
//     here by the single-sided boundary probe of footnote 3
//   - the bank's last subarray (SA Z, last 832 rows) shows far fewer flips
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "core/row_map.hpp"
#include "core/spatial.hpp"
#include "hbm/subarray.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  core::SurveyConfig config;
  config.row_stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 16));
  config.wcdp_by_ber = true;  // Fig. 5 only needs the per-row WCDP BER
  config.channels = {0, 7};   // default: best and worst channel
  if (args.has("all-channels")) config.channels = {0, 1, 2, 3, 4, 5, 6, 7};
  config.characterizer.ber_hammers =
      static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  config.characterizer.max_hammers = config.characterizer.ber_hammers;
  const bool probe_boundaries = !args.has("skip-boundaries");

  // The survey itself runs as a sharded campaign (--jobs/--checkpoint/
  // --resume); the layout queries read the spec's geometry, and only the
  // single-sided boundary probe below, cheap and serial, needs a host.
  const campaign::SweepSpec spec =
      campaign::survey_sweep(benchutil::paper_device_config(bench.seed()), config);
  const auto records = bench.run_campaign("fig5", spec).flat();
  const auto regions = core::paper_regions(spec.device.geometry, config.region_rows);

  common::Table table({"channel", "region", "physical row", "WCDP", "BER"});
  for (const auto& rec : records) {
    std::string region = "?";
    for (const auto& r : regions) {
      if (rec.physical_row >= r.first_row && rec.physical_row < r.first_row + r.rows) {
        region = r.name;
      }
    }
    table.add_row({std::to_string(rec.site.channel), region, std::to_string(rec.physical_row),
                   std::string(to_string(rec.wcdp)), common::fmt_percent(rec.wcdp_ber().ber(), 3)});
  }
  bench.write_csv(table);
  std::cout << "(" << table.rows() << " rows measured; per-row table in --csv output)\n";

  // Render the per-region series for the first configured channel, the way
  // the figure's subplots show them.
  const std::uint32_t render_channel = config.channels.front();
  for (const auto& region : regions) {
    std::vector<double> series;
    for (const auto& rec : records) {
      if (rec.site.channel != render_channel) continue;
      if (rec.physical_row < region.first_row || rec.physical_row >= region.first_row + region.rows)
        continue;
      series.push_back(rec.wcdp_ber().ber() * 100.0);
    }
    common::render_line(std::cout, series, 96, 10,
                        "ch" + std::to_string(render_channel) + " " + region.name +
                            " 3K rows (x = row, y = WCDP BER %)");
  }

  // Last-subarray attenuation (paper: last 832 rows).
  const auto layout = hbm::SubarrayLayout::paper_layout(spec.device.geometry.rows_per_bank);
  std::vector<double> last_sa;
  std::vector<double> rest;
  for (const auto& rec : records) {
    (layout.in_last_subarray(rec.physical_row) ? last_sa : rest)
        .push_back(rec.wcdp_ber().ber());
  }
  std::cout << "\nmean WCDP BER, last subarray (SA Z, 832 rows): "
            << common::fmt_percent(common::mean(last_sa), 3) << "  vs rest of bank: "
            << common::fmt_percent(common::mean(rest), 3) << '\n';

  // Reverse engineer the subarray boundaries in the middle region via the
  // paper's single-sided probe (footnote 3) and report the subarray sizes.
  if (probe_boundaries) {
    bender::BenderHost& host = bench.paper_chip();
    const core::RowMap map = core::RowMap::from_device(host.device());
    const core::Site site{render_channel, 0, 0};
    const auto middle = regions[1];
    const auto starts =
        core::find_subarray_boundaries(host, site, map, middle.first_row, middle.rows);
    std::cout << "\nsubarray starts detected in the middle region (single-sided probe):";
    for (const auto s : starts) std::cout << ' ' << s;
    std::cout << "\nimplied subarray sizes:";
    for (std::size_t i = 1; i < starts.size(); ++i) std::cout << ' ' << starts[i] - starts[i - 1];
    std::cout << "  (paper: 832 and 768)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Figure 5",
                              "BER for different rows across a bank (per-row WCDP)", bench_main);
}
