// Ablation A4 (paper §4 implication): a variation-aware RowHammer defense.
//
// The paper's second takeaway: "an RH defense mechanism can adapt itself to
// the heterogeneous distribution of the RH vulnerability across channels and
// subarrays, which may allow the defense mechanism to more efficiently
// prevent RH bitflips."
//
// This harness quantifies that: a preventive-refresh-style defense must
// bound the activation count any aggressor can reach below HC_first. A
// *uniform* defense provisions every channel for the chip-wide minimum
// HC_first; a *variation-aware* defense provisions each channel for its own
// minimum. Mitigation cost is modelled as proportional to 1/HC_first (the
// preventive refresh rate), so the saving is the gap between the chip-wide
// worst case and each channel's own worst case.
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  // Rows 512 + 97i for i < --rows, all inside one bank.
  const std::int64_t last_row =
      benchutil::paper_device_config(bench.seed()).geometry.rows_per_bank - 1;
  const auto rows =
      static_cast<std::uint32_t>(args.get_int_in("rows", 24, 1, (last_row - 512) / 97 + 1));
  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());

  core::CharacterizerConfig ccfg;
  ccfg.wcdp_tolerance = 1024;
  core::Characterizer chr(host, map, ccfg);

  // Profile each channel's minimum HC_first over a row sample (RS0: the
  // strongest pattern on this chip).
  std::vector<double> channel_min(host.device().geometry().channels,
                                  std::numeric_limits<double>::infinity());
  for (std::uint32_t ch = 0; ch < host.device().geometry().channels; ++ch) {
    const core::Site site{ch, 0, 0};
    for (std::uint32_t i = 0; i < rows; ++i) {
      const std::uint32_t row = 512 + i * 97;
      if (const auto hc =
              chr.measure_hc_first(site, row, core::DataPattern::kRowstripe0, 1024)) {
        channel_min[ch] = std::min(channel_min[ch], static_cast<double>(*hc));
      }
    }
  }

  double chip_min = std::numeric_limits<double>::infinity();
  for (const double m : channel_min) chip_min = std::min(chip_min, m);

  common::Table table({"channel", "min HC_first", "uniform cost", "aware cost", "saving"});
  double total_uniform = 0.0;
  double total_aware = 0.0;
  for (std::uint32_t ch = 0; ch < channel_min.size(); ++ch) {
    const double uniform = 1.0;                       // provisioned for chip_min
    const double aware = chip_min / channel_min[ch];  // provisioned for own min
    total_uniform += uniform;
    total_aware += aware;
    table.add_row({std::to_string(ch), common::fmt_double(channel_min[ch], 0),
                   common::fmt_double(uniform, 3), common::fmt_double(aware, 3),
                   common::fmt_percent(1.0 - aware / uniform, 1)});
  }
  bench.print_table(table);
  std::cout << "\ntotal mitigation cost (normalized preventive-refresh rate): uniform "
            << common::fmt_double(total_uniform, 2) << " vs variation-aware "
            << common::fmt_double(total_aware, 2) << " ("
            << common::fmt_percent(1.0 - total_aware / total_uniform, 1) << " saved)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A4 (variation-aware defense)",
                              "per-channel HC_first profiling -> mitigation cost", bench_main);
}
