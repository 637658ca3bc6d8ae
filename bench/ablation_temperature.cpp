// Ablation A2 (paper §6, future work 2): RowHammer sensitivity to chip
// temperature, driven end-to-end through the thermal rig (heating pad +
// fan + PID controller), the way the real testbed changes temperature.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  // Rows 1024 + 11i for i < --rows, all inside one bank.
  const std::int64_t last_row =
      benchutil::paper_device_config(bench.seed()).geometry.rows_per_bank - 1;
  const auto rows =
      static_cast<std::uint32_t>(args.get_int_in("rows", 12, 1, (last_row - 1024) / 11 + 1));
  const auto host = bench.chip(bench.seed());  // not paper_chip(): no 85 degC pre-settle
  const core::Site site{0, 0, 0};
  const core::RowMap map = core::RowMap::from_device(host->device());
  core::Characterizer chr(*host, map);

  common::Table table({"target degC", "settled degC", "heater duty", "fan duty", "mean BER"});
  for (const double target : std::vector<double>{45.0, 65.0, 85.0, 95.0}) {
    host->set_chip_temperature(target);
    double ber_sum = 0.0;
    for (std::uint32_t i = 0; i < rows; ++i) {
      ber_sum += chr.measure_ber(site, 1024 + i * 11, core::DataPattern::kRowstripe0).ber();
    }
    table.add_row({common::fmt_double(target, 1),
                   common::fmt_double(host->thermal().temperature(), 2),
                   common::fmt_double(host->thermal().heater_duty(), 2),
                   common::fmt_double(host->thermal().fan_duty(), 2),
                   common::fmt_percent(ber_sum / rows, 3)});
  }
  bench.print_table(table);
  std::cout << "\nexpected shape: mild monotone increase of BER with temperature\n"
               "(the paper runs all headline experiments at 85 degC).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A2 (temperature)",
                              "BER vs chip temperature via the thermal rig", bench_main);
}
