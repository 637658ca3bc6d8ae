// Defense implication (paper §4 summary): a variation-aware mitigation.
//
// "An RH defense mechanism can adapt itself to the heterogeneous
//  distribution of the RH vulnerability across channels and subarrays,
//  which may allow the defense mechanism to more efficiently prevent RH
//  bitflips."
//
// This scenario profiles HC_first per channel *and* per subarray class
// (normal vs the attenuated last subarray) and derives a two-level
// preventive-refresh budget, comparing it to the uniform worst-case budget.
//
// Run:   ./build/examples/variation_aware_defense [--rows=N]
#include <iostream>
#include <cmath>
#include <limits>
#include <vector>

#include "bender/host.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int example_main(common::CliArgs& args) {
  const auto rows = static_cast<std::uint32_t>(args.get_positive_int("rows", 16));
  args.reject_unqueried();

  std::cout << "== variation-aware RowHammer defense sizing ==\n\n";

  bender::BenderHost host{hbm::DeviceConfig{}};
  host.set_chip_temperature(85.0);
  const core::RowMap map = core::RowMap::from_device(host.device());
  core::CharacterizerConfig ccfg;
  ccfg.wcdp_tolerance = 2048;
  core::Characterizer chr(host, map, ccfg);

  const auto& geometry = host.device().geometry();
  std::cout << "profiling minimum HC_first per channel (" << rows << " rows each)...\n\n";

  std::vector<double> normal_min(geometry.channels, std::numeric_limits<double>::infinity());
  std::vector<double> last_sa_min(geometry.channels, std::numeric_limits<double>::infinity());
  for (std::uint32_t ch = 0; ch < geometry.channels; ++ch) {
    const core::Site site{ch, 0, 0};
    for (std::uint32_t i = 0; i < rows; ++i) {
      if (const auto hc = chr.measure_hc_first(site, 400 + i * 101,
                                               core::DataPattern::kRowstripe0, 2048)) {
        normal_min[ch] = std::min(normal_min[ch], static_cast<double>(*hc));
      }
      if (const auto hc =
              chr.measure_hc_first(site, geometry.rows_per_bank - 700 + i * 17,
                                   core::DataPattern::kRowstripe0, 2048)) {
        last_sa_min[ch] = std::min(last_sa_min[ch], static_cast<double>(*hc));
      }
    }
  }

  double chip_min = std::numeric_limits<double>::infinity();
  for (const double m : normal_min) chip_min = std::min(chip_min, m);

  // Mitigation cost model: preventive-refresh rate proportional to
  // 1/HC_first of the *region* being protected.
  common::Table table({"channel", "min HC_first (bank)", "min HC_first (last SA)",
                       "uniform cost", "aware cost"});
  double uniform_total = 0.0;
  double aware_total = 0.0;
  for (std::uint32_t ch = 0; ch < geometry.channels; ++ch) {
    const double uniform = 1.0;
    // Weighted by capacity: the last subarray is 832/16384 of the bank.
    const double frac_last = 832.0 / geometry.rows_per_bank;
    const double aware_normal = chip_min / normal_min[ch];
    const double aware_last = std::isinf(last_sa_min[ch]) ? 0.0 : chip_min / last_sa_min[ch];
    const double aware = (1.0 - frac_last) * aware_normal + frac_last * aware_last;
    uniform_total += uniform;
    aware_total += aware;
    table.add_row({std::to_string(ch), common::fmt_double(normal_min[ch], 0),
                   std::isinf(last_sa_min[ch]) ? ">262144"
                                               : common::fmt_double(last_sa_min[ch], 0),
                   common::fmt_double(uniform, 3), common::fmt_double(aware, 3)});
  }
  table.print(std::cout);

  std::cout << "\nuniform defense budget (everything provisioned for the chip-wide worst\n"
            << "case): " << common::fmt_double(uniform_total, 2)
            << "   |   variation-aware budget: " << common::fmt_double(aware_total, 2) << " ("
            << common::fmt_percent(1.0 - aware_total / uniform_total, 1) << " saved)\n"
            << "\nthe last subarray barely needs protection at all — its HC_first is far\n"
               "beyond what any attacker can accumulate inside a refresh window.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
