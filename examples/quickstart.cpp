// Quickstart: the shortest path from zero to a RowHammer measurement.
//
//   1. bring up the host + simulated HBM2 board
//   2. drive the thermal rig to the paper's 85 degC operating point
//   3. reverse engineer the logical->physical row mapping (§3.1)
//   4. measure one row: BER at 256 K hammers and HC_first, per data pattern
//
// Build & run:   ./build/examples/quickstart [--channel=N] [--row=N]
#include <iostream>

#include "bender/host.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int example_main(common::CliArgs& args) {
  // The DeviceConfig defaults model the paper's chip: 4 GiB stack,
  // 8 channels x 2 pseudo channels x 16 banks x 16384 rows.
  const hbm::DeviceConfig config;
  const auto channel =
      static_cast<std::uint32_t>(args.get_int_in("channel", 7, 0, config.geometry.channels - 1));
  const auto row =
      static_cast<std::uint32_t>(args.get_int_in("row", 416, 0, config.geometry.rows_per_bank - 1));
  args.reject_unqueried();

  std::cout << "== hbm2-rowhammer-lab quickstart ==\n\n";

  // 1. Host + device.
  bender::BenderHost host{config};
  std::cout << "device: " << host.device().geometry().stack_bytes() / (1024 * 1024 * 1024)
            << " GiB stack, " << host.device().geometry().channels << " channels, "
            << host.device().geometry().total_banks() << " banks\n";

  // 2. Thermal rig: PID-controlled heating pad + fan, like the testbed.
  host.set_chip_temperature(85.0);
  std::cout << "chip temperature settled at "
            << common::fmt_double(host.thermal().temperature(), 2) << " degC\n";

  // 3. The row decoder scrambles addresses; find the real adjacency with
  //    single-sided hammering probes before choosing aggressor rows.
  const core::Site site{channel, 0, 0};
  const core::RowMap map = core::reverse_engineer_window(host, site, 128, 64);
  std::cout << "row mapping recovered: logical 1 -> physical " << map.logical_to_physical(1)
            << " (so naive +/-1 aggressors would miss)\n\n";

  // 4. Characterize one victim row with the paper's methodology.
  core::Characterizer chr(host, map);
  std::cout << "characterizing physical row " << row << " in channel " << channel << "...\n";
  const core::RowRecord record = chr.characterize_row(site, row);

  common::Table table({"pattern", "BER @256K", "HC_first"});
  for (std::size_t i = 0; i < core::kAllPatterns.size(); ++i) {
    table.add_row({std::string(to_string(core::kAllPatterns[i])),
                   common::fmt_percent(record.ber[i].ber(), 3),
                   record.hc_first[i] ? std::to_string(*record.hc_first[i]) : ">262144"});
  }
  table.print(std::cout);
  std::cout << "\nworst-case data pattern (WCDP) for this row: " << to_string(record.wcdp)
            << ", BER " << common::fmt_percent(record.wcdp_ber().ber(), 3) << "\n"
            << "each measurement ran in "
            << common::fmt_double(record.ber[0].elapsed_ms, 1)
            << " ms of DRAM time — inside the paper's 27 ms retention-safety bound.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
