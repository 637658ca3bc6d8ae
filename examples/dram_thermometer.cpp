// DRAM as a thermometer (related work [123]: temperature estimation of
// HBM2 channels from retention-error tails).
//
// Retention time halves per ~+10 degC, so the retention bitflip count of a
// fixed row population after a fixed unrefreshed wait is a monotone
// function of chip temperature. Calibrate the curve at known setpoints,
// then read the chip's temperature *from the DRAM itself* — no thermal
// sensor involved. This also demonstrates the SpyHammer-style risk the
// paper's reference list touches on: memory remotely leaks physical
// quantities.
//
// Run:   ./build/examples/dram_thermometer
#include <iostream>

#include "bender/host.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/row_map.hpp"
#include "core/thermometer.hpp"

using namespace rh;

namespace {

int example_main(common::CliArgs& args) {
  args.reject_unqueried();

  std::cout << "== DRAM-as-thermometer (retention side channel) ==\n\n";

  bender::BenderHost host{hbm::DeviceConfig{}};
  const core::RowMap map = core::RowMap::from_device(host.device());
  core::DramThermometer thermometer(host, map, core::Site{0, 0, 0});

  std::cout << "calibrating at 45 / 55 / 65 / 75 / 85 degC (thermal rig does the work)...\n";
  thermometer.calibrate({45.0, 55.0, 65.0, 75.0, 85.0});

  common::Table cal({"temperature (degC)", "retention flips"});
  for (const auto& point : thermometer.calibration()) {
    cal.add_row({common::fmt_double(point.temperature_c, 1), std::to_string(point.flips)});
  }
  cal.print(std::cout);

  std::cout << "\nnow pretending we do NOT know the chip temperature...\n";
  common::Table est({"true degC (hidden)", "estimated from DRAM", "error"});
  for (const double truth : {50.0, 62.0, 70.0, 81.0}) {
    host.set_chip_temperature(truth);
    const double estimated = thermometer.estimate();
    est.add_row({common::fmt_double(truth, 1), common::fmt_double(estimated, 1),
                 common::fmt_double(estimated - truth, 1)});
  }
  est.print(std::cout);
  std::cout << "\nthe DRAM array itself reports its temperature to within a couple of\n"
               "degrees — handy for testing rigs, worrying for isolation.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
