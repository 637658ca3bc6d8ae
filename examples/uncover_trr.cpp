// Uncovering the undisclosed in-DRAM TRR (paper §5), narrated step by step.
//
// The chip documents one TRR mode (JEDEC MR15), but also ships a
// *proprietary* mitigation invisible to the memory controller. The U-TRR
// methodology exposes it with nothing but retention failures:
// if a row decays unless someone refreshes it, then "it did not decay" is
// proof that the in-DRAM mitigation touched it.
//
// Run:   ./build/examples/uncover_trr [--iterations=N]
#include <iostream>

#include "bender/host.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/retention_profiler.hpp"
#include "core/row_map.hpp"
#include "core/utrr.hpp"

using namespace rh;

namespace {

int example_main(common::CliArgs& args) {
  const auto iterations = static_cast<std::uint32_t>(args.get_positive_int("iterations", 100));
  args.reject_unqueried();

  std::cout << "== uncovering the proprietary TRR (paper §5) ==\n\n";

  bender::BenderHost host{hbm::DeviceConfig{}};
  host.set_chip_temperature(85.0);
  const core::RowMap map = core::RowMap::from_device(host.device());
  const core::Site site{0, 0, 0};

  // Step 1: find a row with a usable retention time, away from the
  // REF-pointer sweep (the sweep covers 2 rows per REF from row 0).
  core::RetentionProfiler profiler(host, map);
  std::uint32_t probe_row = 4096;
  std::optional<core::RetentionProfile> profile;
  while (!(profile = profiler.profile(site, probe_row))) ++probe_row;
  std::cout << "step 1: row " << probe_row << " decays after "
            << common::fmt_double(profile->retention_ms, 1) << " ms unrefreshed ("
            << profile->flips << " retention bitflips)\n";

  // Steps 2-6, iterated: write + wait T/2, poke the aggressor, REF, wait
  // T/2, read. No flips on an iteration == TRR refreshed our row.
  std::cout << "step 2-6: running " << iterations << " iterations of the side-channel loop\n";
  core::UtrrConfig config;
  config.iterations = iterations;
  core::UtrrExperiment experiment(host, map, config);
  const core::UtrrResult result = experiment.run(site, probe_row);

  std::cout << "\niterations where the row was silently refreshed:";
  for (const auto it : result.refreshed_iterations) std::cout << ' ' << it;
  std::cout << '\n';

  if (result.trr_detected()) {
    std::cout << "\n=> the chip implements an undisclosed TRR mechanism.\n";
    if (result.inferred_period) {
      std::cout << "=> it performs a victim-row refresh once every " << *result.inferred_period
                << " periodic REF commands";
      if (*result.inferred_period == 17) {
        std::cout << " — the paper's finding exactly (and the same period U-TRR\n"
                     "   reported for DDR4 chips from 'Vendor C')";
      }
      std::cout << ".\n";
    }
  } else {
    std::cout << "\n=> no proprietary mitigation observed on this device.\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
