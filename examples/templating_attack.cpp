// Attack implication (paper §4 summary): memory templating.
//
// "An RH attack can use the most-RH-vulnerable HBM2 channel to reduce the
//  time it spends on preparing for an attack, by finding exploitable RH
//  bitflips faster (i.e., by accelerating memory templating), and performing
//  the attack, by benefiting from a small HC_first value."
//
// This scenario plays both strategies: scan rows in channel 0 (naive) vs
// channel 7 (informed by profiling) until N exploitable bitflips are found,
// and compares the DRAM time each strategy spends.
//
// Run:   ./build/examples/templating_attack [--targets=N]
#include <iostream>

#include "bender/host.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

struct TemplatingRun {
  std::uint32_t rows_scanned = 0;
  std::uint64_t flips_found = 0;
  double dram_time_ms = 0.0;
  std::uint64_t best_hc_first = ~0ULL;
};

TemplatingRun scan_channel(bender::BenderHost& host, const core::RowMap& map,
                           std::uint32_t channel, std::uint64_t target_flips) {
  core::Characterizer chr(host, map);
  const core::Site site{channel, 0, 0};
  TemplatingRun run;
  // Walk rows mid-subarray-first within each subarray span — the profiled
  // sweet spots — exactly what a profiling-informed attacker would do.
  for (std::uint32_t i = 0; run.flips_found < target_flips && i < 512; ++i) {
    const std::uint32_t row = 416 + i * 13;  // stays clear of subarray edges
    const auto ber = chr.measure_ber(site, row, core::DataPattern::kRowstripe0);
    ++run.rows_scanned;
    run.flips_found += ber.bit_errors;
    run.dram_time_ms += ber.elapsed_ms;
    if (ber.bit_errors > 0) {
      if (const auto hc = chr.measure_hc_first(site, row, core::DataPattern::kRowstripe0, 4096)) {
        run.best_hc_first = std::min(run.best_hc_first, *hc);
      }
    }
  }
  return run;
}

int example_main(common::CliArgs& args) {
  const auto targets = static_cast<std::uint64_t>(args.get_positive_int("targets", 2000));
  args.reject_unqueried();

  std::cout << "== memory templating: naive vs vulnerability-aware channel choice ==\n\n";

  bender::BenderHost host{hbm::DeviceConfig{}};
  host.set_chip_temperature(85.0);
  const core::RowMap map = core::RowMap::from_device(host.device());

  std::cout << "hunting for " << targets << " exploitable bitflips...\n\n";
  const TemplatingRun naive = scan_channel(host, map, 0, targets);
  const TemplatingRun informed = scan_channel(host, map, 7, targets);

  common::Table table({"strategy", "channel", "rows scanned", "flips found",
                       "DRAM time (ms)", "best HC_first"});
  table.add_row({"naive", "0", std::to_string(naive.rows_scanned),
                 std::to_string(naive.flips_found),
                 common::fmt_double(naive.dram_time_ms, 1),
                 naive.best_hc_first == ~0ULL ? "n/a" : std::to_string(naive.best_hc_first)});
  table.add_row({"profiled", "7", std::to_string(informed.rows_scanned),
                 std::to_string(informed.flips_found),
                 common::fmt_double(informed.dram_time_ms, 1),
                 informed.best_hc_first == ~0ULL ? "n/a"
                                                 : std::to_string(informed.best_hc_first)});
  table.print(std::cout);

  if (informed.dram_time_ms > 0.0) {
    std::cout << "\ntemplating speedup from targeting the most vulnerable channel: "
              << common::fmt_double(naive.dram_time_ms / informed.dram_time_ms, 2) << "x\n";
  }
  std::cout << "the smaller best-HC_first in channel 7 also shortens the *online* attack\n"
               "(fewer activations needed per induced flip), as §4 of the paper notes.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return common::run_main(argc, argv, example_main); }
