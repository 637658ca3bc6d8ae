// §5 of the paper: uncovering the undisclosed in-DRAM TRR mechanism with the
// U-TRR retention side channel.
//
// Paper's result this harness reproduces: the profiled victim row is
// refreshed once every 17 iterations (one periodic REF per iteration), so
// the chip implements a proprietary TRR that fires on every 17th REF —
// resembling the Vendor C mechanism U-TRR found in DDR4.
#include <iostream>

#include "bench_util.hpp"
#include "core/row_map.hpp"
#include "core/utrr.hpp"

using namespace rh;

namespace {

/// Rows past --row the probe-row scan may try before it gives up.
constexpr std::uint32_t kProbeScan = 64;

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const hbm::Geometry geometry = benchutil::paper_device_config(bench.seed()).geometry;
  const core::Site site{
      static_cast<std::uint32_t>(args.get_int_in("channel", 0, 0, geometry.channels - 1)), 0,
      static_cast<std::uint32_t>(
          args.get_int_in("bank", 0, 0, geometry.banks_per_pseudo_channel - 1))};
  // Pick a probe row away from the REF-pointer sweep (2 rows advance per
  // REF; 100 iterations sweep rows 0..199). The scan may try kProbeScan
  // rows past it, each with its aggressor R+1.
  const auto probe_row = static_cast<std::uint32_t>(
      args.get_int_in("row", 4096, 0, geometry.rows_per_bank - 2 - kProbeScan));
  const auto iterations = static_cast<std::uint32_t>(args.get_positive_int("iterations", 100));

  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());
  core::UtrrConfig config;
  config.iterations = iterations;
  core::UtrrExperiment experiment(host, map, config);

  // The probe row must have a measurable retention time; scan forward from
  // the requested row until one profiles successfully.
  core::UtrrResult result;
  std::uint32_t row = probe_row;
  for (;; ++row) {
    try {
      result = experiment.run(site, row);
      break;
    } catch (const common::Error&) {
      if (row == probe_row + kProbeScan) throw;
    }
  }

  std::cout << "probe row (physical):      " << row << '\n'
            << "profiled retention time:   " << common::fmt_double(result.retention_ms, 1)
            << " ms\n"
            << "per-iteration wait:        " << common::fmt_double(result.wait_ms, 1) << " ms\n"
            << "iterations:                " << iterations << '\n';

  std::cout << "refreshed at iterations:   ";
  for (const auto it : result.refreshed_iterations) std::cout << it << ' ';
  std::cout << '\n';

  common::Table table({"quantity", "paper", "measured"});
  table.add_row({"TRR detected", "yes", result.trr_detected() ? "yes" : "no"});
  table.add_row({"victim refresh period (REFs)", "17",
                 result.inferred_period ? std::to_string(*result.inferred_period) : "n/a"});
  table.add_row({"firings in 100 iterations", "~5",
                 std::to_string(result.refreshed_iterations.size())});
  bench.print_table(table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Section 5",
                              "U-TRR: uncovering the undisclosed in-DRAM TRR", bench_main);
}
