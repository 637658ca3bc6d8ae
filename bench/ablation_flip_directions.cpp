// Ablation A9 (paper §4 closing observation): "the RH vulnerability of a
// cell depends on ... data stored in the neighboring cells" — bit-level
// anatomy of the flips.
//
// Prints, per data pattern: total flips across a row sample, the 0->1 vs
// 1->0 direction split (exposing the true-/anti-cell composition), and the
// per-cell repeatability of the flips.
#include <iostream>

#include "bench_util.hpp"
#include "core/bitflip_analysis.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const auto rows = static_cast<std::uint32_t>(args.get_positive_int("rows", 12));
  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());
  core::BitflipAnalyzer analyzer(host, map);
  const core::Site site{7, 0, 0};

  common::Table table({"pattern", "victim byte", "flips", "0->1", "1->0", "0->1 share"});
  for (const auto pattern : core::kAllPatterns) {
    const auto census = analyzer.direction_census(site, 400, rows, 7, pattern);
    char victim[8];
    std::snprintf(victim, sizeof victim, "0x%02X", core::victim_byte(pattern));
    table.add_row({std::string(to_string(pattern)), victim, std::to_string(census.total()),
                   std::to_string(census.zero_to_one), std::to_string(census.one_to_zero),
                   common::fmt_percent(census.zero_to_one_fraction(), 1)});
  }
  bench.print_table(table);

  const double repeat = analyzer.repeatability(site, 416, core::DataPattern::kRowstripe0);
  std::cout << "\nper-cell repeatability of an identical repeated experiment: "
            << common::fmt_percent(repeat, 1)
            << "\n(RowHammer flips are per-cell deterministic — the property memory\n"
               "templating attacks rely on; checkered rows flip in both directions\n"
               "because both cell orientations hold charge somewhere in the row.)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A9 (flip directions)",
                              "0->1 vs 1->0 bitflip anatomy per data pattern", bench_main);
}
