// Ablation A8 (paper §6, future work 1): "testing more HBM chips".
//
// The paper tested a single stack and plans a population study for
// statistical significance. Here every seed is a different simulated chip
// (fresh process-variation and per-cell lotteries around the same physics);
// this harness characterizes a small population (chip k has device seed
// --seed + k * 0x9e37) and reports how the headline metrics vary chip to
// chip — the qualitative claims must hold for every chip, while the exact
// numbers move.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const auto chips = static_cast<std::uint32_t>(args.get_positive_int("chips", 6));
  // Rows 400 + 61i for i < --rows, all inside one bank.
  const std::int64_t last_row =
      benchutil::paper_device_config(bench.seed()).geometry.rows_per_bank - 1;
  const auto rows =
      static_cast<std::uint32_t>(args.get_int_in("rows", 16, 1, (last_row - 400) / 61 + 1));

  common::Table table({"chip (seed)", "ch0 mean BER", "ch7 mean BER", "ch7/ch0",
                       "min HC_first (sampled)"});
  std::vector<double> ratios;
  bool ordering_holds = true;

  for (std::uint32_t chip = 0; chip < chips; ++chip) {
    const std::uint64_t seed = bench.seed() + chip * 0x9e37ULL;
    const auto host = bench.chip(seed);
    host->device().set_temperature(85.0);
    const core::RowMap map = core::RowMap::from_device(host->device());
    core::CharacterizerConfig ccfg;
    ccfg.wcdp_tolerance = 2048;
    core::Characterizer chr(*host, map, ccfg);

    double ber0 = 0.0;
    double ber7 = 0.0;
    std::uint64_t min_hc = ~0ULL;
    for (std::uint32_t i = 0; i < rows; ++i) {
      const std::uint32_t row = 400 + i * 61;
      ber0 += chr.measure_ber(core::Site{0, 0, 0}, row, core::DataPattern::kRowstripe0).ber();
      ber7 += chr.measure_ber(core::Site{7, 0, 0}, row, core::DataPattern::kRowstripe0).ber();
      if (const auto hc = chr.measure_hc_first(core::Site{7, 0, 0}, row,
                                               core::DataPattern::kRowstripe0, 2048)) {
        min_hc = std::min(min_hc, *hc);
      }
    }
    ber0 /= rows;
    ber7 /= rows;
    const double ratio = ber0 > 0 ? ber7 / ber0 : 0.0;
    ratios.push_back(ratio);
    ordering_holds &= ber7 > ber0;
    table.add_row({"0x" + [&] {
                     char buf[32];
                     std::snprintf(buf, sizeof buf, "%llx",
                                   static_cast<unsigned long long>(seed));
                     return std::string(buf);
                   }(),
                   common::fmt_percent(ber0, 3), common::fmt_percent(ber7, 3),
                   common::fmt_double(ratio, 2) + "x",
                   min_hc == ~0ULL ? "n/a" : std::to_string(min_hc)});
  }
  bench.print_table(table);

  const auto stats = common::box_stats(ratios);
  std::cout << "\nch7/ch0 BER ratio across " << chips << " chips: median "
            << common::fmt_double(stats.median, 2) << "x, range ["
            << common::fmt_double(stats.min, 2) << "x, " << common::fmt_double(stats.max, 2)
            << "x]\nworst-die ordering (ch7 > ch0) held on "
            << (ordering_holds ? "every chip" : "NOT every chip — investigate!") << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A8 (chip population)",
                              "headline metrics across simulated chips (seeds)", bench_main);
}
