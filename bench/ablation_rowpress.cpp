// Ablation A1 (paper §6, future work 2): sensitivity to the time an
// aggressor row remains open (RowPress, ISCA'23).
//
// Expectation encoded in the fault model: disturbance per activation grows
// with aggressor on-time, so at a fixed hammer count the BER rises and
// HC_first falls as tON grows. This harness sweeps tON and reports both.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/characterizer.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  // Victims are rows --base-row + 7i for i < --rows, all inside one bank.
  const hbm::Geometry geometry = benchutil::paper_device_config(bench.seed()).geometry;
  const std::int64_t last_row = geometry.rows_per_bank - 1;
  const auto rows = static_cast<std::uint32_t>(args.get_int_in("rows", 8, 1, last_row / 7 + 1));
  const auto base_row =
      static_cast<std::uint32_t>(args.get_int_in("base-row", 1024, 0, last_row - 7 * (rows - 1)));
  bender::BenderHost& host = bench.paper_chip();
  const auto& timings = host.device().timings();
  const core::Site site{0, 0, 0};
  const core::RowMap map = core::RowMap::from_device(host.device());

  // On-times: minimal (tRAS) and multiples of it. Long on-times slow the
  // hammer loop, so the per-test hammer budget shrinks to stay inside the
  // 27 ms retention bound — exactly the trade a real RowPress test faces.
  const std::vector<std::uint64_t> on_times{0, 2 * timings.tRAS, 4 * timings.tRAS,
                                            8 * timings.tRAS, 16 * timings.tRAS};

  common::Table table(
      {"on-time (cycles)", "hammers", "mean BER", "mean HC_first", "rows with flips"});
  for (const std::uint64_t on : on_times) {
    const hbm::Cycle per_hammer =
        2 * std::max<hbm::Cycle>(timings.tRC, std::max<hbm::Cycle>(on, timings.tRAS) + timings.tRP);
    // Stay within ~24 ms of hammering.
    const std::uint64_t budget = hbm::ms_to_cycles(24.0) / per_hammer;
    const std::uint64_t hammers = std::min<std::uint64_t>(262'144, budget);

    core::CharacterizerConfig config;
    config.aggressor_on_time = on;
    config.ber_hammers = hammers;
    config.max_hammers = hammers;
    core::Characterizer chr(host, map, config);

    double ber_sum = 0.0;
    double hc_sum = 0.0;
    int hc_count = 0;
    int flipped_rows = 0;
    for (std::uint32_t i = 0; i < rows; ++i) {
      const std::uint32_t row = base_row + i * 7;
      const auto ber = chr.measure_ber(site, row, core::DataPattern::kRowstripe0);
      ber_sum += ber.ber();
      if (ber.bit_errors > 0) ++flipped_rows;
      if (const auto hc = chr.measure_hc_first(site, row, core::DataPattern::kRowstripe0, 512)) {
        hc_sum += static_cast<double>(*hc);
        ++hc_count;
      }
    }
    table.add_row({std::to_string(on == 0 ? timings.tRAS : on), std::to_string(hammers),
                   common::fmt_percent(ber_sum / rows, 3),
                   hc_count > 0 ? common::fmt_double(hc_sum / hc_count, 0) : "n/a",
                   std::to_string(flipped_rows) + "/" + std::to_string(rows)});
  }
  bench.print_table(table);
  std::cout << "\nexpected shape (RowPress): HC_first falls as on-time grows; per-hammer\n"
               "damage rises even though the timing budget allows fewer hammers.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A1 (RowPress)",
                              "BER / HC_first vs aggressor row on-time", bench_main);
}
