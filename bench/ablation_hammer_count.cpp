// Ablation A12: BER as a function of hammer count — the onset curve behind
// the paper's two metrics. HC_first is where the curve leaves zero; the
// 256 K-hammer BER (Figs. 3/5/6) is one vertical slice of it. The curve's
// shape (slow tail onset, then super-linear growth) is what makes both
// metrics necessary: neither alone describes the vulnerability.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "core/shard.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  // One shard per (hammer count, channel 0 or 7): `rows` rows starting at
  // physical row 410, every 23rd row, one Rowstripe0 measure_ber each.
  core::OnsetConfig onset;
  const std::int64_t last_row =
      benchutil::paper_device_config(bench.seed()).geometry.rows_per_bank - 1;
  const auto rows = static_cast<std::uint32_t>(args.get_int_in(
      "rows", onset.rows, 1, (last_row - onset.row_begin) / onset.row_stride + 1));
  onset.rows = rows;
  const auto& counts = onset.hammer_counts;

  campaign::SweepSpec spec;
  spec.device = benchutil::paper_device_config(bench.seed());
  spec.shards = core::plan_onset_shards(onset);

  const auto result = bench.run_campaign("hammer_count", spec);

  common::Table table({"hammers", "ch0 mean BER", "ch7 mean BER", "ch0 rows flipped",
                       "ch7 rows flipped"});
  std::vector<double> curve7;
  for (std::size_t ci = 0; ci < counts.size(); ++ci) {
    double ber[2] = {0.0, 0.0};
    int flipped[2] = {0, 0};
    for (int c = 0; c < 2; ++c) {
      for (const auto& rec : result.per_shard[ci * 2 + static_cast<std::size_t>(c)]) {
        ber[c] += rec.ber[0].ber();
        flipped[c] += rec.ber[0].bit_errors > 0;
      }
      ber[c] /= rows;
    }
    curve7.push_back(ber[1] * 100.0);
    table.add_row({std::to_string(counts[ci]), common::fmt_percent(ber[0], 3),
                   common::fmt_percent(ber[1], 3),
                   std::to_string(flipped[0]) + "/" + std::to_string(rows),
                   std::to_string(flipped[1]) + "/" + std::to_string(rows)});
  }
  bench.print_table(table);

  std::cout << '\n';
  common::render_line(std::cout, curve7, 64, 10,
                      "ch7 mean BER % vs hammer count (8K -> 256K)");
  std::cout << "\nexpected shape: zero below the per-row HC_first tail (~13-20K), then\n"
               "super-linear growth — the regime the paper samples at 256K hammers.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A12 (onset curve)",
                              "BER vs hammer count, ch0 vs ch7", bench_main);
}
