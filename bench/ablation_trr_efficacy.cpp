// Ablation A5 (paper §5 implication): what the undisclosed TRR does to a
// naive double-sided attack once periodic refresh is running.
//
// The paper's characterization disables refresh precisely because refresh
// triggers the in-DRAM mitigation. This harness shows the flip side: the
// same 256 K-hammer attack that ruins a victim row with refresh disabled
// induces no (or far fewer) bitflips when REF commands are interleaved at
// a realistic cadence, because the sampler catches the aggressor pair and
// refreshes the victim every 17th REF.
#include <iostream>

#include "bench_util.hpp"
#include "core/characterizer.hpp"
#include "core/data_patterns.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

std::uint64_t hammer_with_refresh(bender::BenderHost& host, const core::RowMap& map,
                                  const core::Site& site, std::uint32_t victim,
                                  std::uint64_t hammers, std::uint64_t refs) {
  const auto& geometry = host.device().geometry();
  const auto& timings = host.device().timings();
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  b.program().set_wide_register(0, core::make_row_image(geometry, 0x00));
  b.program().set_wide_register(1, core::make_row_image(geometry, 0xFF));
  for (std::int64_t p = static_cast<std::int64_t>(victim) - 2; p <= victim + 2; ++p) {
    if (p < 0 || p >= static_cast<std::int64_t>(geometry.rows_per_bank)) continue;
    const bool agg = (p == victim - 1 || p == victim + 1);
    b.init_row(bank, map.physical_to_logical(static_cast<std::uint32_t>(p)), agg ? 1 : 0);
  }
  b.ldi(0, map.physical_to_logical(victim - 1));
  b.ldi(1, map.physical_to_logical(victim + 1));
  const std::uint64_t chunks = refs == 0 ? 1 : refs;
  const std::uint64_t chunk = hammers / chunks;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(chunk));
    if (refs > 0) {
      b.ref();
      b.sleep(static_cast<std::int64_t>(timings.tRFC));
    }
  }
  b.read_row(bank, map.physical_to_logical(victim));
  const auto result = host.run(b.take(), site.channel, site.pseudo_channel);
  return core::count_flips(result.readback, 0x00).total;
}

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const auto hammers = static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  const auto rows = static_cast<std::uint32_t>(args.get_positive_int("rows", 6));
  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());
  const core::Site site{7, 0, 0};  // most vulnerable channel

  common::Table table({"victim row", "flips, REF off", "flips, 64 REFs", "flips, 512 REFs"});
  for (std::uint32_t i = 0; i < rows; ++i) {
    const std::uint32_t victim = 1200 + i * 13;
    const auto off = hammer_with_refresh(host, map, site, victim, hammers, 0);
    const auto sparse = hammer_with_refresh(host, map, site, victim, hammers, 64);
    const auto dense = hammer_with_refresh(host, map, site, victim, hammers, 512);
    table.add_row({std::to_string(victim), std::to_string(off), std::to_string(sparse),
                   std::to_string(dense)});
  }
  bench.print_table(table);
  std::cout << "\nexpected shape: interleaved REF engages the period-17 TRR sampler, which\n"
               "keeps resetting the victim's disturbance; denser REF -> fewer/no flips.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A5 (TRR efficacy)",
                              "256K-hammer attack with vs without interleaved REF", bench_main);
}
