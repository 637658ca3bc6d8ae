// Ablation A6 (paper §4/§5 implications for future attacks): evading the
// uncovered TRR with sampler-poisoning decoy activations.
//
// Once §5 reveals the mitigation's structure — a single-entry activation
// sampler serviced every 17th REF — an attacker defeats it from entirely
// ordinary memory accesses: activate a harmless decoy row right before each
// REF, so the victim refresh lands on the decoy's neighbourhood. The victim
// keeps accumulating disturbance exactly as if refresh were off.
#include <iostream>

#include "bench_util.hpp"
#include "core/attack.hpp"
#include "core/row_map.hpp"

using namespace rh;

namespace {

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const auto rows = static_cast<std::uint32_t>(args.get_positive_int("rows", 6));
  bender::BenderHost& host = bench.paper_chip();
  const core::RowMap map = core::RowMap::from_device(host.device());
  core::AttackRunner attacker(host, map);
  const core::Site site{7, 0, 0};

  core::AttackConfig no_ref;
  no_ref.refs = 0;
  core::AttackConfig with_ref;
  with_ref.refs = 512;

  common::Table table(
      {"victim row", "flips, REF off", "flips, double-sided + REF", "flips, decoy evasion + REF"});
  std::uint64_t blocked = 0;
  std::uint64_t evaded = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    const std::uint32_t victim = 1200 + i * 13;
    const auto baseline = attacker.double_sided(site, victim, no_ref);
    const auto naive = attacker.double_sided(site, victim, with_ref);
    const auto decoy = attacker.decoy_evasion(site, victim, with_ref);
    blocked += naive.victim_flips;
    evaded += decoy.victim_flips;
    table.add_row({std::to_string(victim), std::to_string(baseline.victim_flips),
                   std::to_string(naive.victim_flips), std::to_string(decoy.victim_flips)});
  }
  bench.print_table(table);

  // TRRespass-style many-sided hammering, same activation budget: the
  // one-entry sampler can only cover the last aggressor's neighbourhood.
  const auto many = attacker.many_sided(site, 1400, 4, with_ref);
  std::cout << "\nmany-sided (4 victims, refresh on) per-victim flips:";
  for (const auto f : many.per_victim_flips) std::cout << ' ' << f;
  std::cout << "  (only the last aggressor's victim is protected)\n";

  std::cout << "\nresult: the deployed mitigation stops the naive attack ("
            << blocked << " flips total) but the sampler-poisoning variant recovers "
            << evaded << " flips —\n"
               "knowing the mechanism (paper §5) is knowing how to defeat it.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Ablation A6 (TRR evasion)",
                              "decoy activations poison the period-17 sampler", bench_main);
}
