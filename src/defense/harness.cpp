#include "defense/harness.hpp"

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/data_patterns.hpp"

namespace rh::defense {

DefenseHarness::DefenseHarness(bender::BenderHost& host, const core::RowMap& map)
    : host_(&host), map_(&map) {}

DefenseRunResult DefenseHarness::run_double_sided(const core::Site& site,
                                                  std::uint32_t victim_physical,
                                                  std::uint64_t hammers,
                                                  MitigationPolicy* policy) {
  auto& device = host_->device();
  const auto& geometry = device.geometry();
  const auto& timings = device.timings();
  RH_EXPECTS(victim_physical >= 1 && victim_physical + 1 < geometry.rows_per_bank);

  // Initialize the neighbourhood through the regular program path.
  {
    bender::ProgramBuilder b(geometry, timings);
    b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
    b.program().set_wide_register(0, core::make_row_image(geometry, 0x00));
    b.program().set_wide_register(1, core::make_row_image(geometry, 0xFF));
    for (std::int64_t p = static_cast<std::int64_t>(victim_physical) - 2;
         p <= static_cast<std::int64_t>(victim_physical) + 2; ++p) {
      if (p < 0 || p >= static_cast<std::int64_t>(geometry.rows_per_bank)) continue;
      const bool agg = (p == victim_physical - 1 || p == victim_physical + 1);
      b.init_row(static_cast<std::uint8_t>(site.bank),
                 map_->physical_to_logical(static_cast<std::uint32_t>(p)), agg ? 1 : 0);
    }
    (void)host_->run(b.take(), site.channel, site.pseudo_channel);
  }

  // Play the memory controller: every ACT goes past the policy.
  DefenseRunResult result;
  const hbm::BankAddress bank = site.bank_address();
  const hbm::Cycle step = timings.tRAS + timings.tRP;
  hbm::Cycle t = host_->now();
  const hbm::Cycle start = t;

  const auto issue_act_pre = [&](std::uint32_t logical_row) {
    device.activate(bank, logical_row, t);
    device.precharge(bank, t + timings.tRAS);
    t += step;
  };
  const auto mitigate = [&](std::uint32_t logical_row) {
    if (policy == nullptr) return;
    for (const std::uint32_t victim : policy->on_activate(site.bank, logical_row)) {
      issue_act_pre(victim);
      ++result.preventive_activations;
      // Preventive activations are themselves activations the policy must
      // observe — a real controller's mitigation traffic is in-band. (PARA
      // ignores them statistically; Graphene counts them, as it should.)
    }
  };

  const std::uint32_t agg_a = map_->physical_to_logical(victim_physical - 1);
  const std::uint32_t agg_b = map_->physical_to_logical(victim_physical + 1);
  for (std::uint64_t i = 0; i < hammers; ++i) {
    for (const std::uint32_t agg : {agg_a, agg_b}) {
      issue_act_pre(agg);
      ++result.attack_activations;
      mitigate(agg);
    }
  }
  host_->idle_cycles(t - start);
  result.dram_time_ms = hbm::cycles_to_ms(t - start);

  // Read the victim back.
  bender::ProgramBuilder b(geometry, timings);
  b.read_row(static_cast<std::uint8_t>(site.bank), map_->physical_to_logical(victim_physical));
  const auto readback = host_->run(b.take(), site.channel, site.pseudo_channel);
  result.victim_flips = core::count_flips(readback.readback, 0x00).total;
  return result;
}

}  // namespace rh::defense
