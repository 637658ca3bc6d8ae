#include "core/attack.hpp"

#include <span>

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/data_patterns.hpp"

namespace rh::core {

AttackResult AttackRunner::double_sided(const Site& site, std::uint32_t victim_physical,
                                        const AttackConfig& config) {
  return run(site, victim_physical, config, /*with_decoy=*/false);
}

AttackResult AttackRunner::decoy_evasion(const Site& site, std::uint32_t victim_physical,
                                         const AttackConfig& config) {
  return run(site, victim_physical, config, /*with_decoy=*/true);
}

ManySidedResult AttackRunner::many_sided(const Site& site, std::uint32_t first_physical,
                                         std::uint32_t victim_count,
                                         const AttackConfig& config) {
  const auto& geometry = host_->device().geometry();
  const auto& timings = host_->device().timings();
  RH_EXPECTS(victim_count >= 1);
  const std::uint32_t span = 2 * victim_count + 1;  // A V A V ... A
  RH_EXPECTS(first_physical + span <= geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  b.program().set_wide_register(0, make_row_image(geometry, 0x00));
  b.program().set_wide_register(1, make_row_image(geometry, 0xFF));

  std::vector<std::uint32_t> aggressors;
  std::vector<std::uint32_t> victims;
  for (std::uint32_t off = 0; off < span; ++off) {
    const std::uint32_t p = first_physical + off;
    const bool is_aggressor = (off % 2 == 0);
    (is_aggressor ? aggressors : victims).push_back(p);
    b.init_row(bank, map_->physical_to_logical(p), is_aggressor ? 1 : 0);
  }

  // Split the double-sided activation budget (2 x hammers) over the
  // aggressor set and the REF chunks.
  const std::uint64_t chunks = config.refs == 0 ? 1 : config.refs;
  const std::uint64_t acts_per_agg_chunk =
      std::max<std::uint64_t>(1, 2 * config.hammers / (chunks * aggressors.size()));
  for (std::uint64_t c = 0; c < chunks; ++c) {
    for (const std::uint32_t agg : aggressors) {
      b.ldi(0, map_->physical_to_logical(agg));
      b.hammer_single(bank, 0, static_cast<std::int64_t>(acts_per_agg_chunk));
    }
    if (config.refs > 0) {
      b.ref();
      b.sleep(static_cast<std::int64_t>(timings.tRFC));
    }
  }
  for (const std::uint32_t v : victims) {
    b.read_row(bank, map_->physical_to_logical(v));
  }

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  ManySidedResult out;
  out.dram_time_ms = result.elapsed_ms();
  const std::size_t row_bytes = geometry.row_bytes();
  for (std::size_t v = 0; v < victims.size(); ++v) {
    const std::uint64_t flips =
        count_flips(std::span(result.readback).subspan(v * row_bytes, row_bytes), 0x00).total;
    out.per_victim_flips.push_back(flips);
    out.total_victim_flips += flips;
  }
  return out;
}

AttackResult AttackRunner::run(const Site& site, std::uint32_t victim_physical,
                               const AttackConfig& config, bool with_decoy) {
  const auto& geometry = host_->device().geometry();
  const auto& timings = host_->device().timings();
  RH_EXPECTS(victim_physical >= 1 && victim_physical + 1 < geometry.rows_per_bank);
  RH_EXPECTS(victim_physical + config.decoy_distance < geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  b.program().set_wide_register(0, make_row_image(geometry, 0x00));
  b.program().set_wide_register(1, make_row_image(geometry, 0xFF));

  // Victim + aggressors; the decoy keeps its power-on content (an attacker
  // does not care what the decoy row holds).
  b.init_row(bank, map_->physical_to_logical(victim_physical), 0);
  b.init_row(bank, map_->physical_to_logical(victim_physical - 1), 1);
  b.init_row(bank, map_->physical_to_logical(victim_physical + 1), 1);

  b.ldi(0, map_->physical_to_logical(victim_physical - 1));
  b.ldi(1, map_->physical_to_logical(victim_physical + 1));
  const std::uint32_t decoy_logical =
      map_->physical_to_logical(victim_physical + config.decoy_distance);

  const std::uint64_t chunks = config.refs == 0 ? 1 : config.refs;
  const std::uint64_t chunk = config.hammers / chunks;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(chunk));
    if (config.refs > 0) {
      if (with_decoy) {
        // Poison the sampler: the last activation before the REF is the
        // decoy, so a firing TRR refreshes the decoy's neighbours instead
        // of ours.
        b.touch_row(bank, decoy_logical);
      }
      b.ref();
      b.sleep(static_cast<std::int64_t>(timings.tRFC));
    }
  }
  b.read_row(bank, map_->physical_to_logical(victim_physical));

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  AttackResult out;
  out.dram_time_ms = result.elapsed_ms();
  out.victim_flips = count_flips(result.readback, 0x00).total;
  return out;
}

}  // namespace rh::core
