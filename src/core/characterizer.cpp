#include "core/characterizer.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace rh::core {

std::optional<std::uint64_t> RowRecord::min_hc_first() const {
  std::optional<std::uint64_t> best;
  for (const auto& hc : hc_first) {
    if (hc && (!best || *hc < *best)) best = *hc;
  }
  return best;
}

Characterizer::Characterizer(bender::BenderHost& host, RowMap map, CharacterizerConfig config)
    : host_(&host), map_(std::move(map)), config_(config) {
  RH_EXPECTS(config_.ber_hammers > 0);
  RH_EXPECTS(config_.max_hammers > 0);
  RH_EXPECTS(config_.wcdp_tolerance >= 1);
}

BerResult Characterizer::hammer_and_read(const Site& site, std::uint32_t victim_physical,
                                         DataPattern pattern, std::uint64_t hammers) {
  const auto& geometry = host_->device().geometry();
  const auto& timings = host_->device().timings();
  RH_EXPECTS(victim_physical < geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);

  bender::ProgramBuilder b(geometry, timings);
  // Methodology (§3.1): disable on-die ECC via the mode register so the
  // measurement sees raw bitflips. (Power-on default has ECC enabled.)
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  b.program().set_wide_register(0, make_row_image(geometry, victim_byte(pattern)));
  b.program().set_wide_register(1, make_row_image(geometry, aggressor_byte(pattern)));

  // Initialize the neighbourhood: victim and V±[2:surround] with the victim
  // byte, aggressors V±1 with the aggressor byte (Table 1).
  const auto v = static_cast<std::int64_t>(victim_physical);
  const std::int64_t rows = geometry.rows_per_bank;
  for (std::int64_t p = v - config_.surround_rows; p <= v + config_.surround_rows; ++p) {
    if (p < 0 || p >= rows) continue;
    const bool is_aggressor = (p == v - 1 || p == v + 1);
    const std::uint32_t logical = map_.physical_to_logical(static_cast<std::uint32_t>(p));
    b.init_row(bank, logical, is_aggressor ? 1 : 0);
  }

  // Double-sided hammering; rows at the bank edge fall back to single-sided
  // with the same total activation count.
  const bool has_above = v - 1 >= 0;
  const bool has_below = v + 1 < rows;
  const auto on_time = static_cast<std::int64_t>(config_.aggressor_on_time);
  if (has_above && has_below) {
    b.ldi(0, map_.physical_to_logical(static_cast<std::uint32_t>(v - 1)));
    b.ldi(1, map_.physical_to_logical(static_cast<std::uint32_t>(v + 1)));
    b.hammer(bank, 0, 1, static_cast<std::int64_t>(hammers), on_time);
  } else {
    const std::uint32_t only = has_above ? static_cast<std::uint32_t>(v - 1)
                                         : static_cast<std::uint32_t>(v + 1);
    b.ldi(0, map_.physical_to_logical(only));
    b.hammer_single(bank, 0, static_cast<std::int64_t>(2 * hammers), on_time);
  }

  const std::uint32_t victim_logical = map_.physical_to_logical(victim_physical);
  b.read_row(bank, victim_logical);

  // Methodology guard (§3.1): the whole program — init, hammer, read — must
  // finish well inside the 32 ms refresh window so retention failures cannot
  // masquerade as RowHammer bitflips. The paper budgets 27 ms.
  const double program_ms = hbm::cycles_to_ms(b.virtual_cycles());
  if (config_.enforce_retention_bound && program_ms > 27.0) {
    throw common::ConfigError("test program takes " + std::to_string(program_ms) +
                              " ms, violating the 27 ms retention-interference bound");
  }

  const auto result = host_->run(b.take(), site.channel, site.pseudo_channel);

  BerResult out;
  out.bits_tested = geometry.row_bits();
  out.elapsed_ms = result.elapsed_ms();
  RH_ENSURES(result.readback.size() == geometry.row_bytes());
  const FlipCount flips = count_flips(result.readback, victim_byte(pattern));
  out.bit_errors = flips.total;
  out.ones_to_zeros = flips.ones_to_zeros;
  out.zeros_to_ones = flips.zeros_to_ones;
  return out;
}

BerResult Characterizer::measure_ber(const Site& site, std::uint32_t victim_physical,
                                     DataPattern pattern, std::uint64_t hammers) {
  return hammer_and_read(site, victim_physical, pattern,
                         hammers == 0 ? config_.ber_hammers : hammers);
}

std::optional<std::uint64_t> Characterizer::measure_hc_first(const Site& site,
                                                             std::uint32_t victim_physical,
                                                             DataPattern pattern,
                                                             std::uint64_t tolerance) {
  RH_EXPECTS(tolerance >= 1);
  // The flip response is monotone in hammer count (each probe re-initializes
  // the neighbourhood), so bisection is sound.
  std::uint64_t hi = config_.max_hammers;
  if (hammer_and_read(site, victim_physical, pattern, hi).bit_errors == 0) return std::nullopt;
  std::uint64_t lo = 0;  // exclusive: 0 hammers never flips
  while (hi - lo > tolerance) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (hammer_and_read(site, victim_physical, pattern, mid).bit_errors > 0) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

RowRecord Characterizer::characterize_row(const Site& site, std::uint32_t victim_physical) {
  RowRecord rec;
  rec.site = site;
  rec.physical_row = victim_physical;

  for (std::size_t i = 0; i < kAllPatterns.size(); ++i) {
    rec.ber[i] = measure_ber(site, victim_physical, kAllPatterns[i]);
    rec.hc_first[i] =
        measure_hc_first(site, victim_physical, kAllPatterns[i], config_.wcdp_tolerance);
  }

  // WCDP (§3.1): the pattern with the smallest HC_first; when several tie,
  // the one with the largest BER at 256 K hammers.
  std::size_t best = 0;
  for (std::size_t i = 1; i < kAllPatterns.size(); ++i) {
    const auto& cand = rec.hc_first[i];
    const auto& incumbent = rec.hc_first[best];
    const std::uint64_t cand_hc = cand ? *cand : ~0ULL;
    const std::uint64_t incumbent_hc = incumbent ? *incumbent : ~0ULL;
    const std::uint64_t tie_band = config_.wcdp_tolerance;
    if (cand_hc + tie_band < incumbent_hc) {
      best = i;
    } else if (cand_hc <= incumbent_hc + tie_band &&
               rec.ber[i].bit_errors > rec.ber[best].bit_errors) {
      best = i;
    }
  }
  rec.wcdp = kAllPatterns[best];
  return rec;
}

}  // namespace rh::core
