#include "core/retention_profiler.hpp"

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "core/data_patterns.hpp"

namespace rh::core {

namespace {
/// Profiling pattern: all-zero stores charge in anti cells (the majority
/// orientation), giving plenty of decay-sensitive cells.
constexpr std::uint8_t kProfileByte = 0x00;
}  // namespace

RetentionProfiler::RetentionProfiler(bender::BenderHost& host, const RowMap& map)
    : host_(&host), map_(&map) {}

std::uint64_t RetentionProfiler::flips_after(const Site& site, std::uint32_t physical_row,
                                             double wait_ms) {
  const auto& geometry = host_->device().geometry();
  const auto bank = static_cast<std::uint8_t>(site.bank);
  const std::uint32_t logical = map_->physical_to_logical(physical_row);

  {
    bender::ProgramBuilder init(geometry, host_->device().timings());
    init.program().set_wide_register(0, make_row_image(geometry, kProfileByte));
    init.init_row(bank, logical, 0);
    host_->run(init.take(), site.channel, site.pseudo_channel);
  }

  host_->idle_ms(wait_ms);

  bender::ProgramBuilder read(geometry, host_->device().timings());
  // The retention side channel needs raw bitflips: keep on-die ECC off.
  read.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  read.read_row(bank, logical);
  const auto result = host_->run(read.take(), site.channel, site.pseudo_channel);

  return count_flips(result.readback, kProfileByte).total;
}

std::optional<RetentionProfile> RetentionProfiler::profile(const Site& site,
                                                           std::uint32_t physical_row,
                                                           double start_ms, double max_ms) {
  RH_EXPECTS(start_ms > 0 && max_ms >= start_ms);

  // Doubling search for the first failing wait.
  double hi = start_ms;
  std::uint64_t flips = flips_after(site, physical_row, hi);
  while (flips == 0) {
    if (hi >= max_ms) return std::nullopt;
    hi = std::min(hi * 2.0, max_ms);
    flips = flips_after(site, physical_row, hi);
  }

  // Bisect [hi/2, hi] down to ~6% relative width.
  double lo = hi / 2.0;
  while ((hi - lo) / hi > 0.0625) {
    const double mid = 0.5 * (lo + hi);
    const std::uint64_t mid_flips = flips_after(site, physical_row, mid);
    if (mid_flips > 0) {
      hi = mid;
      flips = mid_flips;
    } else {
      lo = mid;
    }
  }
  return RetentionProfile{hi, flips};
}

}  // namespace rh::core
