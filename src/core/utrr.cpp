#include "core/utrr.hpp"

#include <map>

#include "bender/program.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "core/data_patterns.hpp"

namespace rh::core {

namespace {
constexpr std::uint8_t kProfileByte = 0x00;
}

UtrrExperiment::UtrrExperiment(bender::BenderHost& host, const RowMap& map, UtrrConfig config)
    : host_(&host), map_(&map), config_(config) {
  RH_EXPECTS(config_.iterations > 0);
  RH_EXPECTS(config_.safety > 1.0);
}

UtrrResult UtrrExperiment::run(const Site& site, std::uint32_t physical_row) {
  const auto& geometry = host_->device().geometry();
  RH_EXPECTS(physical_row + 1 < geometry.rows_per_bank);
  const auto bank = static_cast<std::uint8_t>(site.bank);
  const std::uint32_t logical_r = map_->physical_to_logical(physical_row);
  const std::uint32_t logical_agg = map_->physical_to_logical(physical_row + 1);

  // Step 1 (once): profile R's retention time.
  RetentionProfiler profiler(*host_, *map_);
  const auto profile = profiler.profile(site, physical_row);
  if (!profile) {
    throw common::Error("row has no measurable retention failure; pick another row");
  }

  UtrrResult result;
  result.retention_ms = profile->retention_ms;
  result.wait_ms = profile->retention_ms * config_.safety;
  const double half_wait = result.wait_ms / 2.0;

  for (std::uint32_t iter = 1; iter <= config_.iterations; ++iter) {
    // Step 2: write (refresh) R, then wait T/2.
    {
      bender::ProgramBuilder b(geometry, host_->device().timings());
      b.program().set_wide_register(0, make_row_image(geometry, kProfileByte));
      b.init_row(bank, logical_r, 0);
      host_->run(b.take(), site.channel, site.pseudo_channel);
    }
    host_->idle_ms(half_wait);

    // Steps 3+4: activate/precharge the aggressor R+1, then one REF.
    {
      bender::ProgramBuilder b(geometry, host_->device().timings());
      b.touch_row(bank, logical_agg);
      b.ref();
      b.sleep(static_cast<std::int64_t>(host_->device().timings().tRFC));
      host_->run(b.take(), site.channel, site.pseudo_channel);
    }

    // Step 5: wait the second T/2.
    host_->idle_ms(half_wait);

    // Step 6: read R; no flips => TRR refreshed it mid-wait. ECC stays
    // disabled so single-bit retention failures are visible (§3.1).
    bender::ProgramBuilder b(geometry, host_->device().timings());
    b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
    b.read_row(bank, logical_r);
    const auto readback = host_->run(b.take(), site.channel, site.pseudo_channel);
    if (count_flips(readback.readback, kProfileByte).total == 0) {
      result.refreshed_iterations.push_back(iter);
    }
  }

  // Infer the period: the most common gap between consecutive firings.
  if (result.refreshed_iterations.size() >= 2) {
    std::map<std::uint32_t, std::uint32_t> gap_counts;
    for (std::size_t i = 1; i < result.refreshed_iterations.size(); ++i) {
      ++gap_counts[result.refreshed_iterations[i] - result.refreshed_iterations[i - 1]];
    }
    std::uint32_t best_gap = 0;
    std::uint32_t best_count = 0;
    for (const auto& [gap, count] : gap_counts) {
      if (count > best_count) {
        best_gap = gap;
        best_count = count;
      }
    }
    result.inferred_period = best_gap;
  }
  return result;
}

}  // namespace rh::core
