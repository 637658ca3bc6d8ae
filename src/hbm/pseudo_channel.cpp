#include "hbm/pseudo_channel.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::hbm {

namespace {

trr::ProprietaryTrrConfig per_pc_trr(const trr::ProprietaryTrrConfig& base, std::uint32_t channel,
                                     std::uint32_t pseudo_channel) {
  trr::ProprietaryTrrConfig cfg = base;
  cfg.seed = common::hash_coords(base.seed, channel, pseudo_channel);
  return cfg;
}

}  // namespace

PseudoChannel::PseudoChannel(const Geometry& geometry, const TimingParams& timings,
                             std::uint32_t channel, std::uint32_t pseudo_channel,
                             const RowScrambler& scrambler,
                             const fault::RowHammerModel& rh_model,
                             const fault::RetentionModel& retention_model,
                             const trr::ProprietaryTrrConfig& trr_config)
    : geometry_(&geometry),
      scrambler_(&scrambler),
      channel_(channel),
      pseudo_channel_(pseudo_channel),
      timings_(timings),
      channel_timing_(timings_),
      proprietary_trr_(per_pc_trr(trr_config, channel, pseudo_channel)) {
  banks_.reserve(geometry.banks_per_pseudo_channel);
  for (std::uint32_t b = 0; b < geometry.banks_per_pseudo_channel; ++b) {
    const BankAddress addr{channel, pseudo_channel, b};
    banks_.emplace_back(geometry, timings, fault::BankContext::from(geometry, addr), scrambler,
                        rh_model, retention_model);
  }
  RH_EXPECTS(timings.refs_per_window > 0);
  rows_per_ref_ = std::max(1u, geometry.rows_per_bank / timings.refs_per_window);
}

void PseudoChannel::set_telemetry(telemetry::Telemetry* sink) {
  telemetry_ = sink;
  for (auto& b : banks_) b.set_telemetry(sink);
}

Bank& PseudoChannel::bank(std::uint32_t index) {
  RH_EXPECTS(index < banks_.size());
  return banks_[index];
}

const Bank& PseudoChannel::bank(std::uint32_t index) const {
  RH_EXPECTS(index < banks_.size());
  return banks_[index];
}

void PseudoChannel::activate(std::uint32_t bank_idx, std::uint32_t row, Cycle now,
                             double temperature_c) {
  check_not_self_refreshing();
  channel_timing_.on_activate(now, bank_idx);
  bank(bank_idx).activate(row, now, temperature_c);
  proprietary_trr_.observe_activate(bank_idx, row);
  documented_trr_.observe_activate(bank_idx, row);
}

void PseudoChannel::precharge(std::uint32_t bank_idx, Cycle now, double temperature_c) {
  check_not_self_refreshing();
  channel_timing_.check_not_refreshing(now);
  bank(bank_idx).precharge(now, temperature_c);
}

void PseudoChannel::precharge_all(Cycle now, double temperature_c) {
  check_not_self_refreshing();
  channel_timing_.check_not_refreshing(now);
  for (auto& b : banks_) {
    if (b.is_open()) b.precharge(now, temperature_c);
  }
}

void PseudoChannel::read(std::uint32_t bank_idx, std::uint32_t column, Cycle now, bool ecc,
                         std::span<std::uint8_t> out) {
  check_not_self_refreshing();
  channel_timing_.on_column(now, /*is_write=*/false);
  bank(bank_idx).read(column, now, ecc, out);
}

void PseudoChannel::write(std::uint32_t bank_idx, std::uint32_t column,
                          std::span<const std::uint8_t> data, Cycle now) {
  check_not_self_refreshing();
  channel_timing_.on_column(now, /*is_write=*/true);
  bank(bank_idx).write(column, data, now);
}

void PseudoChannel::check_row_burst(std::uint32_t bank_idx, bool is_write, Cycle start,
                                    Cycle spacing, std::uint32_t& issued) {
  check_not_self_refreshing();
  Bank& b = bank(bank_idx);
  for (; issued < geometry_->columns_per_row; ++issued) {
    const Cycle now = start + issued * spacing;
    channel_timing_.on_column(now, is_write);
    b.check_column(now, is_write);
  }
}

void PseudoChannel::refresh(Cycle now, double temperature_c) {
  check_not_self_refreshing();
  for (const auto& b : banks_) {
    if (b.is_open()) throw common::ProtocolError("REF with an open bank");
  }
  channel_timing_.on_refresh(now);

  // Pointer sweep: each REF refreshes the next rows_per_ref_ physical rows
  // in every bank, covering the array once per refresh window.
  sweep(rows_per_ref_, now, temperature_c);
  RH_TELEM(telemetry_, on_refresh_pointer(channel_, pseudo_channel_, refresh_pointer_));

  // The undisclosed mitigation spends one-in-N REFs on a victim refresh
  // (paper §5: once every 17 REF commands).
  if (const auto action = proprietary_trr_.on_refresh()) {
    refresh_neighbourhood(action->bank, action->logical_row,
                          proprietary_trr_.config().neighborhood, now, temperature_c);
    RH_TELEM(telemetry_, on_trr_trigger(now, channel_, pseudo_channel_, action->bank,
                                        action->logical_row, /*documented=*/false));
  }
  // The documented JEDEC TRR mode, when engaged by the controller.
  if (const auto action = documented_trr_.on_refresh()) {
    for (const std::uint32_t row : action->logical_rows) {
      refresh_neighbourhood(action->bank, row, 2, now, temperature_c);
      RH_TELEM(telemetry_, on_trr_trigger(now, channel_, pseudo_channel_, action->bank, row,
                                          /*documented=*/true));
    }
  }
}

void PseudoChannel::sweep(std::uint32_t rows, Cycle now, double temperature_c) {
  const std::uint32_t rows_per_bank = geometry_->rows_per_bank;
  if (fast_sweep_ && sweep_lane_.empty()) {
    sweep_lane_.assign(rows_per_bank, 0);
    for (auto& b : banks_) b.set_sweep_lane(sweep_lane_.data());
  }
  for (auto& b : banks_) {
    for (std::uint32_t i = 0; i < rows; ++i) {
      const std::uint32_t row = (refresh_pointer_ + i) % rows_per_bank;
      if (!fast_sweep_ || b.holds_pending(row)) b.refresh_physical_row(row, now, temperature_c);
    }
  }
  // Stamped after the settles, which read each row's stamp from before.
  if (fast_sweep_) {
    for (std::uint32_t i = 0; i < rows; ++i) {
      sweep_lane_[(refresh_pointer_ + i) % rows_per_bank] = now;
    }
  }
  refresh_pointer_ = (refresh_pointer_ + rows) % rows_per_bank;
}

void PseudoChannel::hammer_pair(std::uint32_t bank_idx, std::uint32_t row_a, std::uint32_t row_b,
                                std::uint64_t count, Cycle on_time, Cycle end,
                                double temperature_c) {
  check_not_self_refreshing();
  bank(bank_idx).hammer_pair(row_a, row_b, count, on_time, end, temperature_c);
  proprietary_trr_.observe_activate(bank_idx, row_a);
  if (!skip_trr_sample_bug_) proprietary_trr_.observe_activate(bank_idx, row_b);
  documented_trr_.observe_activate(bank_idx, row_a);
  documented_trr_.observe_activate(bank_idx, row_b);
}

void PseudoChannel::hammer_single(std::uint32_t bank_idx, std::uint32_t row, std::uint64_t count,
                                  Cycle on_time, Cycle end, double temperature_c) {
  check_not_self_refreshing();
  bank(bank_idx).hammer_single(row, count, on_time, end, temperature_c);
  proprietary_trr_.observe_activate(bank_idx, row);
  documented_trr_.observe_activate(bank_idx, row);
}

void PseudoChannel::check_not_self_refreshing() const {
  if (self_refresh_) {
    throw common::ProtocolError("command issued while the pseudo channel is in self-refresh");
  }
}

void PseudoChannel::enter_self_refresh(Cycle now) {
  check_not_self_refreshing();
  for (const auto& b : banks_) {
    if (b.is_open()) throw common::ProtocolError("self-refresh entry with an open bank");
  }
  channel_timing_.check_not_refreshing(now);
  self_refresh_ = true;
  self_refresh_entry_ = now;
}

void PseudoChannel::exit_self_refresh(Cycle now, double temperature_c) {
  if (!self_refresh_) throw common::ProtocolError("self-refresh exit while not in self-refresh");
  RH_EXPECTS(now >= self_refresh_entry_);
  self_refresh_ = false;

  // Internal refresh progressed at the tREFI cadence while inside.
  const Cycle duration = now - self_refresh_entry_;
  const auto refs = static_cast<std::uint32_t>(
      std::min<Cycle>(duration / timings_.tREFI, timings_.refs_per_window));
  if (refs >= timings_.refs_per_window) {
    for (auto& b : banks_) b.note_full_refresh(now, self_refresh_entry_, temperature_c);
  } else {
    sweep(refs * rows_per_ref_, now, temperature_c);
  }
  // Vendor implementations restart the mitigation engine at SR exit.
  proprietary_trr_.reset();
}

void PseudoChannel::refresh_neighbourhood(std::uint32_t bank_idx, std::uint32_t logical_row,
                                          std::uint32_t radius, Cycle now, double temperature_c) {
  const std::uint32_t p = scrambler_->logical_to_physical(logical_row);
  Bank& b = bank(bank_idx);
  for (std::int64_t d = -static_cast<std::int64_t>(radius); d <= static_cast<std::int64_t>(radius);
       ++d) {
    if (d == 0) continue;
    const std::int64_t victim = static_cast<std::int64_t>(p) + d;
    if (victim < 0 || victim >= static_cast<std::int64_t>(geometry_->rows_per_bank)) continue;
    b.refresh_physical_row(static_cast<std::uint32_t>(victim), now, temperature_c);
  }
}

}  // namespace rh::hbm
