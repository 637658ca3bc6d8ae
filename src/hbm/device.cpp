#include "hbm/device.hpp"

#include "common/assert.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::hbm {

using telemetry::TraceCommand;

namespace {

/// The one body of write_row / read_row: checks the burst's columns, then
/// `move`s the data of the legal ones and traces them — before a failing
/// column's error propagates, too.
template <typename Move>
void row_burst(PseudoChannel& pc, telemetry::Telemetry* sink, const BankAddress& addr,
               TraceCommand cmd, Cycle start, Cycle spacing, Move&& move) {
  std::uint32_t issued = 0;
  const auto commit = [&] {
    move(pc.bank(addr.bank), issued);
    for (std::uint32_t col = 0; col < issued; ++col) {
      RH_TELEM(sink, on_command(cmd, start + col * spacing, addr.channel, addr.pseudo_channel,
                                addr.bank, 0, col));
    }
  };
  try {
    pc.check_row_burst(addr.bank, cmd == TraceCommand::kWr, start, spacing, issued);
  } catch (...) {
    commit();
    throw;
  }
  commit();
}

}  // namespace

DeviceConfig vendor_b_profile() {
  DeviceConfig config;
  config.scramble = ScrambleKind::kXorFold;
  config.trr.period = 9;
  config.fault.seed = 0xB02B0B5ULL;
  config.fault.die_factor = {1.53, 1.22, 1.09, 1.00};  // worst die at the bottom
  config.subarray_sizes.assign(config.geometry.rows_per_bank / 512, 512);
  return config;
}

Device::Device(DeviceConfig config)
    : config_(std::move(config)),
      scrambler_(config_.scramble, config_.geometry.rows_per_bank),
      layout_(config_.subarray_sizes.empty()
                  ? SubarrayLayout::paper_layout(config_.geometry.rows_per_bank)
                  : SubarrayLayout(config_.subarray_sizes)),
      temperature_c_(config_.initial_temperature_c) {
  config_.geometry.validate();
  RH_EXPECTS(layout_.total_rows() == config_.geometry.rows_per_bank);
  variation_ = std::make_unique<fault::ProcessVariation>(config_.fault, config_.geometry);
  rh_model_ = std::make_unique<fault::RowHammerModel>(config_.fault, config_.geometry, layout_,
                                                      *variation_);
  retention_model_ = std::make_unique<fault::RetentionModel>(config_.fault, config_.geometry);

  channels_.resize(config_.geometry.channels);
  for (std::uint32_t ch = 0; ch < config_.geometry.channels; ++ch) {
    auto& channel = channels_[ch];
    channel.pseudo_channels.reserve(config_.geometry.pseudo_channels_per_channel);
    for (std::uint32_t pc = 0; pc < config_.geometry.pseudo_channels_per_channel; ++pc) {
      channel.pseudo_channels.emplace_back(config_.geometry, config_.timings, ch, pc, scrambler_,
                                           *rh_model_, *retention_model_, config_.trr);
    }
  }
}

void Device::set_engine(common::EngineKind kind, common::PlantedBug bug) {
  engine_ = kind;
  const bool fast = kind == common::EngineKind::kFast;
  rh_model_->set_fast_kernel(fast);
  retention_model_->set_fast_kernel(fast);
  // Planted bugs deliberately break the fast path only: the interp engine
  // stays ground truth so the differential rig can convict the fast one.
  const common::PlantedBug armed = fast ? bug : common::PlantedBug::kNone;
  const bool skip_trr = armed == common::PlantedBug::kSkipTrrSample;
  const bool stale_flush = armed == common::PlantedBug::kStaleDisturbanceFlush;
  const bool short_burst = armed == common::PlantedBug::kShortRowBurst;
  for (auto& channel : channels_) {
    for (auto& pc : channel.pseudo_channels) {
      pc.set_fast_sweep(fast);
      pc.set_skip_trr_sample_bug(skip_trr);
      for (std::uint32_t b = 0; b < pc.bank_count(); ++b) {
        Bank& bank = pc.bank(b);
        bank.set_stale_flush_bug(stale_flush);
        bank.set_short_burst_bug(short_burst);
      }
    }
  }
}

void Device::set_telemetry(telemetry::Telemetry* sink) {
  telemetry_ = sink;
  for (auto& channel : channels_) {
    for (auto& pc : channel.pseudo_channels) pc.set_telemetry(sink);
  }
}

Device::Channel& Device::channel_at(std::uint32_t channel) {
  RH_EXPECTS(channel < channels_.size());
  return channels_[channel];
}

const ModeRegisters& Device::mode_registers(std::uint32_t channel) const {
  RH_EXPECTS(channel < channels_.size());
  return channels_[channel].mode_registers;
}

PseudoChannel& Device::pseudo_channel(std::uint32_t channel, std::uint32_t pc) {
  auto& ch = channel_at(channel);
  RH_EXPECTS(pc < ch.pseudo_channels.size());
  return ch.pseudo_channels[pc];
}

Bank& Device::bank(const BankAddress& addr) {
  RH_EXPECTS(addr.valid(config_.geometry));
  return pseudo_channel(addr.channel, addr.pseudo_channel).bank(addr.bank);
}

const Bank& Device::bank(const BankAddress& addr) const {
  RH_EXPECTS(addr.valid(config_.geometry));
  RH_EXPECTS(addr.channel < channels_.size());
  return channels_[addr.channel].pseudo_channels[addr.pseudo_channel].bank(addr.bank);
}

void Device::activate(const BankAddress& addr, std::uint32_t row, Cycle now) {
  RH_EXPECTS(addr.valid(config_.geometry));
  pseudo_channel(addr.channel, addr.pseudo_channel).activate(addr.bank, row, now, temperature_c_);
  RH_TELEM(telemetry_,
           on_command(TraceCommand::kAct, now, addr.channel, addr.pseudo_channel, addr.bank, row));
}

void Device::precharge(const BankAddress& addr, Cycle now) {
  RH_EXPECTS(addr.valid(config_.geometry));
  pseudo_channel(addr.channel, addr.pseudo_channel).precharge(addr.bank, now, temperature_c_);
  RH_TELEM(telemetry_,
           on_command(TraceCommand::kPre, now, addr.channel, addr.pseudo_channel, addr.bank, 0));
}

void Device::precharge_all(std::uint32_t channel, std::uint32_t pc, Cycle now) {
  pseudo_channel(channel, pc).precharge_all(now, temperature_c_);
  RH_TELEM(telemetry_, on_command(TraceCommand::kPreA, now, channel, pc, 0, 0));
}

void Device::read(const BankAddress& addr, std::uint32_t column, Cycle now,
                  std::span<std::uint8_t> out) {
  RH_EXPECTS(addr.valid(config_.geometry));
  const bool ecc = channels_[addr.channel].mode_registers.ecc_enabled();
  pseudo_channel(addr.channel, addr.pseudo_channel).read(addr.bank, column, now, ecc, out);
  RH_TELEM(telemetry_, on_command(TraceCommand::kRd, now, addr.channel, addr.pseudo_channel,
                                  addr.bank, 0, column));
}

void Device::write(const BankAddress& addr, std::uint32_t column,
                   std::span<const std::uint8_t> data, Cycle now) {
  RH_EXPECTS(addr.valid(config_.geometry));
  pseudo_channel(addr.channel, addr.pseudo_channel).write(addr.bank, column, data, now);
  RH_TELEM(telemetry_, on_command(TraceCommand::kWr, now, addr.channel, addr.pseudo_channel,
                                  addr.bank, 0, column));
}

void Device::write_row(const BankAddress& addr, std::span<const std::uint8_t> image, Cycle start,
                       Cycle spacing) {
  RH_EXPECTS(addr.valid(config_.geometry));
  row_burst(pseudo_channel(addr.channel, addr.pseudo_channel), telemetry_, addr, TraceCommand::kWr,
            start, spacing,
            [&](Bank& bank, std::uint32_t columns) { bank.write_columns(image, columns); });
}

void Device::read_row(const BankAddress& addr, Cycle start, Cycle spacing,
                      std::span<std::uint8_t> out) {
  RH_EXPECTS(addr.valid(config_.geometry));
  const bool ecc = channels_[addr.channel].mode_registers.ecc_enabled();
  row_burst(pseudo_channel(addr.channel, addr.pseudo_channel), telemetry_, addr, TraceCommand::kRd,
            start, spacing,
            [&](Bank& bank, std::uint32_t columns) { bank.read_columns(columns, ecc, out); });
}

void Device::refresh(std::uint32_t channel, std::uint32_t pc, Cycle now) {
  pseudo_channel(channel, pc).refresh(now, temperature_c_);
  RH_TELEM(telemetry_, on_command(TraceCommand::kRef, now, channel, pc, 0, 0));
}

void Device::self_refresh_enter(std::uint32_t channel, std::uint32_t pc, Cycle now) {
  pseudo_channel(channel, pc).enter_self_refresh(now);
  RH_TELEM(telemetry_, on_command(TraceCommand::kSrEnter, now, channel, pc, 0, 0));
}

void Device::self_refresh_exit(std::uint32_t channel, std::uint32_t pc, Cycle now) {
  pseudo_channel(channel, pc).exit_self_refresh(now, temperature_c_);
  RH_TELEM(telemetry_, on_command(TraceCommand::kSrExit, now, channel, pc, 0, 0));
}

void Device::mode_register_set(std::uint32_t channel, std::uint32_t reg, std::uint32_t value,
                               Cycle now) {
  auto& ch = channel_at(channel);
  ch.mode_registers.set(reg, value);
  // MRS has no modelled timing constraint beyond bus occupancy.
  RH_TELEM(telemetry_, on_command(TraceCommand::kMrs, now, channel, 0, 0, reg, value));
  if (reg == ModeRegisters::kTrrRegister) {
    // Engage/disengage the documented TRR mode on the selected pseudo
    // channel (both TRR engines coexist; see trr/documented_trr.hpp).
    const bool pc_sel = ch.mode_registers.trr_mode_pseudo_channel();
    const std::uint32_t pc = pc_sel ? 1u : 0u;
    for (std::uint32_t i = 0; i < ch.pseudo_channels.size(); ++i) {
      auto& mode = ch.pseudo_channels[i].documented_trr();
      if (ch.mode_registers.trr_mode_enabled() && i == pc) {
        mode.enter(ch.mode_registers.trr_mode_bank());
      } else {
        mode.exit();
      }
    }
  }
}

void Device::hammer_pair(const BankAddress& addr, std::uint32_t row_a, std::uint32_t row_b,
                         std::uint64_t count, Cycle on_time, Cycle end) {
  RH_EXPECTS(addr.valid(config_.geometry));
  pseudo_channel(addr.channel, addr.pseudo_channel)
      .hammer_pair(addr.bank, row_a, row_b, count, on_time, end, temperature_c_);
  RH_TELEM(telemetry_,
           on_hammer(end, addr.channel, addr.pseudo_channel, addr.bank, row_a, 2 * count));
}

void Device::hammer_single(const BankAddress& addr, std::uint32_t row, std::uint64_t count,
                           Cycle on_time, Cycle end) {
  RH_EXPECTS(addr.valid(config_.geometry));
  pseudo_channel(addr.channel, addr.pseudo_channel)
      .hammer_single(addr.bank, row, count, on_time, end, temperature_c_);
  RH_TELEM(telemetry_, on_hammer(end, addr.channel, addr.pseudo_channel, addr.bank, row, count));
}

}  // namespace rh::hbm
