// One HBM2 pseudo channel: 16 banks behind a shared 64-bit data path, a
// refresh pointer, and the in-DRAM mitigation engines that snoop its command
// stream (the proprietary sampler TRR of paper §5 and the documented JEDEC
// TRR mode).
//
// The REF sweep (each REF, and the REFs of a self-refresh stay shorter than
// a refresh window) refreshes the same physical rows in every bank. Under
// the reference engine it settles each of them. Under the fast engine
// (set_fast_sweep, selected by Device::set_engine) it settles only the rows
// that hold pending state (Bank::holds_pending: a materialized row or live
// disturbance) and records the sweep in one stamp lane, one Cycle per
// physical row, allocated at the first sweep and shared by the banks
// (bank.hpp). A settle it skips would only have stamped the row, so both
// engines leave every row with the same refresh time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/retention_model.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/bank.hpp"
#include "hbm/geometry.hpp"
#include "hbm/scramble.hpp"
#include "hbm/timing.hpp"
#include "hbm/timing_checker.hpp"
#include "trr/documented_trr.hpp"
#include "trr/proprietary_trr.hpp"

namespace rh::telemetry {
class Telemetry;
}

namespace rh::hbm {

class PseudoChannel {
public:
  PseudoChannel(const Geometry& geometry, const TimingParams& timings, std::uint32_t channel,
                std::uint32_t pseudo_channel, const RowScrambler& scrambler,
                const fault::RowHammerModel& rh_model,
                const fault::RetentionModel& retention_model,
                const trr::ProprietaryTrrConfig& trr_config);
  // The banks point into sweep_lane_'s buffer, which a move carries along
  // and a copy would not.
  PseudoChannel(const PseudoChannel&) = delete;
  PseudoChannel& operator=(const PseudoChannel&) = delete;
  PseudoChannel(PseudoChannel&&) = default;
  PseudoChannel& operator=(PseudoChannel&&) = default;

  void activate(std::uint32_t bank, std::uint32_t row, Cycle now, double temperature_c);
  void precharge(std::uint32_t bank, Cycle now, double temperature_c);
  void precharge_all(Cycle now, double temperature_c);
  void read(std::uint32_t bank, std::uint32_t column, Cycle now, bool ecc,
            std::span<std::uint8_t> out);
  void write(std::uint32_t bank, std::uint32_t column, std::span<const std::uint8_t> data,
             Cycle now);
  /// Row-burst checks (WRROW / RDROW): validates the column command of
  /// read()/write() for every column of `bank`'s open row in column order,
  /// column k at `start + k * spacing`, counting each legal one in
  /// `issued`. Throws at the first illegal column, with `issued` holding
  /// the columns before it; no data moves here (Bank::write_columns /
  /// read_columns do that once the count is known).
  void check_row_burst(std::uint32_t bank, bool is_write, Cycle start, Cycle spacing,
                       std::uint32_t& issued);

  /// One periodic REF: advances the refresh pointer over every bank and
  /// gives both TRR engines their trigger opportunity. All banks must be
  /// precharged (ProtocolError otherwise).
  void refresh(Cycle now, double temperature_c);

  /// Self-refresh entry: the device refreshes itself internally; every
  /// command except the exit is rejected until then. All banks must be
  /// precharged.
  void enter_self_refresh(Cycle now);
  /// Self-refresh exit at `now`. Internal refresh progressed at the tREFI
  /// cadence while inside; a stay of at least one refresh window leaves
  /// every row freshly refreshed. Also resets the proprietary TRR engine
  /// (sampler and REF counter), as vendor implementations do.
  void exit_self_refresh(Cycle now, double temperature_c);
  [[nodiscard]] bool in_self_refresh() const { return self_refresh_; }

  /// Batch hammer macro-ops (see bank.hpp). The TRR sampler observes these
  /// like ordinary activations.
  void hammer_pair(std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
                   std::uint64_t count, Cycle on_time, Cycle end, double temperature_c);
  void hammer_single(std::uint32_t bank, std::uint32_t row, std::uint64_t count, Cycle on_time,
                     Cycle end, double temperature_c);

  [[nodiscard]] Bank& bank(std::uint32_t index);
  [[nodiscard]] const Bank& bank(std::uint32_t index) const;
  [[nodiscard]] std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(banks_.size());
  }

  /// Attaches the telemetry sink (TRR trigger events, refresh-pointer
  /// progress here; bit-flip events in the banks). Called by the device.
  void set_telemetry(telemetry::Telemetry* sink);

  /// Documented JEDEC TRR mode control (driven by device MRS writes).
  trr::DocumentedTrrMode& documented_trr() { return documented_trr_; }
  [[nodiscard]] const trr::DocumentedTrrMode& documented_trr() const { return documented_trr_; }
  /// Proprietary mitigation introspection (tests only; the host-visible
  /// interface never exposes this).
  [[nodiscard]] const trr::ProprietaryTrr& proprietary_trr() const { return proprietary_trr_; }

  /// Planted bug (differential-rig sensitivity tests only): the batched
  /// hammer macro-op skips the proprietary sampler's observation of the
  /// second aggressor row. Wired through Device::set_engine.
  void set_skip_trr_sample_bug(bool enabled) { skip_trr_sample_bug_ = enabled; }
  /// Selects the fast engine's REF sweep (see the header comment). Off by
  /// default: every swept row settles, the reference.
  void set_fast_sweep(bool enabled) { fast_sweep_ = enabled; }

private:
  /// Refreshes the physical neighbourhood of a logical aggressor row.
  void refresh_neighbourhood(std::uint32_t bank, std::uint32_t logical_row,
                             std::uint32_t radius, Cycle now, double temperature_c);

  /// The REF sweep of the `rows` physical rows from the refresh pointer
  /// in every bank at `now`; advances the pointer past them.
  void sweep(std::uint32_t rows, Cycle now, double temperature_c);

  /// Throws ProtocolError if the pseudo channel is in self-refresh.
  void check_not_self_refreshing() const;

  const Geometry* geometry_;
  const RowScrambler* scrambler_;
  std::uint32_t channel_ = 0;
  std::uint32_t pseudo_channel_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  TimingParams timings_;
  ChannelTiming channel_timing_;
  std::vector<Bank> banks_;
  trr::ProprietaryTrr proprietary_trr_;
  trr::DocumentedTrrMode documented_trr_;
  std::uint32_t refresh_pointer_ = 0;
  std::uint32_t rows_per_ref_ = 1;
  bool self_refresh_ = false;
  Cycle self_refresh_entry_ = 0;
  bool skip_trr_sample_bug_ = false;
  bool fast_sweep_ = false;
  /// When each physical row was last swept under the fast sweep; empty
  /// until then. Never resized after, so the banks' pointer stays valid.
  std::vector<Cycle> sweep_lane_;
};

}  // namespace rh::hbm
