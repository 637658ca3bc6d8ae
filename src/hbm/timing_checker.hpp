// JEDEC-style command-timing validation.
//
// DRAM Bender gives the experimenter cycle-precise control of the command
// bus — and with it the ability to issue illegal sequences. Real chips
// silently misbehave; our device *throws* (TimingError / ProtocolError) so
// test programs are validated as they run. Program builders in src/core
// insert the correct spacing; these checks are what prove they do.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "hbm/timing.hpp"

namespace rh::hbm {

/// Per-bank timing + open/closed state.
class BankTiming {
public:
  explicit BankTiming(const TimingParams& t) : t_(&t) {}

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] std::uint32_t open_row() const { return open_row_; }

  /// Validates and records an ACT at `now` opening `logical_row`.
  void on_activate(Cycle now, std::uint32_t logical_row);
  /// Validates and records a PRE at `now`.
  void on_precharge(Cycle now);
  /// Validates and records a RD at `now`.
  void on_read(Cycle now);
  /// Validates and records a WR at `now`.
  void on_write(Cycle now);

  /// Records the end of a batch hammer macro-op: the bank finished its last
  /// ACT/PRE pair at `end`, so subsequent ACTs respect tRC/tRP from there.
  void note_batch_end(Cycle end);

private:
  const TimingParams* t_;
  bool open_ = false;
  std::uint32_t open_row_ = 0;
  Cycle last_act_ = 0;
  Cycle last_pre_ = 0;
  Cycle last_rd_ = 0;
  Cycle last_wr_ = 0;
  bool ever_activated_ = false;
  bool ever_precharged_ = false;
  bool ever_read_ = false;
  bool ever_written_ = false;
};

/// Pseudo-channel-level constraints: tRRD/tRRD_L across banks and within a
/// bank group, the tFAW four-activate window, tCCD on the shared data bus,
/// the tWTR write-to-read turnaround, and tRFC after REF.
class ChannelTiming {
public:
  explicit ChannelTiming(const TimingParams& t) : t_(&t) {}

  /// Validates and records an ACT to `bank` at `now`. Checks, in order:
  /// tRFC, tRRD (any bank), tRRD_L (same bank group), tFAW (rolling window
  /// of the last four activations).
  void on_activate(Cycle now, std::uint32_t bank = 0);
  /// Validates and records a RD/WR on the shared data path: tCCD always,
  /// plus the tWTR turnaround for a RD following a WR.
  void on_column(Cycle now, bool is_write = false);
  void on_refresh(Cycle now);
  /// Throws if a command at `now` falls inside the tRFC window of a REF.
  void check_not_refreshing(Cycle now) const;

private:
  const TimingParams* t_;
  Cycle last_act_ = 0;
  Cycle last_col_ = 0;
  Cycle last_wr_ = 0;
  Cycle ref_done_ = 0;
  bool ever_activated_ = false;
  bool ever_column_ = false;
  bool ever_written_ = false;
  /// Last ACT per bank group (lazily grown to the highest group seen).
  std::vector<Cycle> group_last_act_;
  std::vector<bool> group_ever_act_;
  /// Ring of the last four ACT timestamps; slot (faw_count_ % 4) holds the
  /// fourth-previous ACT once four have been recorded.
  std::array<Cycle, 4> faw_{};
  std::uint64_t faw_count_ = 0;
};

}  // namespace rh::hbm
