// One DRAM bank: protocol state machine, sparse cell storage, and the point
// where the fault model meets the command stream.
//
// Storage is lazy: a bank of 16384 rows materializes only the rows an
// experiment touches (the full stack is 4 GiB; experiments touch megabytes).
// A row materializes with its power-on content (fault::fill_default_data),
// except under a store that covers the whole row (the row-burst kernel's
// WRROW), which overwrites every byte anyway; a single-column write and a
// short burst keep the power-on bytes they do not reach. Each materialized
// row keeps two images:
//   raw     — the charge state (accumulates RowHammer and retention flips)
//   written — the last data written by the host (the on-die ECC reference)
//
// Fault bookkeeping is *settled* whenever a row's charge is sensed and
// restored (own ACT, REF sweep, TRR victim refresh): pending retention decay
// and RowHammer disturbance materialize into `raw`, the disturbance counter
// resets, and the refresh timestamp advances — exactly the lifecycle of a
// real row through sense-amplifier restore.
//
// A row's refresh timestamp is the later of the bank's own stamp
// (last_refresh_, else the full-refresh epoch) and its pseudo channel's
// REF-sweep stamp lane (pseudo_channel.hpp), which the fast engine's sweep
// writes in place of settling rows that hold nothing pending. A bank's
// clock never runs backwards, so the later stamp is the one the
// reference's settle of every swept row would have left.
//
// All host-facing row numbers are logical; the bank applies the row-decoder
// scrambling internally. Disturbance and refresh bookkeeping are keyed by
// physical row.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/context.hpp"
#include "fault/retention_model.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/geometry.hpp"
#include "hbm/scramble.hpp"
#include "hbm/timing.hpp"
#include "hbm/timing_checker.hpp"

namespace rh::telemetry {
class Telemetry;
}

namespace rh::hbm {

class Bank {
public:
  struct Stats {
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowhammer_flips = 0;   ///< bits flipped by disturbance so far
    std::uint64_t retention_flips = 0;   ///< bits flipped by decay so far
    std::uint64_t ecc_corrections = 0;   ///< codewords corrected on reads
    std::uint64_t settles = 0;           ///< full row settles (fault scans)
  };

  Bank(const Geometry& geometry, const TimingParams& timings, fault::BankContext context,
       const RowScrambler& scrambler, const fault::RowHammerModel& rh_model,
       const fault::RetentionModel& retention_model);

  // --- DRAM protocol (logical row addressing) --------------------------
  void activate(std::uint32_t logical_row, Cycle now, double temperature_c);
  void precharge(Cycle now, double temperature_c);
  /// Reads one column burst of the open row into `out` (bytes_per_column
  /// bytes). When `ecc_enabled`, single-bit errors per 64-bit word are
  /// corrected on the fly.
  void read(std::uint32_t column, Cycle now, bool ecc_enabled, std::span<std::uint8_t> out);
  /// Writes one column burst into the open row.
  void write(std::uint32_t column, std::span<const std::uint8_t> data, Cycle now);

  // --- Row bursts (WRROW / RDROW kernel; caller = pseudo channel) -------
  /// The BankTiming half of read()/write(): validates and records one
  /// column command at `now` without moving data.
  void check_column(Cycle now, bool is_write);
  /// Moves the first `columns` columns of a checked burst in one pass and
  /// counts them: writes them from the row image `image`, or reads them
  /// into `out` (row_bytes long) with per-column ECC correction.
  void write_columns(std::span<const std::uint8_t> image, std::uint32_t columns);
  void read_columns(std::uint32_t columns, bool ecc_enabled, std::span<std::uint8_t> out);

  [[nodiscard]] bool is_open() const { return timing_.open(); }
  [[nodiscard]] std::uint32_t open_logical_row() const { return timing_.open_row(); }

  // --- Refresh paths (physical row addressing; caller = pseudo channel) --
  /// Sense+restore of one physical row (REF sweep step / TRR victim refresh).
  void refresh_physical_row(std::uint32_t physical_row, Cycle now, double temperature_c);
  /// True if settling the row would do more than stamp it: the row is
  /// materialized or holds live disturbance.
  [[nodiscard]] bool holds_pending(std::uint32_t physical_row) const {
    return disturbance_.contains(physical_row) || rows_.contains(physical_row);
  }
  /// Attaches the pseudo channel's sweep stamp lane (one Cycle per physical
  /// row, alive as long as the bank): settles take the later of a row's own
  /// stamp and the lane's.
  void set_sweep_lane(const Cycle* lane) { sweep_lane_ = lane; }
  /// Treats every row as refreshed at `now` (self-refresh exit after at
  /// least one full internal sweep that started at `refresh_start`):
  /// pending fault state of tracked rows materializes first — with decay
  /// accrued only up to one refresh window past `refresh_start` — then all
  /// refresh timestamps collapse to `now`.
  void note_full_refresh(Cycle now, Cycle refresh_start, double temperature_c);

  // --- Batch hammering (the Bender HAMMER macro-op) ---------------------
  /// `count` double-sided hammers: alternating ACT+PRE pairs to both logical
  /// rows, each held open for `on_time` cycles (values <= tRAS mean minimal
  /// on-time; larger values engage the RowPress multiplier). The bank must
  /// be precharged. `end` is the cycle when the batch completes (the
  /// executor advances the clock).
  void hammer_pair(std::uint32_t logical_row_a, std::uint32_t logical_row_b, std::uint64_t count,
                   Cycle on_time, Cycle end, double temperature_c);
  /// `count` single-sided hammers of one row.
  void hammer_single(std::uint32_t logical_row, std::uint64_t count, Cycle on_time, Cycle end,
                     double temperature_c);

  // --- Introspection (tests, analytics) ---------------------------------
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] double disturbance_of_physical(std::uint32_t physical_row) const;
  [[nodiscard]] bool row_materialized_physical(std::uint32_t physical_row) const;
  [[nodiscard]] const RowScrambler& scrambler() const { return *scrambler_; }
  [[nodiscard]] const fault::BankContext& context() const { return context_; }
  /// Pending-work check used by tests to confirm hot-path skip behaviour.
  [[nodiscard]] std::size_t tracked_rows() const { return rows_.size(); }

  /// Telemetry sink for bit-flip materialization events (attached through
  /// Device::set_telemetry; nullptr detaches).
  void set_telemetry(telemetry::Telemetry* sink) { telemetry_ = sink; }

  /// Planted bug (differential-rig sensitivity tests only): the batch
  /// hammer macro-ops skip the final own-ACT re-settle of the aggressors,
  /// leaving stale disturbance behind. Wired through Device::set_engine.
  void set_stale_flush_bug(bool enabled) { stale_flush_bug_ = enabled; }
  /// Planted bug (differential-rig sensitivity tests only): the row-burst
  /// kernel moves one column fewer than it checks and counts. Wired
  /// through Device::set_engine.
  void set_short_burst_bug(bool enabled) { short_burst_bug_ = enabled; }

private:
  struct RowState {
    std::vector<std::uint8_t> raw;
    std::vector<std::uint8_t> written;
  };

  /// Per-row disturbance accumulator, structure-of-arrays: a dense value
  /// lane plus a liveness lane, allocated lazily on the first deposit (most
  /// banks in a device never see an ACT). The touched list remembers every
  /// row whose entry went live since the last full refresh so clearing and
  /// sweeping cost O(touched), not O(rows); erased rows stay in the list
  /// and are skipped via the liveness lane.
  class DisturbanceMap {
  public:
    void add(std::uint32_t row, double weight, std::size_t rows) {
      if (value_.empty()) {
        value_.assign(rows, 0.0);
        live_.assign(rows, 0);
        tracked_.assign(rows, 0);
      }
      if (tracked_[row] == 0) {
        tracked_[row] = 1;
        touched_.push_back(row);
      }
      if (live_[row] == 0) {
        live_[row] = 1;
        value_[row] = 0.0;
      }
      value_[row] += weight;
    }
    [[nodiscard]] double get(std::uint32_t row) const {
      return value_.empty() || live_[row] == 0 ? 0.0 : value_[row];
    }
    [[nodiscard]] bool contains(std::uint32_t row) const {
      return !value_.empty() && live_[row] != 0;
    }
    void erase(std::uint32_t row) {
      if (!value_.empty()) live_[row] = 0;
    }
    void clear() {
      for (const std::uint32_t row : touched_) {
        live_[row] = 0;
        tracked_[row] = 0;
      }
      touched_.clear();
    }
    /// Rows with a live entry, in first-deposit order (the canonical sweep
    /// order full-refresh settling uses). Each live row appears once.
    [[nodiscard]] std::vector<std::uint32_t> live_rows() const {
      std::vector<std::uint32_t> rows;
      rows.reserve(touched_.size());
      for (const std::uint32_t row : touched_) {
        if (live_[row] != 0) rows.push_back(row);
      }
      return rows;
    }

  private:
    std::vector<double> value_;
    std::vector<std::uint8_t> live_;     ///< row currently holds disturbance
    std::vector<std::uint8_t> tracked_;  ///< row is already on the touched list
    std::vector<std::uint32_t> touched_;
  };

  /// Sense + restore: materializes pending retention/RowHammer effects into
  /// `raw`, resets disturbance, advances the refresh timestamp.
  void settle(std::uint32_t physical_row, Cycle now, double temperature_c);
  /// settle() with decay accrued only up to `decayed_until` (self-refresh:
  /// the internal engine kept the row alive from then on).
  void settle_impl(std::uint32_t physical_row, Cycle now, Cycle decayed_until,
                   double temperature_c);
  /// RowPress disturbance multiplier for an aggressor held open `on_time`.
  [[nodiscard]] double press_factor(Cycle on_time) const;
  /// The row's storage, materialized on first use with its power-on content
  /// (zeros instead when `power_on_fill` is false: the caller overwrites
  /// the whole row at once).
  RowState& ensure_materialized(std::uint32_t physical_row, bool power_on_fill = true);
  /// Data movement of write()/write_columns(): copies `data` into the open
  /// row's raw and written images from `first_column` on.
  void store(std::uint32_t first_column, std::span<const std::uint8_t> data);
  /// Data movement of read()/read_columns(): copies the open row's raw image
  /// from `first_column` on into `out`, correcting each column with on-die
  /// ECC when enabled.
  void load(std::uint32_t first_column, bool ecc_enabled, std::span<std::uint8_t> out);
  /// Adds `scale` activations' worth of disturbance around physical row
  /// `aggressor` (distance-1 and distance-2 neighbours, same subarray only).
  void add_act_disturbance(std::uint32_t aggressor, double scale);
  /// Raw image of a neighbour row for coupling, generating power-on content
  /// into `scratch` when the row was never materialized. Returns an empty
  /// span when the neighbour is absent or across a subarray boundary.
  [[nodiscard]] std::span<const std::uint8_t> neighbour_data(std::uint32_t physical_row,
                                                             std::int64_t neighbour,
                                                             std::vector<std::uint8_t>& scratch);

  const Geometry* geometry_;
  TimingParams timings_;
  fault::BankContext context_;
  const RowScrambler* scrambler_;
  const fault::RowHammerModel* rh_model_;
  const fault::RetentionModel* retention_model_;
  telemetry::Telemetry* telemetry_ = nullptr;

  BankTiming timing_;
  std::uint32_t open_physical_ = 0;
  Cycle act_cycle_ = 0;

  std::unordered_map<std::uint32_t, RowState> rows_;
  /// One-entry memo for ensure_materialized: consecutive column accesses hit
  /// the same open row, and rows_ never erases, so node references stay
  /// valid for the bank's lifetime.
  RowState* memo_state_ = nullptr;
  std::uint32_t memo_row_ = 0;
  DisturbanceMap disturbance_;
  std::unordered_map<std::uint32_t, Cycle> last_refresh_;
  bool stale_flush_bug_ = false;
  bool short_burst_bug_ = false;
  /// Refresh timestamp for rows with no explicit last_refresh_ entry
  /// (power-up = 0; advanced by full-refresh events like self-refresh).
  Cycle epoch_ = 0;
  /// The pseudo channel's sweep stamp lane; nullptr until its first fast
  /// REF sweep.
  const Cycle* sweep_lane_ = nullptr;
  std::vector<std::uint8_t> scratch_above_;
  std::vector<std::uint8_t> scratch_below_;
  Stats stats_;
};

}  // namespace rh::hbm
