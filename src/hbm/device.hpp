// The HBM2 device: the stack a DRAM Bender host talks to.
//
// Owns the geometry, the fault-physics models, the row scrambler, per-channel
// mode registers, and the channel/pseudo-channel/bank hierarchy. The public
// surface is the HBM2 command set plus two batch "macro-op" entry points that
// the Bender executor uses for tight hammer loops (equivalent to, but far
// faster to simulate than, the unrolled ACT/PRE stream — an equivalence the
// test suite verifies).
//
// A single global cycle clock (advanced by the executor) timestamps all
// commands; retention is evaluated against it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/engine.hpp"
#include "fault/config.hpp"
#include "fault/process_variation.hpp"
#include "fault/retention_model.hpp"
#include "fault/rowhammer_model.hpp"
#include "hbm/address.hpp"
#include "hbm/geometry.hpp"
#include "hbm/mode_registers.hpp"
#include "hbm/pseudo_channel.hpp"
#include "hbm/scramble.hpp"
#include "hbm/subarray.hpp"
#include "hbm/timing.hpp"
#include "trr/proprietary_trr.hpp"

namespace rh::telemetry {
class Telemetry;
}

namespace rh::hbm {

struct DeviceConfig {
  Geometry geometry;
  TimingParams timings;
  ScrambleKind scramble = ScrambleKind::kPairSwap;
  fault::FaultConfig fault;
  trr::ProprietaryTrrConfig trr;
  double initial_temperature_c = 85.0;
  /// Explicit subarray sizes (must sum to rows_per_bank). Empty = the
  /// paper chip's floorplan (8x832, 4x768, 8x832).
  std::vector<std::uint32_t> subarray_sizes;
};

/// A second simulated part for methodology-generalization tests: a vendor
/// with a different floorplan (uniform 512-row subarrays), a different row
/// decoder (xor-fold), a faster proprietary TRR (one victim refresh per 9
/// REFs), and the worst die at the bottom of the stack (channels 0-1).
[[nodiscard]] DeviceConfig vendor_b_profile();

class Device {
public:
  explicit Device(DeviceConfig config);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // --- HBM2 command interface (all rows logical) -----------------------
  void activate(const BankAddress& bank, std::uint32_t row, Cycle now);
  void precharge(const BankAddress& bank, Cycle now);
  void precharge_all(std::uint32_t channel, std::uint32_t pseudo_channel, Cycle now);
  void read(const BankAddress& bank, std::uint32_t column, Cycle now,
            std::span<std::uint8_t> out);
  void write(const BankAddress& bank, std::uint32_t column, std::span<const std::uint8_t> data,
             Cycle now);
  void refresh(std::uint32_t channel, std::uint32_t pseudo_channel, Cycle now);
  /// Self-refresh entry/exit (SRE/SRX). While inside, the pseudo channel
  /// refreshes itself and rejects all other commands.
  void self_refresh_enter(std::uint32_t channel, std::uint32_t pseudo_channel, Cycle now);
  void self_refresh_exit(std::uint32_t channel, std::uint32_t pseudo_channel, Cycle now);
  /// MRS write; reg 4 bit 0 controls on-die ECC, reg 15 the documented TRR
  /// mode (see mode_registers.hpp).
  void mode_register_set(std::uint32_t channel, std::uint32_t reg, std::uint32_t value, Cycle now);

  // --- Batch macro-ops (executor fast path) -----------------------------
  void hammer_pair(const BankAddress& bank, std::uint32_t row_a, std::uint32_t row_b,
                   std::uint64_t count, Cycle on_time, Cycle end);
  void hammer_single(const BankAddress& bank, std::uint32_t row, std::uint64_t count, Cycle on_time,
                     Cycle end);

  // --- Environment -------------------------------------------------------
  void set_temperature(double celsius) { temperature_c_ = celsius; }
  [[nodiscard]] double temperature() const { return temperature_c_; }

  // --- Engine selection ---------------------------------------------------
  /// Selects between the reference device core (kInterp: per-bit fault
  /// rescans) and the fast one (kFast: cached sorted-threshold fault kernel).
  /// Both are bit-identical by contract; `bug` deliberately breaks the fast
  /// path for differential-rig sensitivity tests and is only honoured when
  /// `kind == kFast`. The executor reads both to pick its engine.
  void set_engine(common::EngineKind kind,
                  common::PlantedBug bug = common::PlantedBug::kNone);
  [[nodiscard]] common::EngineKind engine() const { return engine_; }
  [[nodiscard]] common::PlantedBug planted_bug() const { return bug_; }

  // --- Observability ------------------------------------------------------
  /// Attaches (or detaches, with nullptr) a telemetry sink observing the
  /// full stack: interface commands here, TRR triggers and refresh-pointer
  /// progress in the pseudo channels, bit-flip materializations in the
  /// banks. The sink must outlive the device or be detached first; when no
  /// sink is attached the instrumentation costs one branch per hook.
  void set_telemetry(telemetry::Telemetry* sink);
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return telemetry_; }

  // --- Introspection ------------------------------------------------------
  [[nodiscard]] const Geometry& geometry() const { return config_.geometry; }
  [[nodiscard]] const TimingParams& timings() const { return config_.timings; }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }
  [[nodiscard]] const RowScrambler& scrambler() const { return scrambler_; }
  [[nodiscard]] const SubarrayLayout& subarray_layout() const { return layout_; }
  [[nodiscard]] const fault::RowHammerModel& rowhammer_model() const { return *rh_model_; }
  [[nodiscard]] const fault::RetentionModel& retention_model() const { return *retention_model_; }
  [[nodiscard]] const ModeRegisters& mode_registers(std::uint32_t channel) const;
  [[nodiscard]] Bank& bank(const BankAddress& addr);
  [[nodiscard]] const Bank& bank(const BankAddress& addr) const;
  [[nodiscard]] PseudoChannel& pseudo_channel(std::uint32_t channel, std::uint32_t pc);

private:
  struct Channel {
    ModeRegisters mode_registers;
    std::vector<PseudoChannel> pseudo_channels;
  };

  [[nodiscard]] Channel& channel_at(std::uint32_t channel);

  DeviceConfig config_;
  RowScrambler scrambler_;
  SubarrayLayout layout_;
  std::unique_ptr<fault::ProcessVariation> variation_;
  std::unique_ptr<fault::RowHammerModel> rh_model_;
  std::unique_ptr<fault::RetentionModel> retention_model_;
  std::vector<Channel> channels_;
  double temperature_c_ = 85.0;
  telemetry::Telemetry* telemetry_ = nullptr;
  common::EngineKind engine_ = common::EngineKind::kInterp;
  common::PlantedBug bug_ = common::PlantedBug::kNone;
};

}  // namespace rh::hbm
