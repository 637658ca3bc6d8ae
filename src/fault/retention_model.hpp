// Data-retention failure model.
//
// Each cell's retention time is lognormal with a weak tail,
//     t(cell) = retention_median_s * exp(retention_sigma * z_ret(cell)),
// and halves for every +retention_temp_step_c above the reference
// temperature. Only *charged* cells decay; a decayed cell reads as its
// discharged value (true cell 1->0, anti cell 0->1).
//
// This model serves two roles from the paper:
//   1. the methodology constraint that experiments finish within 27 ms so
//      retention failures never contaminate RowHammer results (§3.1), and
//   2. the U-TRR retention side channel used to expose the undisclosed TRR
//      mechanism (§5): a row is profiled for its retention time T, and
//      whether bitflips appear after T tells the host whether *anything*
//      (e.g. an in-DRAM TRR) refreshed the row in between.
//
// The fast kernel (set_fast_kernel, selected by Device::set_engine under
// kFast) serves role 2. A U-TRR wait of about T decays only the row's
// weakest few cells, so its decay threshold lies deep in the lower tail of
// z. A settle whose threshold is at most RowFaultCache::kTierZ walks the
// row's cached weak tail (row_fault_cache.hpp), weakest cell first, and
// stops at the first cell above its threshold, so it visits only the
// cells that can decay and never rehashes the 8,192 cells. The
// reference's strict compare z < z_max is one integer cap per settle
// (common::max_lane_sum_below), checked against each packed slot as it
// stands. Each decision reads only its own bit, so the walk's order does
// not matter. Longer waits (past about 0.8 s at 85 degC) and every settle
// under kInterp take the reference scan, which stays the ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "fault/config.hpp"
#include "fault/context.hpp"
#include "hbm/geometry.hpp"

namespace rh::fault {

class RowFaultCache;

class RetentionModel {
public:
  RetentionModel(const FaultConfig& cfg, const hbm::Geometry& geometry);
  ~RetentionModel();

  /// Applies retention decay to the stored row image after `elapsed_s`
  /// seconds without refresh at `temperature_c`. Returns bits flipped now.
  std::size_t apply(const BankContext& b, std::uint32_t physical_row,
                    std::span<std::uint8_t> data, double elapsed_s, double temperature_c) const;

  /// Retention time of one cell at `temperature_c`, in seconds.
  [[nodiscard]] double cell_retention_s(const BankContext& b, std::uint32_t physical_row,
                                        std::uint32_t bit, double temperature_c) const;

  /// Minimum retention time across a row's cells (the row's failure
  /// boundary T used by retention profiling), in seconds.
  [[nodiscard]] double row_min_retention_s(const BankContext& b, std::uint32_t physical_row,
                                           double temperature_c) const;

  /// Elapsed times below this can't decay any cell anywhere — fast-skip
  /// bound for the per-ACT hot path, in seconds at `temperature_c`.
  [[nodiscard]] double global_min_retention_s(double temperature_c) const;

  /// Selects the fast kernel (see the header comment): a decay whose
  /// threshold is at most RowFaultCache::kTierZ walks the prefix of the
  /// row's cached weak tail under it instead of rescanning every cell.
  /// Bit-for-bit identical to the reference scan. Off by default.
  void set_fast_kernel(bool enabled);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

private:
  [[nodiscard]] double temp_scale(double temperature_c) const;

  FaultConfig cfg_;
  hbm::Geometry geometry_;
  /// Present iff the fast kernel is selected. mutable: the cache memoizes
  /// pure per-cell hashes, so filling it does not change observable state.
  mutable std::unique_ptr<RowFaultCache> cache_;
};

}  // namespace rh::fault
