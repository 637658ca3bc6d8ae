// The RowHammer flip rule.
//
// Every cell owns a lognormal disturbance threshold
//     T(cell) = hc0 * exp(sigma_cell * z(cell))
// addressed statelessly by hash. A victim bit flips when its accumulated
// *effective* disturbance exceeds the threshold:
//     D * coupling(bit) * position(row) * variation(bank,row) * temp >= T
// evaluated in the log domain so the 8192-bit row scan needs one hash and a
// compare per bit (no transcendental math on the per-bit path).
//
//   D          — weighted aggressor activation count accumulated by the bank
//                (distance-1 weight 1.0, distance-2 weight ~0.015, RowPress
//                on-time multiplier), reset whenever the row is refreshed.
//   coupling   — data-dependent: charged cells (true cell storing 1 / anti
//                cell storing 0) couple strongly, each opposite-valued
//                adjacent aggressor bit adds coupling, opposite-valued
//                same-row neighbour bits damp it slightly; discharged cells
//                keep a small residual (opposite-direction flips).
//   position   — parabolic in the row's position within its subarray, with a
//                strong attenuation in the bank's last subarray (Fig. 5).
//   variation  — die x channel x bank x row process factors (Figs. 3, 4, 6).
//
// Flips are *materialized*: the caller passes the stored row image and we
// flip bits in place, exactly like a sense amplifier restoring corrupted
// charge. A flipped cell is subsequently discharged, so re-evaluating with
// more disturbance never flips it back.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/config.hpp"
#include "fault/context.hpp"
#include "fault/process_variation.hpp"
#include "hbm/geometry.hpp"
#include "hbm/subarray.hpp"

namespace rh::fault {

class RowFaultCache;

class RowHammerModel {
public:
  RowHammerModel(const FaultConfig& cfg, const hbm::Geometry& geometry,
                 const hbm::SubarrayLayout& layout, const ProcessVariation& variation);
  ~RowHammerModel();

  /// Combined multiplicative vulnerability of (bank, physical row) at the
  /// given temperature: position x last-subarray x process factors.
  [[nodiscard]] double row_vulnerability(const BankContext& b, std::uint32_t physical_row,
                                         double temperature_c) const;

  /// Applies RowHammer bitflips to `data` (the stored row image) in place.
  /// `above` / `below` are the stored images of physical rows row-1 / row+1;
  /// pass an empty span when a neighbour does not exist (bank edge), which is
  /// treated as "same data as the victim" (no opposite-aggressor boost).
  /// Returns the number of bits flipped by *this* call.
  std::size_t apply(const BankContext& b, std::uint32_t physical_row, std::span<std::uint8_t> data,
                    std::span<const std::uint8_t> above, std::span<const std::uint8_t> below,
                    double disturbance, double temperature_c) const;

  /// A conservative lower bound on the disturbance needed to flip any bit
  /// anywhere in the device: below this, apply() is guaranteed to be a
  /// no-op, so callers can skip the row scan. Used on the per-ACT hot path.
  [[nodiscard]] double global_min_disturbance() const { return global_min_disturbance_; }

  /// Temperature multiplier on vulnerability (mild; ablation A2).
  [[nodiscard]] double temperature_factor(double temperature_c) const;

  /// Selects the fast kernel: a batch whose most permissive threshold class
  /// is at most RowFaultCache::kTierZ is evaluated from the row's cached
  /// weak tail (row_fault_cache.hpp: the cells with z <= kTierZ, weakest
  /// first, one slot of lane sum, bit and orientation each) instead of
  /// rescanning all 8192 bits; a stronger batch takes the reference scan.
  /// The batch's threshold becomes one lane-sum cap, the candidates are the
  /// tail's prefix up to it, and only they get a z and a class lookup. They
  /// are decided in two passes: first every candidate except the bit-0
  /// cells of bytes after the first, against the row as it was before the
  /// settle, then those bit-0 cells, each after the previous byte's bit 7
  /// is decided (the one flipped bit the reference scan reads).
  /// Bit-for-bit identical to the reference scan: the thresholds are the
  /// same hashes, the integer cap is exactly the z cap, every cell that can
  /// flip is in the tail, and every cell reads the neighbours the scan
  /// reads. Off by default — the interp engine keeps the reference scan as
  /// ground truth.
  void set_fast_kernel(bool enabled);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] const hbm::SubarrayLayout& layout() const { return layout_; }

private:
  FaultConfig cfg_;
  hbm::Geometry geometry_;
  hbm::SubarrayLayout layout_;
  const ProcessVariation* variation_;  // non-owning; outlives the model
  double ln_hc0_ = 0.0;
  double global_min_disturbance_ = 0.0;
  /// log(coupling) per [charged][opposite-aggressor count][intra][anti]
  /// threshold class. Pure config; hoisted out of apply() so the per-batch
  /// z-table build is 24 adds instead of 24 logarithms.
  std::array<std::array<std::array<std::array<double, 2>, 2>, 3>, 2> ln_coupling_{};
  /// Present iff the fast kernel is selected. mutable: the cache memoizes
  /// pure per-cell hashes, so filling it does not change observable state.
  mutable std::unique_ptr<RowFaultCache> cache_;
  /// The fast kernel's first-pass flips (bit indices), kept between
  /// settles so a settle allocates only when it flips more than any before.
  mutable std::vector<std::uint32_t> pass1_flips_;
};

}  // namespace rh::fault
