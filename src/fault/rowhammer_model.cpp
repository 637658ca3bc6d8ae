#include "fault/rowhammer_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "fault/cell_traits.hpp"
#include "fault/row_fault_cache.hpp"

namespace rh::fault {

namespace {

/// Irwin-Hall(4) approximate normals are bounded: z >= -2 * sqrt(3).
constexpr double kZMin = common::kApproxNormalMin;

}  // namespace

RowHammerModel::~RowHammerModel() = default;

void RowHammerModel::set_fast_kernel(bool enabled) {
  if (enabled && cache_ == nullptr) {
    cache_ = std::make_unique<RowFaultCache>(cfg_, geometry_, Stream::kRowHammerZ);
  } else if (!enabled) {
    cache_.reset();
  }
}

RowHammerModel::RowHammerModel(const FaultConfig& cfg, const hbm::Geometry& geometry,
                               const hbm::SubarrayLayout& layout,
                               const ProcessVariation& variation)
    : cfg_(cfg), geometry_(geometry), layout_(layout), variation_(&variation) {
  RH_EXPECTS(cfg_.hc0 > 0 && cfg_.sigma_cell > 0);
  RH_EXPECTS(layout_.total_rows() == geometry_.rows_per_bank);
  ln_hc0_ = std::log(cfg_.hc0);

  // Coupling depends only on config, so its logarithm is hoisted here;
  // apply() adds it to ln(disturbance * vulnerability) per threshold class.
  for (int charged = 0; charged < 2; ++charged) {
    for (int k = 0; k < 3; ++k) {
      for (int intra = 0; intra < 2; ++intra) {
        for (int anti = 0; anti < 2; ++anti) {
          double coupling = charged != 0
                                ? cfg_.coupling_base + k * cfg_.coupling_opposite_aggressor
                                : cfg_.coupling_discharged;
          if (intra != 0) coupling *= cfg_.intra_row_opposite_factor;
          if (anti != 0) coupling *= cfg_.anti_cell_relative;
          ln_coupling_[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                      [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)] =
                          std::log(coupling);
        }
      }
    }
  }

  // Conservative bound: the most vulnerable cell anywhere has z = kZMin,
  // max coupling, max position factor, and max process factor. Disturbance
  // below hc0 * exp(sigma*zmin) / (all maxed factors) cannot flip anything.
  double max_factor = 0.0;
  for (double f : cfg_.die_factor) max_factor = std::max(max_factor, f);
  max_factor *= std::exp(3.0 * cfg_.sigma_channel) * std::exp(3.0 * cfg_.sigma_bank) *
                std::exp(3.5 * cfg_.sigma_row);
  max_factor *= cfg_.position_base + cfg_.position_amp;
  max_factor *= 1.5;  // headroom for temperature
  const double max_coupling =
      (cfg_.coupling_base + 2.0 * cfg_.coupling_opposite_aggressor) * 1.0;
  global_min_disturbance_ =
      cfg_.hc0 * std::exp(cfg_.sigma_cell * kZMin) / (max_factor * max_coupling);
}

double RowHammerModel::temperature_factor(double temperature_c) const {
  return 1.0 + cfg_.rh_temp_coeff_per_10c * (temperature_c - 85.0) / 10.0;
}

double RowHammerModel::row_vulnerability(const BankContext& b, std::uint32_t physical_row,
                                         double temperature_c) const {
  const double x = layout_.relative_position(physical_row);
  double position = cfg_.position_base + cfg_.position_amp * 4.0 * x * (1.0 - x);
  if (layout_.in_last_subarray(physical_row)) position *= cfg_.last_subarray_factor;
  return position * variation_->bank_factor(b) * variation_->row_jitter(b, physical_row) *
         temperature_factor(temperature_c);
}

std::size_t RowHammerModel::apply(const BankContext& b, std::uint32_t physical_row,
                                  std::span<std::uint8_t> data,
                                  std::span<const std::uint8_t> above,
                                  std::span<const std::uint8_t> below, double disturbance,
                                  double temperature_c) const {
  RH_EXPECTS(data.size() == geometry_.row_bytes());
  RH_EXPECTS(above.empty() || above.size() == data.size());
  RH_EXPECTS(below.empty() || below.size() == data.size());
  if (disturbance <= 0.0) return 0;

  const double vuln = row_vulnerability(b, physical_row, temperature_c);
  const double ln_d = std::log(disturbance * vuln);

  // z-threshold lookup, indexed by [charged][opposite-aggressor count k]
  // [intra-row damped][anti cell]. A bit flips iff z(bit) <= table[...].
  // The per-class log(coupling) is precomputed at construction, so the
  // per-bit path — and this per-batch build — sees no logarithms beyond
  // ln_d above.
  std::array<std::array<std::array<std::array<double, 2>, 2>, 3>, 2> z_table{};
  for (int charged = 0; charged < 2; ++charged) {
    for (int k = 0; k < 3; ++k) {
      for (int intra = 0; intra < 2; ++intra) {
        for (int anti = 0; anti < 2; ++anti) {
          z_table[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                 [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)] =
                     (ln_d +
                      ln_coupling_[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                                  [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)] -
                      ln_hc0_) /
                     cfg_.sigma_cell;
        }
      }
    }
  }
  // Fast reject: even the weakest threshold class can't reach the strongest
  // cell's z -> nothing flips.
  if (z_table[1][2][0][0] < kZMin) return 0;

  const std::size_t n = data.size();
  std::size_t flips = 0;

  if (cache_ != nullptr) {
    double z_cap = kZMin;
    for (int charged = 0; charged < 2; ++charged) {
      for (int k = 0; k < 3; ++k) {
        for (int intra = 0; intra < 2; ++intra) {
          for (int anti = 0; anti < 2; ++anti) {
            z_cap = std::max(z_cap, z_table[static_cast<std::size_t>(charged)]
                                           [static_cast<std::size_t>(k)]
                                           [static_cast<std::size_t>(intra)]
                                           [static_cast<std::size_t>(anti)]);
          }
        }
      }
    }
    if (z_cap <= RowFaultCache::kTierZ) {
      // Fast kernel: only cells whose cached lane sum is at most the
      // batch's most permissive threshold class can flip, and z_cap is
      // within the cached tier, so they are the prefix of the row's
      // strength-ordered weak tail up to the cap; every other cell keeps
      // its value. The reference scan reads the row as it was before the
      // settle, with one exception: bit 0 of byte i > 0 reads bit 7 of
      // byte i - 1 after that bit's own decision. So the prefix is decided
      // in two passes. Pass 1 decides every other candidate against the
      // untouched row and only records its flips; the bit-7 flips are then
      // applied, pass 2 decides the deferred bit-0 cells (each reads only
      // bits 0 and 1 of its own byte, still untouched, and the previous
      // byte's bit 7) and the remaining pass-1 flips land last.
      const std::vector<std::uint32_t>& slots = cache_->get(b, physical_row).slots;
      const auto end = std::upper_bound(
          slots.begin(), slots.end(),
          RowFaultCache::slot_cap(common::max_lane_sum_at_most(z_cap)));
      // Decides one candidate as the reference scan does, reading the row
      // as it stands: the cell's own byte, its aggressor bits (a missing
      // neighbour reads as the victim's own byte) and the same-row
      // neighbours across the byte edges.
      const auto decide = [&](std::uint32_t slot) {
        const std::uint32_t bit = RowFaultCache::slot_bit(slot);
        const std::size_t i = bit >> 3;
        const std::uint32_t j = bit & 7u;
        const std::uint8_t v = data[i];
        const std::uint8_t up = above.empty() ? v : above[i];
        const std::uint8_t dn = below.empty() ? v : below[i];
        const int vb = (v >> j) & 1;
        const int k = (((up >> j) & 1) != vb ? 1 : 0) + (((dn >> j) & 1) != vb ? 1 : 0);
        const int left = j > 0 ? (v >> (j - 1)) & 1 : i > 0 ? (data[i - 1] >> 7) & 1 : vb;
        const int right = j < 7 ? (v >> (j + 1)) & 1 : i + 1 < n ? data[i + 1] & 1 : vb;
        const int intra = (left != vb && right != vb) ? 1 : 0;
        const int anti = RowFaultCache::slot_anti(slot) ? 1 : 0;
        const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;
        const double zmax = z_table[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                                   [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)];
        return zmax >= kZMin &&
               common::approx_normal_of_lane_sum(RowFaultCache::slot_sum(slot)) <= zmax;
      };
      const auto deferred = [](std::uint32_t bit) { return bit >= 8 && (bit & 7u) == 0; };
      const auto flip = [&](std::uint32_t bit) {
        data[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7u));
      };
      std::vector<std::uint32_t>& pass1 = pass1_flips_;
      pass1.clear();
      for (auto it = slots.begin(); it != end; ++it) {
        const std::uint32_t bit = RowFaultCache::slot_bit(*it);
        if (!deferred(bit) && decide(*it)) pass1.push_back(bit);
      }
      for (const std::uint32_t bit : pass1) {
        if ((bit & 7u) == 7u) flip(bit);
      }
      flips = pass1.size();
      for (auto it = slots.begin(); it != end; ++it) {
        const std::uint32_t bit = RowFaultCache::slot_bit(*it);
        if (deferred(bit) && decide(*it)) {
          flip(bit);
          ++flips;
        }
      }
      for (const std::uint32_t bit : pass1) {
        if ((bit & 7u) != 7u) flip(bit);
      }
      return flips;
    }
    // The batch's threshold class reaches above the cached tier: strong
    // cells could flip too, so take the reference scan below.
  }

  const RowHash z_hash(cfg_.seed, Stream::kRowHammerZ, b, physical_row);
  const RowHash orient_hash(cfg_.seed, Stream::kOrientation, b, physical_row);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t v = data[i];
    const std::uint8_t up = above.empty() ? v : above[i];
    const std::uint8_t dn = below.empty() ? v : below[i];
    // Same-row neighbour bits, including the cross-byte edges.
    const std::uint8_t prev_edge =
        i > 0 ? static_cast<std::uint8_t>((data[i - 1] >> 7) & 1u) : std::uint8_t{0xff};
    const std::uint8_t next_edge =
        i + 1 < n ? static_cast<std::uint8_t>(data[i + 1] & 1u) : std::uint8_t{0xff};

    std::uint8_t flipped = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t bit = static_cast<std::uint32_t>(i) * 8 + j;
      const int vb = (v >> j) & 1;
      const int k = (((up >> j) & 1) != vb ? 1 : 0) + (((dn >> j) & 1) != vb ? 1 : 0);

      const int left = j > 0 ? ((v >> (j - 1)) & 1) : (prev_edge == 0xff ? vb : prev_edge);
      const int right = j < 7 ? ((v >> (j + 1)) & 1) : (next_edge == 0xff ? vb : next_edge);
      const int intra = (left != vb && right != vb) ? 1 : 0;

      const std::uint64_t ho = orient_hash.at(bit);
      const int anti = common::to_unit_double(ho) < cfg_.anti_cell_fraction ? 1 : 0;
      const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;

      const double zmax = z_table[static_cast<std::size_t>(charged)][static_cast<std::size_t>(k)]
                                 [static_cast<std::size_t>(intra)][static_cast<std::size_t>(anti)];
      if (zmax < kZMin) continue;
      const double z = common::approx_normal(z_hash.at(bit));
      if (z <= zmax) {
        flipped |= static_cast<std::uint8_t>(1u << j);
        ++flips;
      }
    }
    data[i] ^= flipped;
  }
  return flips;
}

}  // namespace rh::fault
