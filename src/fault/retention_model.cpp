#include "fault/retention_model.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "fault/cell_traits.hpp"
#include "fault/row_fault_cache.hpp"

namespace rh::fault {

namespace {
constexpr double kZMin = common::kApproxNormalMin;
}

RetentionModel::RetentionModel(const FaultConfig& cfg, const hbm::Geometry& geometry)
    : cfg_(cfg), geometry_(geometry) {
  RH_EXPECTS(cfg_.retention_median_s > 0 && cfg_.retention_sigma > 0);
}

RetentionModel::~RetentionModel() = default;

void RetentionModel::set_fast_kernel(bool enabled) {
  if (enabled && cache_ == nullptr) {
    cache_ = std::make_unique<RowFaultCache>(cfg_, geometry_, Stream::kRetentionZ);
  } else if (!enabled) {
    cache_.reset();
  }
}

double RetentionModel::temp_scale(double temperature_c) const {
  // Retention halves every +retention_temp_step_c above the reference.
  return std::exp2((cfg_.retention_ref_temp_c - temperature_c) / cfg_.retention_temp_step_c);
}

double RetentionModel::cell_retention_s(const BankContext& b, std::uint32_t physical_row,
                                        std::uint32_t bit, double temperature_c) const {
  const std::uint64_t h = cell_hash(cfg_.seed, Stream::kRetentionZ, b, physical_row, bit);
  return cfg_.retention_median_s * std::exp(cfg_.retention_sigma * common::approx_normal(h)) *
         temp_scale(temperature_c);
}

double RetentionModel::row_min_retention_s(const BankContext& b, std::uint32_t physical_row,
                                           double temperature_c) const {
  double best = cell_retention_s(b, physical_row, 0, temperature_c);
  const std::uint32_t bits = geometry_.row_bits();
  for (std::uint32_t bit = 1; bit < bits; ++bit) {
    best = std::min(best, cell_retention_s(b, physical_row, bit, temperature_c));
  }
  return best;
}

double RetentionModel::global_min_retention_s(double temperature_c) const {
  return cfg_.retention_median_s * std::exp(cfg_.retention_sigma * kZMin) *
         temp_scale(temperature_c);
}

std::size_t RetentionModel::apply(const BankContext& b, std::uint32_t physical_row,
                                  std::span<std::uint8_t> data, double elapsed_s,
                                  double temperature_c) const {
  RH_EXPECTS(data.size() == geometry_.row_bytes());
  if (elapsed_s <= 0.0) return 0;
  if (elapsed_s < global_min_retention_s(temperature_c)) return 0;

  // A charged cell decays iff elapsed > t(cell), i.e. z_ret(cell) < z_max.
  const double z_max =
      std::log(elapsed_s / (cfg_.retention_median_s * temp_scale(temperature_c))) /
      cfg_.retention_sigma;
  // Every z is >= kZMin, so a strict cut at or below it decays nothing.
  if (z_max <= kZMin) return 0;

  if (cache_ != nullptr && z_max <= RowFaultCache::kTierZ) {
    // Fast kernel: a cell that decays has z < z_max <= kTierZ, so its lane
    // sum is at most the cap and it is in the row's weak tail cut at the
    // cap. A slot above the cap (the entry was cut deeper for an earlier,
    // longer wait) is skipped. Each cell's decision reads only its own bit,
    // so flipping in place changes no decision the scan makes.
    const std::uint32_t cap = common::max_lane_sum_below(z_max);
    const std::uint32_t slot_cap = RowFaultCache::slot_cap(cap);
    std::size_t flips = 0;
    for (const std::uint32_t slot : cache_->get(b, physical_row, cap).slots) {
      if (slot > slot_cap) continue;
      const std::uint32_t bit = RowFaultCache::slot_bit(slot);
      std::uint8_t& byte = data[bit >> 3];
      const auto mask = static_cast<std::uint8_t>(1u << (bit & 7u));
      const bool charged = ((byte & mask) != 0) != RowFaultCache::slot_anti(slot);
      if (charged) {
        byte ^= mask;
        ++flips;
      }
    }
    return flips;
  }

  const RowHash z_hash(cfg_.seed, Stream::kRetentionZ, b, physical_row);
  const RowHash orient_hash(cfg_.seed, Stream::kOrientation, b, physical_row);

  std::size_t flips = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::uint8_t flipped = 0;
    for (std::uint32_t j = 0; j < 8; ++j) {
      const std::uint32_t bit = static_cast<std::uint32_t>(i) * 8 + j;
      const int vb = (data[i] >> j) & 1;
      const int anti =
          common::to_unit_double(orient_hash.at(bit)) < cfg_.anti_cell_fraction ? 1 : 0;
      const int charged = (vb == (anti != 0 ? 0 : 1)) ? 1 : 0;
      if (charged == 0) continue;
      const double z = common::approx_normal(z_hash.at(bit));
      if (z < z_max) {
        flipped |= static_cast<std::uint8_t>(1u << j);
        ++flips;
      }
    }
    data[i] ^= flipped;
  }
  return flips;
}

}  // namespace rh::fault
