#include "fault/row_fault_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace rh::fault {

static_assert(common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum) <=
                      RowFaultCache::kTierZ &&
                  common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum + 1) >
                      RowFaultCache::kTierZ,
              "the integer tail cut must be the z cut");

RowFaultCache::RowFaultCache(const FaultConfig& cfg, const hbm::Geometry& geometry,
                             Stream threshold)
    : seed_(cfg.seed),
      anti_cell_fraction_(cfg.anti_cell_fraction),
      threshold_(threshold),
      row_bits_(geometry.row_bits()) {
  RH_EXPECTS(row_bits_ <= 0x10000u);  // tail bit indices are 16-bit
}

const RowFaultCache::Entry& RowFaultCache::get(const BankContext& b,
                                               std::uint32_t physical_row) {
  const std::uint64_t key = (static_cast<std::uint64_t>(b.flat_bank) << 32) | physical_row;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxEntries) evict_lru();
    it = entries_.emplace(key, build(b, physical_row)).first;
  }
  it->second.last_use = ++tick_;
  return it->second;
}

RowFaultCache::Entry RowFaultCache::build(const BankContext& b, std::uint32_t physical_row) {
  // The scratch is sized on first use, so a cache that never builds (the
  // retention cache of a run without long waits) adds nothing to bring-up.
  sums_.resize(row_bits_);
  tail_.resize(row_bits_);
  const RowHash z_hash(seed_, threshold_, b, physical_row);
  const std::uint32_t bits = row_bits_;
  // Pass 1: every cell's lane sum, and the row's smallest.
  std::uint32_t min_sum = common::kMaxLaneSum;
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    const std::uint32_t sum = common::lane_sum(z_hash.at(bit));
    sums_[bit] = sum;
    min_sum = std::min(min_sum, sum);
  }
  // Pass 2: compact the tail's bit indices without branching; every bit is
  // written, and the slot count advances only for tail bits.
  std::size_t n = 0;
  for (std::uint32_t bit = 0; bit < bits; ++bit) {
    tail_[n] = static_cast<std::uint16_t>(bit);
    n += sums_[bit] <= kTierLaneSum ? 1u : 0u;
  }
  const RowHash orient_hash(seed_, Stream::kOrientation, b, physical_row);
  Entry e;
  e.z_min = common::approx_normal_of_lane_sum(min_sum);
  e.tail_bit.assign(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(n));
  e.tail_z.resize(n);
  e.tail_anti.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint16_t bit = e.tail_bit[s];
    e.tail_z[s] = common::approx_normal_of_lane_sum(sums_[bit]);
    e.tail_anti[s] = common::to_unit_double(orient_hash.at(bit)) < anti_cell_fraction_ ? 1 : 0;
  }
  return e;
}

void RowFaultCache::evict_lru() {
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.last_use < victim->second.last_use) victim = it;
  }
  entries_.erase(victim);
}

}  // namespace rh::fault
