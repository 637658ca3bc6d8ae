// The fast fault kernel's memo, shared by both fault models.
//
// A cell's threshold z (the RowHammer or the retention stream) and its
// orientation are pure functions of (seed, flat bank, physical row, bit), so
// a row that settles again and again (every probe of a hammer bisection
// re-senses the same victim; every U-TRR iteration re-reads the same probe
// row) need not rehash its 8,192 cells each time. Per (flat bank, physical
// row) the cache keeps only the row's *weak tail*: the cells with
// z <= kTierZ, in bit order, with threshold and orientation per slot, plus
// the row's weakest z. A model evaluates a settle from the tail only when
// the settle's most permissive threshold is at most kTierZ (then every
// cell that can flip is in the tail) and takes its reference scan
// otherwise, so the strong cells are never needed. Entries are evicted
// least-recently-used.
//
// The build never converts a strong cell to double. It hashes each cell's
// Irwin-Hall lane sum as an integer; approx_normal is monotone in that sum,
// so `sum <= kTierLaneSum` is exactly `z <= kTierZ`. A first pass hashes
// the sums into a scratch buffer, a second compacts the tail without
// branches, and only the tail slots are converted to double and hashed for
// orientation, into vectors of exactly the tail's size.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "fault/cell_traits.hpp"
#include "fault/config.hpp"
#include "fault/context.hpp"
#include "hbm/geometry.hpp"

namespace rh::fault {

class RowFaultCache {
public:
  /// Weak-tail cut. P(z <= -1) ~ 16% under the Irwin-Hall(4) normal, so the
  /// tail carries ~1/6 of the row's cells.
  static constexpr double kTierZ = -1.0;
  /// The largest lane sum whose z is <= kTierZ.
  static constexpr std::uint32_t kTierLaneSum = common::max_lane_sum_at_most(kTierZ);

  struct Entry {
    std::vector<std::uint16_t> tail_bit;  ///< weak-tail bit indices, ascending
    std::vector<double> tail_z;           ///< threshold z per tail slot
    std::vector<std::uint8_t> tail_anti;  ///< orientation per tail slot (1 = anti cell)
    /// Weakest cell in the row; a settle whose threshold is below it flips
    /// nothing.
    double z_min = 0.0;
    std::uint64_t last_use = 0;
  };

  /// A cache of the tails of stream `threshold` (Stream::kRowHammerZ or
  /// Stream::kRetentionZ) for rows of `geometry` under `cfg`'s seed.
  RowFaultCache(const FaultConfig& cfg, const hbm::Geometry& geometry, Stream threshold);

  /// The entry of (b.flat_bank, physical_row), built on first use. The
  /// reference stays valid until the next get().
  const Entry& get(const BankContext& b, std::uint32_t physical_row);

private:
  /// Tail entries are ~14 KiB; 512 of them cover several shards' working
  /// sets (victims, aggressors, blast-radius neighbours) without LRU
  /// thrash: a fig4-style shard set touches ~140 distinct rows.
  static constexpr std::size_t kMaxEntries = 512;

  Entry build(const BankContext& b, std::uint32_t physical_row);
  void evict_lru();

  std::uint64_t seed_;
  double anti_cell_fraction_;
  Stream threshold_;
  std::uint32_t row_bits_;
  std::vector<std::uint32_t> sums_;  ///< build scratch: lane sum per bit
  std::vector<std::uint16_t> tail_;  ///< build scratch: compacted tail bits
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t tick_ = 0;
};

}  // namespace rh::fault
