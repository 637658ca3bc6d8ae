// The fast fault kernel's memo, shared by both fault models.
//
// A cell's threshold z (the RowHammer or the retention stream) and its
// orientation are pure functions of (seed, flat bank, physical row, bit), so
// a row that settles again and again (every probe of a hammer bisection
// re-senses the same victim; every U-TRR iteration re-reads the same probe
// row) need not rehash its 8,192 cells each time. Per (flat bank, physical
// row) the cache keeps only the row's *weak tail*: the cells with
// z <= kTierZ, in strength order (weakest first). A model evaluates a
// settle from the tail only when the settle's most permissive threshold is
// at most kTierZ (then every cell that can flip is in the tail) and takes
// its reference scan otherwise, so the strong cells are never needed.
//
// Slots. z is a monotone function of the cell's integer Irwin-Hall lane sum
// (common::lane_sum), so a tail cell is one packed 32-bit slot,
//     lane sum << 15 | bit << 1 | orientation (1 = anti cell).
// Tail sums are at most kTierLaneSum < 2^17 and a row has at most 2^14
// bits, so `slot <= slot_cap(s)` holds exactly when the slot's sum is
// <= s: a model turns its threshold into one integer cap per settle
// (common::max_lane_sum_at_most, or max_lane_sum_below for a strict
// compare), compares raw slots against it and converts a sum to z only for
// the slots under it. The tail is sorted by slot, i.e. by lane sum and then
// bit, so the cells under a cap are a prefix of it: a settle walks only
// its candidates and stops at the first slot above the cap, and
// slots.front() is the row's weakest cell.
//
// The build hashes lane sums one fixed 64-cell block at a time, in one
// function that also returns the block's tail as a bit mask, so the scalar
// code visits only tail cells: it hashes their orientation and appends
// their slots in bit order, and one stable two-pass radix sort over the
// 17-bit lane sum puts them in slot order. No cell becomes a double. On
// x86-64 GCC builds the block function is compiled as target_clones for
// x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and the baseline, and the loader
// picks one per CPU; the constant trip count lets GCC vectorize the v4 and
// v3 clones at -O2 as well as -O3 (the baseline's SSE2 gains nothing on
// this hash). Other compilers and targets, and ThreadSanitizer builds (a
// GCC 12 TSan binary with a cloned function crashes at start-up), compile
// one plain version.
//
// Entries sit on a least-recently-used list: a hit moves its node to the
// front and a miss past kMaxEntries recycles the back node, both O(1), so
// the next build fills the evicted row's slot storage.
#pragma once

#include <cstdint>
#include <list>
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
  /// Cells per hashing block; a row's bits are a multiple of it.
  static constexpr std::uint32_t kBlockCells = 64;

  struct Entry {
    /// Weak-tail cells, one packed slot each, in ascending slot order
    /// (lane sum first, then bit): weakest first.
    std::vector<std::uint32_t> slots;
  };

  /// The slot of a tail cell (sum at most kTierLaneSum, bit below 2^14);
  /// a larger sum overflows its field.
  static constexpr std::uint32_t make_slot(std::uint32_t sum, std::uint32_t bit, bool anti) {
    return sum << kSumShift | bit << 1 | (anti ? 1u : 0u);
  }
  static constexpr std::uint32_t slot_sum(std::uint32_t slot) { return slot >> kSumShift; }
  static constexpr std::uint32_t slot_bit(std::uint32_t slot) { return (slot >> 1) & kBitMask; }
  static constexpr bool slot_anti(std::uint32_t slot) { return (slot & 1u) != 0; }
  /// The largest slot whose lane sum is `sum` (at most kTierLaneSum).
  static constexpr std::uint32_t slot_cap(std::uint32_t sum) {
    return make_slot(sum, kBitMask, true);
  }

  /// A cache of the tails of stream `threshold` (Stream::kRowHammerZ or
  /// Stream::kRetentionZ) for rows of `geometry` under `cfg`'s seed.
  RowFaultCache(const FaultConfig& cfg, const hbm::Geometry& geometry, Stream threshold);

  /// The entry of (b.flat_bank, physical_row), built on first use. The
  /// reference stays valid until the next get().
  const Entry& get(const BankContext& b, std::uint32_t physical_row);

private:
  static constexpr std::uint32_t kSumShift = 15;
  static constexpr std::uint32_t kBitMask = (1u << (kSumShift - 1)) - 1;
  static_assert(kTierLaneSum < (1u << (32 - kSumShift)), "a tail sum fits its slot field");
  /// The strength sort's two radix digits: the low and the high bits of
  /// the 32 - kSumShift = 17-bit lane sum.
  static constexpr std::uint32_t kLowDigitBits = 9;
  static constexpr std::uint32_t kHighDigitBits = 32 - kSumShift - kLowDigitBits;

  /// Tail entries are ~5.4 KiB (vector capacity up to 8 KiB); 512 of them
  /// cover several shards' working sets (victims, aggressors, blast-radius
  /// neighbours) without LRU thrash: a fig4-style shard set touches ~140
  /// distinct rows.
  static constexpr std::size_t kMaxEntries = 512;

  struct Node {
    std::uint64_t key = 0;
    Entry entry;
  };

  void build(Entry& e, const BankContext& b, std::uint32_t physical_row);
  /// Stably sorts bit-ordered `slots` by lane sum, which leaves them in
  /// ascending slot order.
  void sort_by_strength(std::vector<std::uint32_t>& slots);

  std::uint64_t seed_;
  double anti_cell_fraction_;
  Stream threshold_;
  std::uint32_t row_bits_;
  std::vector<std::uint32_t> sort_scratch_;  ///< the radix sort's middle pass
  std::list<Node> lru_;                      ///< most recently used first
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> index_;
};

}  // namespace rh::fault
