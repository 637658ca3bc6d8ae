#include "fault/row_fault_cache.hpp"

#include <array>
#include <bit>
#include <iterator>

#include "common/assert.hpp"

// The block hash's ISA clones (see the header comment): x86-64 GCC only, and
// not under ThreadSanitizer.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define RH_BLOCK_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define RH_BLOCK_CLONES
#endif

namespace rh::fault {

static_assert(common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum) <=
                      RowFaultCache::kTierZ &&
                  common::approx_normal_of_lane_sum(RowFaultCache::kTierLaneSum + 1) >
                      RowFaultCache::kTierZ,
              "the integer tail cut must be the z cut");

namespace {

/// Bit k of a block's tail mask, as a table: GCC vectorizes a table load at
/// -O2, where it leaves a variable shift scalar.
constexpr auto kCellBit = [] {
  std::array<std::uint64_t, RowFaultCache::kBlockCells> bits{};
  for (std::uint32_t k = 0; k < RowFaultCache::kBlockCells; ++k) bits[k] = std::uint64_t{1} << k;
  return bits;
}();

/// Hashes cells first .. first + kBlockCells - 1 of the row whose hash
/// cursor is `base`: writes each cell's slot without its orientation to
/// `slots` (a strong cell's sum overflows its field; it is never read) and
/// returns the mask of the block's cells whose sum is at most `cut` (bit k
/// for cell first + k).
RH_BLOCK_CLONES std::uint64_t block_tail(std::uint64_t base, std::uint32_t first,
                                         std::uint32_t cut, std::uint32_t* slots) {
  std::uint64_t tail = 0;
  for (std::uint32_t k = 0; k < RowFaultCache::kBlockCells; ++k) {
    const std::uint32_t sum = common::lane_sum(common::hash_combine(base, first + k));
    slots[k] = RowFaultCache::make_slot(sum, first + k, false);
    tail |= sum <= cut ? kCellBit[k] : 0;
  }
  return tail;
}

}  // namespace

RowFaultCache::RowFaultCache(const FaultConfig& cfg, const hbm::Geometry& geometry,
                             Stream threshold)
    : seed_(cfg.seed),
      anti_cell_fraction_(cfg.anti_cell_fraction),
      threshold_(threshold),
      row_bits_(geometry.row_bits()) {
  RH_EXPECTS(row_bits_ <= kBitMask + 1);     // a bit index fits its slot field
  RH_EXPECTS(row_bits_ % kBlockCells == 0);  // the build hashes whole blocks
}

const RowFaultCache::Entry& RowFaultCache::get(const BankContext& b, std::uint32_t physical_row,
                                               std::uint32_t cap) {
  RH_EXPECTS(cap <= kTierLaneSum);  // a tail sum fits its slot field
  const std::uint64_t key = (static_cast<std::uint64_t>(b.flat_bank) << 32) | physical_row;
  const auto found = index_.find(key);
  if (found != index_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    Entry& e = found->second->entry;
    if (cap > e.cut) build(e, b, physical_row, cap);
    return e;
  }
  if (lru_.size() < kMaxEntries) {
    lru_.emplace_front();
  } else {
    // Recycle the least recently used node, slot storage and all.
    index_.erase(lru_.back().key);
    lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
  }
  Node& node = lru_.front();
  node.key = key;
  build(node.entry, b, physical_row, cap);
  index_.emplace(key, lru_.begin());
  return node.entry;
}

void RowFaultCache::build(Entry& e, const BankContext& b, std::uint32_t physical_row,
                          std::uint32_t cut) {
  const RowHash z_hash(seed_, threshold_, b, physical_row);
  const RowHash orient_hash(seed_, Stream::kOrientation, b, physical_row);
  std::array<std::uint32_t, kBlockCells> slots{};
  // The tail is appended to the entry's own vector: a recycled or deepened
  // node keeps its capacity, so a rebuild allocates only when its tail
  // outgrows every earlier one the node held.
  e.cut = cut;
  e.slots.clear();
  for (std::uint32_t first = 0; first < row_bits_; first += kBlockCells) {
    // Only the block's tail cells get a slot and an orientation hash.
    for (std::uint64_t tail = block_tail(z_hash.base, first, cut, slots.data()); tail != 0;
         tail &= tail - 1) {
      const std::uint32_t slot = slots[static_cast<std::size_t>(std::countr_zero(tail))];
      const bool anti =
          common::to_unit_double(orient_hash.at(slot_bit(slot))) < anti_cell_fraction_;
      e.slots.push_back(slot | (anti ? 1u : 0u));
    }
  }
}

}  // namespace rh::fault
