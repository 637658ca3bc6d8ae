// Addressing structures. Rows carry *logical* (memory-controller-visible)
// indices everywhere in the host-facing API; the device applies its internal
// logical->physical scrambling (see scramble.hpp) at the row decoder, exactly
// like real silicon. Host-side code that needs physical adjacency must
// reverse engineer the mapping (core/row_mapper), as the paper does (§3.1).
#pragma once

#include <compare>
#include <cstdint>

#include "hbm/geometry.hpp"

namespace rh::hbm {

/// Identifies one bank within the stack.
struct BankAddress {
  std::uint32_t channel = 0;
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;

  auto operator<=>(const BankAddress&) const = default;

  /// Flat index in [0, geometry.total_banks()).
  [[nodiscard]] std::uint32_t flat_index(const Geometry& g) const {
    return (channel * g.pseudo_channels_per_channel + pseudo_channel) *
               g.banks_per_pseudo_channel +
           bank;
  }

  [[nodiscard]] bool valid(const Geometry& g) const {
    return channel < g.channels && pseudo_channel < g.pseudo_channels_per_channel &&
           bank < g.banks_per_pseudo_channel;
  }
};

/// Identifies one row (logical index) within a bank.
struct RowAddress {
  BankAddress bank;
  std::uint32_t row = 0;

  auto operator<=>(const RowAddress&) const = default;

  [[nodiscard]] bool valid(const Geometry& g) const {
    return bank.valid(g) && row < g.rows_per_bank;
  }
};

}  // namespace rh::hbm
