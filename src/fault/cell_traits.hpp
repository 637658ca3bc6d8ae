// Per-cell immutable traits, derived statelessly from the master seed.
//
// Each DRAM cell owns:
//   - an orientation: "true cell" (charged state stores 1) or "anti cell"
//     (charged state stores 0). DRAM arrays mix both; which logical value is
//     vulnerable to charge loss depends on it, which is the root of the
//     data-pattern dependence the paper reports (Table 1 patterns).
//   - a standard-normal deviate z used by both the RowHammer threshold
//     (lognormal via exp(sigma*z)) and the retention model (separate hash
//     stream).
//
// Hash-stream separation: each consumer mixes a distinct stream constant into
// the seed so RowHammer thresholds, retention times, orientation, and default
// (power-on) data are mutually independent.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "fault/context.hpp"

namespace rh::fault {

/// Hash-stream discriminators.
enum class Stream : std::uint64_t {
  kOrientation = 0x0f1e2d3c4b5a6978ULL,
  kRowHammerZ = 0x1badb002deadbeefULL,
  kRetentionZ = 0x2c0ffee123456789ULL,
  kDefaultData = 0x3d15ea5e00c0ffeeULL,
  kRowJitter = 0x4a11ce0fba5eba11ULL,
  kBankJitter = 0x5ca1ab1e0ddba11eULL,
  kChannelJitter = 0x6eedfacecafef00dULL,
};

[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t master, Stream s) {
  return common::splitmix64(master ^ static_cast<std::uint64_t>(s));
}

/// Per-row hash cursor under stream `s`: folds (stream seed, flat bank,
/// physical row) once, then derives each cell's hash with a single combine,
/// so a row scan costs one SplitMix64 evaluation per cell and stream.
struct RowHash {
  std::uint64_t base;

  RowHash(std::uint64_t master, Stream s, const BankContext& b, std::uint32_t physical_row)
      : base(common::hash_combine(common::hash_combine(stream_seed(master, s), b.flat_bank),
                                  physical_row)) {}

  [[nodiscard]] std::uint64_t at(std::uint64_t index) const {
    return common::hash_combine(base, index);
  }
};

/// Per-cell hash for (bank, physical row, bit) under stream `s`: the hash
/// the models' row scans derive with RowHash, so a trait queried here
/// matches what apply() used internally.
[[nodiscard]] inline std::uint64_t cell_hash(std::uint64_t master, Stream s, const BankContext& b,
                                             std::uint32_t physical_row, std::uint32_t bit) {
  return RowHash(master, s, b, physical_row).at(bit);
}

/// True if the cell is an anti cell (charged state stores logical 0).
[[nodiscard]] inline bool is_anti_cell(std::uint64_t master, const BankContext& b,
                                       std::uint32_t physical_row, std::uint32_t bit,
                                       double anti_fraction) {
  const std::uint64_t h = cell_hash(master, Stream::kOrientation, b, physical_row, bit);
  return common::to_unit_double(h) < anti_fraction;
}

/// Fills `out` with the row's power-on (never-written) content: fixed
/// pseudo-random bytes, deterministic in (seed, bank, row). Real DRAM
/// powers on with effectively random but stable data; experiments always
/// initialize rows before use, but neighbour rows fetched for coupling may
/// be unwritten.
inline void fill_default_data(std::uint64_t master, const BankContext& b,
                              std::uint32_t physical_row, std::span<std::uint8_t> out) {
  const RowHash hash(master, Stream::kDefaultData, b, physical_row);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(hash.at(i) & 0xffu);
  }
}

}  // namespace rh::fault
