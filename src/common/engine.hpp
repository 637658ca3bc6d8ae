// Engine selection for the simulation stack.
//
// Both engines run every Bender program through one interpreter
// (bender::Executor), which steps every instruction on both, and must be
// bit-for-bit indistinguishable from the outside:
//
//   kInterp — the reference: the executor issues a row burst (WRROW /
//             RDROW) column by column through Device::write / read, both
//             fault models (RowHammer and retention) re-derive each cell's
//             threshold on every row settle, and every REF sweep settles
//             every swept row. Slow, simple, the ground truth.
//   kFast   — the production engine: the executor hands each row burst to
//             one Device::write_row / read_row kernel, both fault models
//             evaluate a settle from the row's cached weak tail
//             (fault/row_fault_cache.hpp: the cells with z <= kTierZ, in
//             strength order) whenever the settle's threshold lies inside
//             it, and a REF sweep settles only the rows with pending state.
//             Every observable (reports, journals, metrics streams, flip
//             sets, error strings) must match kInterp exactly at the same
//             seed; tests/engine_diff_test.cpp and the verify::Property
//             campaign identities enforce the contract.
//
// PlantedBug deliberately breaks a batched fast-path kernel in one of the
// three ways it most plausibly goes wrong, so the differential rig can
// prove it *would* catch a real regression (the same pattern as rh_fuzz's
// --disable-rule knob for the timing oracle). Device::set_engine arms a
// bug only under kFast.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"

namespace rh::common {

enum class EngineKind : std::uint8_t {
  kFast,    ///< row-burst and cached fault kernels (default)
  kInterp,  ///< reference interpreter
};

enum class PlantedBug : std::uint8_t {
  kNone,
  /// The batched hammer macro-op skips the TRR sampler observation of the
  /// second aggressor row.
  kSkipTrrSample,
  /// The batched hammer macro-op forgets that each aggressor's final ACT
  /// re-settles it, leaving stale disturbance on the aggressor rows.
  kStaleDisturbanceFlush,
  /// The batched row-burst kernel (WRROW / RDROW) moves one column fewer
  /// than it checks, counts and traces.
  kShortRowBurst,
};

[[nodiscard]] constexpr std::string_view to_string(EngineKind kind) {
  return kind == EngineKind::kFast ? "fast" : "interp";
}

[[nodiscard]] constexpr std::string_view to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kSkipTrrSample: return "skip-trr-sample";
    case PlantedBug::kStaleDisturbanceFlush: return "stale-disturbance-flush";
    case PlantedBug::kShortRowBurst: return "short-row-burst";
    case PlantedBug::kNone: break;
  }
  return "none";
}

[[nodiscard]] inline EngineKind parse_engine_kind(std::string_view text) {
  if (text == "fast") return EngineKind::kFast;
  if (text == "interp") return EngineKind::kInterp;
  throw ConfigError("unknown engine '" + std::string(text) + "' (expected fast|interp)");
}

[[nodiscard]] inline PlantedBug parse_planted_bug(std::string_view text) {
  for (const PlantedBug bug :
       {PlantedBug::kNone, PlantedBug::kSkipTrrSample, PlantedBug::kStaleDisturbanceFlush,
        PlantedBug::kShortRowBurst}) {
    if (text == to_string(bug)) return bug;
  }
  throw ConfigError("unknown engine bug '" + std::string(text) +
                    "' (expected none|skip-trr-sample|stale-disturbance-flush|"
                    "short-row-burst)");
}

}  // namespace rh::common
