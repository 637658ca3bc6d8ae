// Engine selection for the simulation stack.
//
// Both engines run every Bender program through one interpreter
// (bender::Executor) and must be bit-for-bit indistinguishable from the
// outside:
//
//   kInterp — the reference: the executor steps every instruction, with no
//             decode, and the fault model re-derives each cell's threshold
//             on every row settle. Slow, simple, the ground truth.
//   kFast   — the production engine: the executor also decodes
//             fast-forwardable loops up front and retires them in closed
//             form, replaying their device commands through the same
//             dispatch, and the fault kernel evaluates rows from a per-row
//             sorted threshold cache. Every observable (reports, journals,
//             metrics streams, flip sets, error strings) must match kInterp
//             exactly at the same seed; tests/engine_diff_test.cpp and the
//             verify::Property campaign identities enforce the contract.
//
// PlantedBug deliberately breaks the fast path in one of the three ways the
// closed-form math most plausibly goes wrong, so the differential rig can
// prove it *would* catch a real regression (the same pattern as rh_fuzz's
// --disable-rule knob for the timing oracle). Device::set_engine arms a bug
// only under kFast.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"

namespace rh::common {

enum class EngineKind : std::uint8_t {
  kFast,    ///< loop fast-forward + cached fault kernel (default)
  kInterp,  ///< reference interpreter
};

enum class PlantedBug : std::uint8_t {
  kNone,
  /// Loop fast-forward replays one iteration too few (but still advances
  /// registers, clock, and instruction count as if it ran them all).
  kOffByOneFastForward,
  /// The batched hammer macro-op skips the TRR sampler observation of the
  /// second aggressor row.
  kSkipTrrSample,
  /// The batched hammer macro-op forgets that each aggressor's final ACT
  /// re-settles it, leaving stale disturbance on the aggressor rows.
  kStaleDisturbanceFlush,
};

[[nodiscard]] constexpr std::string_view to_string(EngineKind kind) {
  return kind == EngineKind::kFast ? "fast" : "interp";
}

[[nodiscard]] constexpr std::string_view to_string(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kOffByOneFastForward: return "off-by-one-fast-forward";
    case PlantedBug::kSkipTrrSample: return "skip-trr-sample";
    case PlantedBug::kStaleDisturbanceFlush: return "stale-disturbance-flush";
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
       {PlantedBug::kNone, PlantedBug::kOffByOneFastForward, PlantedBug::kSkipTrrSample,
        PlantedBug::kStaleDisturbanceFlush}) {
    if (text == to_string(bug)) return bug;
  }
  throw ConfigError("unknown engine bug '" + std::string(text) +
                    "' (expected none|off-by-one-fast-forward|skip-trr-sample|"
                    "stale-disturbance-flush)");
}

}  // namespace rh::common
