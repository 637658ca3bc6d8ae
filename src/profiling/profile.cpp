#include "profiling/profile.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>

#include "common/table.hpp"

namespace rh::profiling {

namespace {

/// Every layer in name order, so write_json emits key-sorted objects
/// without a runtime sort.
constexpr std::array<Phase, telemetry::kLayerCount> kLayersByName = [] {
  std::array<Phase, telemetry::kLayerCount> out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<Phase>(i);
  std::sort(out.begin(), out.end(), [](Phase a, Phase b) { return to_string(a) < to_string(b); });
  return out;
}();

/// Phases whose device-cycle totals are a pure function of the sweep (the
/// measurement command stream). Bring-up phases (thermal settle, rig_build)
/// repeat once per worker rig, so their cycle totals scale with --jobs and
/// belong to the schedule, not the physics.
constexpr bool cycles_are_deterministic(Phase p) {
  return p == Phase::kExecute || p == Phase::kShardRun;
}

}  // namespace

void Profile::record(Phase phase, std::uint64_t device_cycles, double wall_ms,
                     std::uint64_t calls) {
  PhaseStat& s = stats_[static_cast<std::size_t>(phase)];
  s.calls += calls;
  s.device_cycles += device_cycles;
  s.wall_ms += wall_ms;
}

void Profile::merge_from(const Profile& other) {
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].calls += other.stats_[i].calls;
    stats_[i].device_cycles += other.stats_[i].device_cycles;
    stats_[i].wall_ms += other.stats_[i].wall_ms;
  }
}

void Profile::write_json(std::ostream& os, bool include_wall) const {
  os << '{';
  bool first = true;
  for (const Phase p : kLayersByName) {
    if (!is_phase(p)) continue;
    const PhaseStat& s = stat(p);
    if (!first) os << ',';
    first = false;
    os << '"' << to_string(p) << "\":{";
    if (include_wall) {
      os << "\"calls\":" << s.calls << ",\"device_cycles\":" << s.device_cycles
         << ",\"wall_ms\":" << common::fmt_double(s.wall_ms, 3);
    } else if (cycles_are_deterministic(p)) {
      os << "\"device_cycles\":" << s.device_cycles;
    }
    os << '}';
  }
  os << '}';
}

LayerScope::~LayerScope() {
  const Clock::time_point end = Clock::now();
  const std::uint64_t end_cycle = cycle_clock_ != nullptr ? *cycle_clock_ : 0;
  profile_->record(layer_, end_cycle - begin_cycle_,
                   std::chrono::duration<double, std::milli>(end - begin_).count());
  if (trace_ != nullptr) trace_->close(span_, end_cycle, end);
}

}  // namespace rh::profiling
