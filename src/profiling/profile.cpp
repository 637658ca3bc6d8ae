#include "profiling/profile.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>

#include "common/table.hpp"

namespace rh::profiling {

namespace {

/// Phase indices in sorted-name order, so write_json emits key-sorted
/// objects without a runtime sort.
constexpr std::array<Phase, kPhaseCount> kSortedPhases = {
    Phase::kCheckpoint, Phase::kDrain,    Phase::kExecute, Phase::kIdle,
    Phase::kRecover,    Phase::kReport,   Phase::kRigBuild, Phase::kShardRun,
    Phase::kThermal,    Phase::kUpload,
};

static_assert(kSortedPhases.size() == kPhaseCount);

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

double Profile::total_wall_ms() const {
  double total = 0.0;
  for (const auto& s : stats_) total += s.wall_ms;
  return total;
}

void Profile::merge_from(const Profile& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    stats_[i].calls += other.stats_[i].calls;
    stats_[i].device_cycles += other.stats_[i].device_cycles;
    stats_[i].wall_ms += other.stats_[i].wall_ms;
  }
}

void Profile::reset() { stats_.fill(PhaseStat{}); }

void Profile::write_json(std::ostream& os, bool include_wall) const {
  os << '{';
  bool first = true;
  for (const Phase p : kSortedPhases) {
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

void PhaseTimer::stop() {
  if (stopped_) return;
  stopped_ = true;
  const auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
          .count();
  const std::uint64_t cycles =
      cycle_clock_ != nullptr ? *cycle_clock_ - start_cycles_ : 0;
  profile_->record(phase_, cycles, elapsed);
}

}  // namespace rh::profiling
