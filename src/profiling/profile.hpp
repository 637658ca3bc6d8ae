// Layer-level profiling for the simulator stack: where does a campaign's
// time actually go?
//
// Every layer accounts two *independent* clocks:
//   - device_cycles — simulated interface-clock cycles consumed while the
//     layer was open. This is physics: it is a pure function of the command
//     stream, so totals are byte-identical across --jobs counts, reruns, and
//     machines (the determinism test pins this).
//   - wall_ms — real host-process time (steady_clock). This is engineering:
//     it depends on the machine, the scheduler, and the build, and is what
//     the perf gate tracks. Wall fields are therefore *excluded* from
//     every byte-identity check and from the deterministic report view.
//
// The layers are telemetry::Layer (see DESIGN.md §10); Phase names the same
// enum. A Profile keeps the host and campaign groups:
//   host     — upload / execute / drain / recover / thermal: one
//              BenderHost's program pipeline. Device cycles advance only
//              in execute (programs) and thermal (PID settle).
//   campaign — rig_build / shard_run / checkpoint / idle / report: the rig
//              pool. shard_run *contains* the host layers of the programs
//              it ran, so each group sums to ~the run's total on its own
//              axis; do not add the two groups together.
//
// LayerScope is the one way to time a layer as it runs: it reads the clock
// once at each end, adds the call, cycles and wall time to a Profile, and
// records the span through an attached TraceContext. Profile::record is for
// the computed layers only (rig_build, shard_run, idle, and the calls-only
// recover count).
//
// Threading model mirrors MetricsRegistry: each worker owns a private
// Profile and the campaign merges them (merge_from) under its completion
// lock; a Profile itself is not thread-safe.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "telemetry/span.hpp"

namespace rh::profiling {

using Phase = telemetry::Layer;

/// True for the layers a Profile reports: the host and campaign groups.
[[nodiscard]] constexpr bool is_phase(Phase layer) {
  return telemetry::group(layer) == "host" || telemetry::group(layer) == "campaign";
}

struct PhaseStat {
  std::uint64_t calls = 0;
  std::uint64_t device_cycles = 0;
  double wall_ms = 0.0;
};

/// Per-thread layer accumulator. Fleet aggregation follows the
/// MetricsRegistry pattern: workers each fill their own and the owner calls
/// merge_from once they are joined.
class Profile {
public:
  void record(Phase phase, std::uint64_t device_cycles, double wall_ms,
              std::uint64_t calls = 1);

  [[nodiscard]] const PhaseStat& stat(Phase phase) const {
    return stats_[static_cast<std::size_t>(phase)];
  }

  /// Adds every layer's calls/cycles/wall from `other`.
  void merge_from(const Profile& other);

  /// One key-sorted JSON object, {"checkpoint":{"calls":..,...},...}, every
  /// phase always present so documents diff cleanly. include_wall=false
  /// keeps only the device_cycles of execute and shard_run — the projection
  /// that is byte-identical across schedules. Everything else is dropped:
  /// wall_ms is host time, call counts depend on which worker got which
  /// shard, and bring-up cycles (rig_build, thermal) repeat once per worker
  /// rig, so all of them vary with --jobs.
  void write_json(std::ostream& os, bool include_wall = true) const;

private:
  std::array<PhaseStat, telemetry::kLayerCount> stats_{};
};

/// RAII layer timer: opens `layer` at construction and records it at
/// destruction, a throw's unwinding included. `cycle_clock` may point at
/// the owning host's simulated clock (null -> cycle 0); it is sampled at
/// both ends, so layers that advance simulated time (execute, thermal)
/// report the cycles they consumed and their spans carry the host clock.
/// With a `trace` context attached the layer is also a span, while the
/// context's per-attempt budget allows; the profile always counts it.
class LayerScope {
public:
  using Clock = telemetry::TraceContext::Clock;

  LayerScope(Profile& profile, Phase layer, const std::uint64_t* cycle_clock = nullptr,
             telemetry::TraceContext* trace = nullptr)
      : profile_(&profile),
        trace_(trace),
        cycle_clock_(cycle_clock),
        layer_(layer),
        begin_cycle_(cycle_clock != nullptr ? *cycle_clock : 0),
        begin_(Clock::now()) {
    if (trace_ != nullptr) span_ = trace_->open(layer_, begin_cycle_, begin_);
  }

  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

  ~LayerScope();

private:
  Profile* profile_;
  telemetry::TraceContext* trace_;
  const std::uint64_t* cycle_clock_;
  Phase layer_;
  std::uint64_t begin_cycle_;
  Clock::time_point begin_;
  std::uint64_t span_ = 0;
};

}  // namespace rh::profiling
