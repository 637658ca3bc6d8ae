// The host machine: owns the device (the "FPGA board"), the program
// executor, the global experiment clock, and the thermal rig. This is the
// top of the infrastructure stack — characterization code in src/core talks
// to a BenderHost exactly the way the paper's test programs talk to the
// modified DRAM Bender host tools over PCIe.
//
// Resilience: with a resilience::FaultInjector attached (see
// src/resilience), the host survives the infrastructure failures a real rig
// sees. Program uploads retry under a bounded RetryPolicy with exponential
// backoff (jittered, charged to wall_ms); readback drains are CRC32-framed
// so corruption and short reads are *detected* and healed by re-draining
// the FIFO; a lost doorbell (executor stall) is re-armed after a watchdog
// wait; and an injected thermal excursion trips the temperature guard,
// which pauses the experiment and re-settles the rig to within ±1 degC of
// the setpoint (the paper's stated control tolerance). Every transport
// recovery is wall-clock-only — the device clock and DRAM state are never
// touched — which is what keeps campaign results byte-identical to a
// fault-free run.
//
// Every program takes one upload -> execute -> drain sequence. Without an
// injector the transport cannot fail, so that sequence skips the guard and
// the stall draw and drains unframed: the link counts the payload bytes only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bender/executor.hpp"
#include "bender/program.hpp"
#include "bender/thermal.hpp"
#include "bender/transport.hpp"
#include "hbm/device.hpp"
#include "profiling/profile.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"

namespace rh::telemetry {
class MetricsSampler;  // stream.hpp — cycles-cadence metrics sampling
}  // namespace rh::telemetry

namespace rh::bender {

/// Host-side recovery bookkeeping, one struct per host. All counts are
/// *detections and reactions* — the fault schedule's own stats count
/// injections and how each one ended (recovered or aborted); tests assert
/// the two agree (nothing slips through silently).
struct HostResilienceStats {
  std::uint64_t detected = 0;         ///< faults observed (all kinds)
  std::uint64_t retried = 0;          ///< backoff waits charged
  std::uint64_t upload_failures = 0;  ///< timed-out or dropped uploads
  std::uint64_t crc_failures = 0;     ///< corrupt drains caught by CRC
  std::uint64_t short_reads = 0;      ///< truncated drains caught by length
  std::uint64_t stalls = 0;           ///< executor stalls caught by watchdog
  std::uint64_t reruns = 0;           ///< full idempotent program re-runs
  std::uint64_t guard_pauses = 0;     ///< temperature-guard interventions
  double retry_wait_ms = 0.0;         ///< backoff + watchdog wall time
};

class BenderHost {
public:
  explicit BenderHost(hbm::DeviceConfig device_config,
                      ThermalConfig thermal_config = ThermalConfig{});

  /// Ships `program` to the FPGA and runs it on one pseudo channel; the
  /// global clock advances by the program's duration. Returns the readback
  /// FIFO contents and timing. With a fault injector attached, transport
  /// failures are retried per the RetryPolicy; throws
  /// common::TransportError once the budget is exhausted.
  ExecutionResult run(const Program& program, std::uint32_t channel,
                      std::uint32_t pseudo_channel);

  /// Selects the program engine on the device: kFast (default) runs row
  /// bursts and fault settles through batched and cached kernels; kInterp
  /// runs them through the reference column-by-column and per-bit paths.
  /// Both step every instruction and are bit-identical by contract (see
  /// common/engine.hpp); `bug` deliberately breaks the fast path for
  /// differential-rig sensitivity tests and is ignored for kInterp.
  void set_engine(common::EngineKind kind,
                  common::PlantedBug bug = common::PlantedBug::kNone) {
    device_->set_engine(kind, bug);
  }
  [[nodiscard]] common::EngineKind engine() const { return device_->engine(); }

  /// Advances the global clock without issuing commands (host-side delay;
  /// retention keeps accruing, exactly like real wall-clock waiting).
  void idle_cycles(hbm::Cycle cycles) { now_ += cycles; }
  void idle_ms(double ms) { now_ += hbm::ms_to_cycles(ms); }

  /// Drives the thermal rig until it settles on `celsius` (the rig's PID
  /// loop runs in simulated time; the chip temperature follows the plant).
  /// Tolerates injected excursions/drift by re-settling within the budget;
  /// throws common::ThermalError naming target and actual temperature if
  /// the rig cannot settle within `timeout_s`.
  void set_chip_temperature(double celsius, double timeout_s = 600.0);

  /// Attaches the fault-injection plane (nullptr detaches). The injector
  /// must outlive the host or be detached first; it also arms the
  /// transport layer and the temperature guard.
  void set_fault_injector(resilience::FaultInjector* injector);

  /// Transport retry/backoff policy (takes effect from the next run).
  void set_retry_policy(const resilience::RetryPolicy& policy) { policy_ = policy; }
  [[nodiscard]] const resilience::RetryPolicy& retry_policy() const { return policy_; }

  /// Called when the temperature guard pauses the experiment: the chip left
  /// `band_c` of the setpoint (injected excursion, plant upset) and the
  /// host is about to re-settle before issuing further commands. The
  /// callback observes (target_c, actual_c); hammering resumes only after
  /// the rig is back inside the band. Guard checks run while a fault
  /// injector is attached.
  using TemperatureGuard = std::function<void(double target_c, double actual_c)>;
  void set_temperature_guard(TemperatureGuard guard, double band_c = 1.0) {
    guard_ = std::move(guard);
    guard_band_c_ = band_c;
  }

  /// Attaches a telemetry sink to the underlying device (nullptr detaches).
  /// The sink must outlive the host or be detached before destruction. The
  /// host also reports resilience.* counters and FAULT/RECOVERY trace
  /// events into the same sink.
  void set_telemetry(telemetry::Telemetry* sink) {
    device_->set_telemetry(sink);
    telemetry_ = sink;
  }

  /// Attaches a causal span context (nullptr detaches). Each host layer —
  /// every program's upload/execute/drain, the thermal guard and
  /// set_chip_temperature — is timed by one profiling::LayerScope, which
  /// also makes it a child span of the context's innermost open span; fault
  /// detections/recoveries become marks. The campaign attaches a per-shard
  /// context around each attempt; detached hosts pay one pointer test per
  /// layer.
  void set_trace_context(telemetry::TraceContext* ctx) { span_ctx_ = ctx; }

  /// Attaches a cycles-cadence metrics sampler (nullptr detaches). The host
  /// offers it a sampling opportunity after every program — the
  /// deterministic sites the rh-metrics-stream cycles series is built from.
  void set_cycle_sampler(telemetry::MetricsSampler* sampler) { sampler_ = sampler; }

  [[nodiscard]] const HostResilienceStats& resilience_stats() const { return stats_; }

  /// Host-layer profile: upload / execute / drain / recover / thermal
  /// accounting for every program this host has run. device_cycles totals
  /// are deterministic (pure functions of the command stream); wall_ms is
  /// real process time. The campaign runner merges each worker host's
  /// profile into the fleet profile when the rig retires.
  [[nodiscard]] const profiling::Profile& profile() const { return profile_; }

  [[nodiscard]] hbm::Cycle now() const { return now_; }
  [[nodiscard]] hbm::Device& device() { return *device_; }
  [[nodiscard]] const hbm::Device& device() const { return *device_; }
  [[nodiscard]] ThermalRig& thermal() { return thermal_; }
  [[nodiscard]] PcieLink& link() { return link_; }

  /// Host-side wall-clock estimate, milliseconds: DRAM program time + idle
  /// waits + PCIe transfer time for uploads/readbacks + retry backoff and
  /// watchdog waits. The PCIe share is what makes batching probes into
  /// programs worthwhile on real hardware; the retry share is the price of
  /// surviving a lossy link.
  [[nodiscard]] double wall_ms() const {
    return hbm::cycles_to_ms(now_) + link_.busy_ms() + stats_.retry_wait_ms;
  }

private:
  /// Uploads `bytes` with bounded retries; throws TransportError when the
  /// attempt budget runs out.
  void upload_with_retry(std::size_t bytes, std::uint64_t op, std::uint32_t channel,
                         std::uint32_t pseudo_channel);
  /// CRC-framed FIFO drain with bounded re-drains. Returns false when the
  /// budget is exhausted without an intact frame (readback left pristine —
  /// the executor's copy is authoritative; the wire copy is what faults).
  bool download_with_verify(const std::vector<std::uint8_t>& readback, std::uint64_t op,
                            std::uint32_t channel, std::uint32_t pseudo_channel);
  /// Thermal fault opportunities + out-of-band re-settle (guard).
  void enforce_temperature_guard(std::uint32_t channel, std::uint32_t pseudo_channel);
  /// Plant steps in `timeout_s` of simulated time: a settle budget.
  [[nodiscard]] long settle_steps(double timeout_s) const;
  /// The one PID settle loop, shared by set_chip_temperature and the
  /// guard: steps the plant until it settles, spending `steps` from the
  /// caller's budget. Returns true once settled, false when the budget ran
  /// out.
  bool settle_loop(long& steps);

  void fault_detected(resilience::FaultKind kind, std::uint32_t channel,
                      std::uint32_t pseudo_channel);
  void fault_recovered(resilience::FaultKind kind, std::uint32_t channel,
                       std::uint32_t pseudo_channel, const std::string& detail);
  void fault_aborted(resilience::FaultKind kind, std::uint32_t channel,
                     std::uint32_t pseudo_channel, const std::string& detail);
  /// Charges one backoff wait (wall clock only) for retry `attempt` of `op`.
  void charge_backoff(std::uint64_t op, unsigned attempt);

  std::unique_ptr<hbm::Device> device_;
  Executor executor_;
  ThermalRig thermal_;
  PcieLink link_;
  hbm::Cycle now_ = 0;

  resilience::FaultInjector* injector_ = nullptr;
  resilience::RetryPolicy policy_;
  profiling::Profile profile_;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::TraceContext* span_ctx_ = nullptr;
  telemetry::MetricsSampler* sampler_ = nullptr;
  TemperatureGuard guard_;
  double guard_band_c_ = 1.0;
  HostResilienceStats stats_;
  std::uint64_t op_serial_ = 0;
};

}  // namespace rh::bender
