#include "bender/host.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "resilience/crc32.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stream.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::bender {

namespace {

using resilience::FaultKind;

std::string fmt_celsius(double c) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << c;
  return os.str();
}

/// Readback frame layout: [payload_len u32 LE][crc32 u32 LE][payload].
constexpr std::size_t kFrameHeaderBytes = 8;

void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t load_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) | (static_cast<std::uint32_t>(in[3]) << 24);
}

std::vector<std::uint8_t> make_frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
  store_u32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  store_u32(frame.data() + 4, resilience::crc32(payload));
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderBytes);
  return frame;
}

/// True when the drained frame is intact: full length arrived, the header's
/// length matches, and the payload CRC verifies.
bool frame_intact(const std::vector<std::uint8_t>& wire, std::size_t expected_bytes) {
  if (wire.size() != expected_bytes || wire.size() < kFrameHeaderBytes) return false;
  const std::uint32_t len = load_u32(wire.data());
  if (len != wire.size() - kFrameHeaderBytes) return false;
  const std::uint32_t crc = load_u32(wire.data() + 4);
  const std::span<const std::uint8_t> payload(wire.data() + kFrameHeaderBytes, len);
  return resilience::crc32(payload) == crc;
}

std::size_t program_upload_bytes(const Program& program) {
  std::size_t upload = program.instructions().size() * sizeof(Instruction);
  for (std::uint32_t w = 0; w < kWideRegisters; ++w) {
    upload += program.wide_register(w).size();
  }
  return upload;
}

}  // namespace

BenderHost::BenderHost(hbm::DeviceConfig device_config, ThermalConfig thermal_config)
    : device_(std::make_unique<hbm::Device>(std::move(device_config))),
      executor_(*device_),
      thermal_(thermal_config) {
  // The rig starts at ambient; the device config's initial temperature is
  // honoured until the first set_chip_temperature call.
  thermal_.set_target(device_->temperature());
  // The fast engine is the production default; set_engine(kInterp) restores
  // the reference interpreter (the differential rig runs both).
  device_->set_engine(common::EngineKind::kFast);
}

void BenderHost::set_fault_injector(resilience::FaultInjector* injector) {
  injector_ = injector;
  link_.set_fault_injector(injector);
}

void BenderHost::fault_detected(FaultKind kind, std::uint32_t channel,
                                std::uint32_t pseudo_channel) {
  ++stats_.detected;
  RH_TELEM(telemetry_, metrics().counter("resilience.detected").add());
  RH_TELEM(telemetry_, on_command(telemetry::TraceCommand::kFault, now_, channel,
                                  pseudo_channel, 0, 0, static_cast<std::uint32_t>(kind)));
  if (span_ctx_ != nullptr) {
    span_ctx_->mark(telemetry::SpanKind::kFault, now_, static_cast<std::uint32_t>(kind));
  }
}

void BenderHost::fault_recovered(FaultKind kind, std::uint32_t channel,
                                 std::uint32_t pseudo_channel, const std::string& detail) {
  ++stats_.recovered;
  // Calls-only: the wall time of the retry is already charged to the phase
  // (upload/drain/thermal) whose timer was open when the fault fired.
  profile_.record(profiling::Phase::kRecover, 0, 0.0);
  injector_->note_recovered(kind, detail);
  RH_TELEM(telemetry_, metrics().counter("resilience.recovered").add());
  RH_TELEM(telemetry_, on_command(telemetry::TraceCommand::kRecovery, now_, channel,
                                  pseudo_channel, 0, 0, static_cast<std::uint32_t>(kind)));
  if (span_ctx_ != nullptr) {
    span_ctx_->mark(telemetry::SpanKind::kRecovery, now_, static_cast<std::uint32_t>(kind));
  }
}

void BenderHost::fault_aborted(FaultKind kind, std::uint32_t channel,
                               std::uint32_t pseudo_channel, const std::string& detail) {
  ++stats_.aborted;
  injector_->note_aborted(kind, detail);
  RH_TELEM(telemetry_, metrics().counter("resilience.aborted").add());
  RH_TELEM(telemetry_, on_command(telemetry::TraceCommand::kRecovery, now_, channel,
                                  pseudo_channel, 0, 0, static_cast<std::uint32_t>(kind)));
  if (span_ctx_ != nullptr) {
    span_ctx_->mark(telemetry::SpanKind::kRecovery, now_, static_cast<std::uint32_t>(kind));
  }
}

void BenderHost::charge_backoff(std::uint64_t op, unsigned attempt) {
  ++stats_.retried;
  stats_.retry_wait_ms += resilience::backoff_ms(policy_, op, attempt);
  RH_TELEM(telemetry_, metrics().counter("resilience.retried").add());
}

void BenderHost::upload_with_retry(std::size_t bytes, std::uint64_t op, std::uint32_t channel,
                                   std::uint32_t pseudo_channel) {
  const unsigned budget = std::max(1u, policy_.max_attempts);
  for (unsigned attempt = 1; attempt <= budget; ++attempt) {
    const TransferOutcome outcome = link_.upload(bytes);
    if (outcome.ok()) return;
    const FaultKind kind = outcome.status == TransferStatus::kTimeout
                               ? FaultKind::kUploadTimeout
                               : FaultKind::kUploadDrop;
    ++stats_.upload_failures;
    fault_detected(kind, channel, pseudo_channel);
    if (attempt >= budget) {
      fault_aborted(kind, channel, pseudo_channel,
                    "upload budget exhausted after " + std::to_string(budget) + " attempts");
      throw common::TransportError("PCIe upload of " + std::to_string(bytes) +
                                   " bytes failed after " + std::to_string(budget) +
                                   " attempts (last: " +
                                   std::string(to_string(kind)) + ")");
    }
    charge_backoff(op, attempt);
    fault_recovered(kind, channel, pseudo_channel,
                    "re-upload, attempt " + std::to_string(attempt + 1) + "/" +
                        std::to_string(budget));
  }
}

bool BenderHost::download_with_verify(const std::vector<std::uint8_t>& readback,
                                      std::uint64_t op, std::uint32_t channel,
                                      std::uint32_t pseudo_channel) {
  const std::vector<std::uint8_t> frame = make_frame(readback);
  const unsigned budget = std::max(1u, policy_.max_attempts);
  std::vector<std::uint8_t> wire;
  for (unsigned attempt = 1; attempt <= budget; ++attempt) {
    (void)link_.download(frame, wire);
    if (frame_intact(wire, frame.size())) return true;
    // Either the CRC caught flipped bits or the drain came up short. Both
    // are detected — never silently absorbed — and the FIFO still holds
    // the data, so a re-drain is always safe.
    const bool short_read = wire.size() != frame.size();
    if (short_read) {
      ++stats_.short_reads;
    } else {
      ++stats_.crc_failures;
    }
    const FaultKind kind =
        short_read ? FaultKind::kReadbackShortRead : FaultKind::kReadbackCorrupt;
    fault_detected(kind, channel, pseudo_channel);
    if (attempt >= budget) {
      fault_aborted(kind, channel, pseudo_channel,
                    "drain budget exhausted after " + std::to_string(budget) + " attempts");
      return false;
    }
    charge_backoff(op, attempt);
    fault_recovered(kind, channel, pseudo_channel,
                    "re-drain, attempt " + std::to_string(attempt + 1) + "/" +
                        std::to_string(budget));
  }
  return false;
}

ExecutionResult BenderHost::run(const Program& program, std::uint32_t channel,
                                std::uint32_t pseudo_channel) {
  if (injector_ != nullptr) enforce_temperature_guard(channel, pseudo_channel);
  const std::size_t upload = program_upload_bytes(program);
  const std::uint64_t op = op_serial_++;
  const unsigned budget = std::max(1u, policy_.max_attempts);

  for (unsigned run_attempt = 1;; ++run_attempt) {
    {
      const profiling::PhaseTimer timer(profile_, profiling::Phase::kUpload);
      const telemetry::SpanScope span(span_ctx_, telemetry::SpanKind::kUpload, &now_);
      upload_with_retry(upload, op, channel, pseudo_channel);
    }

    if (injector_ != nullptr && injector_->should_fire(FaultKind::kExecutorStall)) {
      // The doorbell was lost: the program never started, so no DRAM
      // command was issued and a re-ship is unconditionally safe. The
      // watchdog wait is host wall time only.
      ++stats_.stalls;
      fault_detected(FaultKind::kExecutorStall, channel, pseudo_channel);
      stats_.retry_wait_ms += link_.config().timeout_ms;
      if (run_attempt >= budget) {
        fault_aborted(FaultKind::kExecutorStall, channel, pseudo_channel,
                      "watchdog budget exhausted after " + std::to_string(budget) +
                          " attempts");
        throw common::TransportError("executor stalled (doorbell lost) " +
                                     std::to_string(budget) + " times; giving up");
      }
      charge_backoff(op, run_attempt);
      fault_recovered(FaultKind::kExecutorStall, channel, pseudo_channel,
                      "doorbell re-armed, attempt " + std::to_string(run_attempt + 1) + "/" +
                          std::to_string(budget));
      continue;
    }

    // The executor already timed itself, so the execute phase reuses
    // RunMetrics instead of a second clock pair.
    std::uint64_t exec_span = 0;
    if (span_ctx_ != nullptr) exec_span = span_ctx_->open(telemetry::SpanKind::kExecute, now_);
    ExecutionResult result = executor_.run(program, channel, pseudo_channel, now_);
    now_ = result.end_cycle;
    if (span_ctx_ != nullptr) span_ctx_->close(exec_span, now_);
    profile_.record(profiling::Phase::kExecute, result.cycles(),
                    result.metrics.host_seconds * 1e3);

    // The executor's FIFO copy is authoritative; what faults is the wire
    // copy. A verified drain therefore returns the pristine readback.
    bool drained = true;
    if (!result.readback.empty()) {
      const profiling::PhaseTimer timer(profile_, profiling::Phase::kDrain);
      const telemetry::SpanScope span(span_ctx_, telemetry::SpanKind::kDrain, &now_);
      if (injector_ == nullptr) {
        link_.record_download(result.readback.size());
      } else {
        drained = download_with_verify(result.readback, op, channel, pseudo_channel);
      }
    }
    if (drained) {
      if (sampler_ != nullptr) sampler_->sample_if_due(now_);
      return result;
    }

    // Drain budget exhausted. The last resort is a full re-run, and only
    // for programs that cannot change stored DRAM or mode state —
    // re-running a hammer probe would re-hammer the victim and corrupt the
    // measurement, so stateful programs surface a TransportError and the
    // campaign re-measures the shard on a fresh host instead.
    if (!is_idempotent(program) || run_attempt >= budget) {
      throw common::TransportError(
          "readback unrecoverable after " + std::to_string(budget) + " drains" +
          (is_idempotent(program) ? " and " + std::to_string(run_attempt) + " re-runs"
                                  : "; program is not idempotent, re-run refused"));
    }
    ++stats_.reruns;
    RH_TELEM(telemetry_, metrics().counter("resilience.reruns").add());
  }
}

bool BenderHost::settle_loop(double timeout_s) {
  const double dt = thermal_.config().dt_s;
  const auto max_steps = static_cast<long>(timeout_s / dt);
  for (long step = 0; step < max_steps; ++step) {
    thermal_.step();
    idle_cycles(hbm::ms_to_cycles(dt * 1e3));
    device_->set_temperature(thermal_.temperature());
    if (thermal_.settled()) return true;
  }
  return false;
}

void BenderHost::enforce_temperature_guard(std::uint32_t channel,
                                           std::uint32_t pseudo_channel) {
  // Any re-settle consumes simulated time, so the thermal phase samples the
  // device clock alongside the wall clock.
  const profiling::PhaseTimer timer(profile_, profiling::Phase::kThermal, &now_);
  const telemetry::SpanScope span(span_ctx_, telemetry::SpanKind::kThermal, &now_);
  // One thermal-fault opportunity per program launch.
  bool excursion = false;
  if (injector_->should_fire(FaultKind::kThermalExcursion)) {
    excursion = true;
    const double sign = (injector_->shape() & 1u) != 0 ? 1.0 : -1.0;
    thermal_.perturb(sign * injector_->plan().excursion_c);
    device_->set_temperature(thermal_.temperature());
    fault_detected(FaultKind::kThermalExcursion, channel, pseudo_channel);
  }
  if (injector_->should_fire(FaultKind::kThermalDrift)) {
    const double sign = (injector_->shape() & 1u) != 0 ? 1.0 : -1.0;
    thermal_.shift_ambient(sign * injector_->plan().drift_c);
    fault_detected(FaultKind::kThermalDrift, channel, pseudo_channel);
    // Drift does not move the chip out of band by itself; the PID simply
    // holds the setpoint against the shifted ambient from now on.
    fault_recovered(FaultKind::kThermalDrift, channel, pseudo_channel,
                    "PID holds setpoint against shifted ambient");
  }

  const double target = thermal_.target();
  if (std::abs(device_->temperature() - target) <= guard_band_c_) {
    if (excursion) {
      fault_recovered(FaultKind::kThermalExcursion, channel, pseudo_channel,
                      "excursion stayed within the guard band");
    }
    return;
  }

  // The chip left the control band: pause the experiment (callback), then
  // re-settle before issuing any further commands. Re-settling consumes
  // simulated time — retention keeps accruing — exactly as it would on the
  // real rig; that is the physical cost of a thermal upset.
  ++stats_.guard_pauses;
  RH_TELEM(telemetry_, metrics().counter("resilience.guard_pauses").add());
  if (guard_) guard_(target, device_->temperature());
  if (!settle_loop(600.0)) {
    if (excursion) {
      fault_aborted(FaultKind::kThermalExcursion, channel, pseudo_channel,
                    "rig failed to re-settle");
    }
    throw common::ThermalError("temperature guard could not re-settle the rig: target " +
                               fmt_celsius(target) + " degC, actual " +
                               fmt_celsius(device_->temperature()) + " degC");
  }
  if (excursion) {
    fault_recovered(FaultKind::kThermalExcursion, channel, pseudo_channel,
                    "re-settled within guard band");
  }
}

void BenderHost::set_chip_temperature(double celsius, double timeout_s) {
  const profiling::PhaseTimer timer(profile_, profiling::Phase::kThermal, &now_);
  thermal_.set_target(celsius);
  // One thermal-fault opportunity per settle request: an excursion fires
  // after the first convergence (forcing a re-settle inside the same
  // budget); drift shifts the plant's ambient before the climb.
  bool excursion_pending =
      injector_ != nullptr && injector_->should_fire(FaultKind::kThermalExcursion);
  bool excursion_fired = false;
  if (injector_ != nullptr && injector_->should_fire(FaultKind::kThermalDrift)) {
    const double sign = (injector_->shape() & 1u) != 0 ? 1.0 : -1.0;
    thermal_.shift_ambient(sign * injector_->plan().drift_c);
    fault_detected(FaultKind::kThermalDrift, 0, 0);
    fault_recovered(FaultKind::kThermalDrift, 0, 0,
                    "PID settles against shifted ambient");
  }

  const double dt = thermal_.config().dt_s;
  const auto max_steps = static_cast<long>(timeout_s / dt);
  for (long step = 0; step < max_steps; ++step) {
    thermal_.step();
    idle_cycles(hbm::ms_to_cycles(dt * 1e3));
    device_->set_temperature(thermal_.temperature());
    if (thermal_.settled()) {
      if (excursion_pending) {
        excursion_pending = false;
        excursion_fired = true;
        const double sign = (injector_->shape() & 1u) != 0 ? 1.0 : -1.0;
        thermal_.perturb(sign * injector_->plan().excursion_c);
        device_->set_temperature(thermal_.temperature());
        fault_detected(FaultKind::kThermalExcursion, 0, 0);
        continue;  // re-settle within the remaining budget
      }
      if (excursion_fired) {
        fault_recovered(FaultKind::kThermalExcursion, 0, 0,
                        "re-settled after mid-settle excursion");
      }
      return;
    }
  }
  if (excursion_pending || excursion_fired) {
    // The injection already sits pending in the log (should_fire records
    // at draw time); close it out before surfacing the failure.
    fault_aborted(FaultKind::kThermalExcursion, 0, 0, "settle budget exhausted");
  }
  throw common::ThermalError("thermal rig failed to settle: target " + fmt_celsius(celsius) +
                             " degC, actual " + fmt_celsius(thermal_.temperature()) +
                             " degC after " + fmt_celsius(timeout_s) + " s");
}

}  // namespace rh::bender
