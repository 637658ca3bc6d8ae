// Host <-> FPGA transport model (the PCIe link of Fig. 2).
//
// DRAM Bender ships programs and pattern registers to the FPGA over PCIe and
// drains the readback FIFO the same way. The link does not consume *DRAM*
// time (the FPGA runs programs autonomously), but it dominates host-side
// wall clock for short programs — a real effect when iterating millions of
// small probes, and the reason the infrastructure batches work into
// programs instead of issuing single commands from the host.
//
// The model: fixed per-transfer latency plus bytes/bandwidth, with counters
// for profiling the host-side cost of an experiment campaign.
//
// Fallibility: with a resilience::FaultInjector attached, the link becomes
// the fault plane's transport layer. Uploads can time out (watchdog cost) or
// drop (data sent, ack lost); FIFO drains can arrive bit-corrupted or as a
// strict prefix (short read). Corruption and short reads are *silent at this
// layer* — exactly like real DMA — and are detected above by the host's
// CRC-framed readback check. Accounting invariant (pinned by
// transport_test): every attempt, failed or not, charges its wall-clock
// cost to busy_ms exactly once; `uploads`/`upload_bytes` count only
// delivered transfers, `failed_uploads` counts the rest; `downloads` counts
// every drain performed (the DMA happened even if the payload is garbage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "resilience/fault.hpp"

namespace rh::bender {

struct PcieConfig {
  /// Effective host->FPGA / FPGA->host throughput (GiB/s). Gen3 x8 class.
  double bandwidth_gib_s = 6.0;
  /// Per-transfer setup latency (microseconds): doorbell + DMA descriptor.
  double latency_us = 25.0;
  /// Watchdog budget a timed-out transfer burns before the host gives up
  /// on the attempt (milliseconds of host wall clock).
  double timeout_ms = 250.0;
};

/// Transport-level verdict of one transfer attempt. Corrupted / short
/// downloads report kOk here: the wire cannot tell; the CRC frame can.
enum class TransferStatus : std::uint8_t {
  kOk = 0,
  kTimeout,  ///< DMA never completed; the watchdog expired
  kDropped,  ///< data transmitted but the completion ack was lost
};

struct TransferOutcome {
  TransferStatus status = TransferStatus::kOk;
  /// Host wall-clock this attempt cost (already added to busy_ms).
  double wall_ms = 0.0;
  /// Bytes that actually arrived (downloads; 0 for failed uploads).
  std::size_t bytes = 0;

  [[nodiscard]] bool ok() const { return status == TransferStatus::kOk; }
};

class PcieLink {
public:
  /// Payload bits one corrupt drain flips (the CRC-32 frame detects any
  /// 1..3-bit error).
  static constexpr std::uint32_t kCorruptBits = 3;

  explicit PcieLink(const PcieConfig& config = PcieConfig{}) : config_(config) {}

  /// Attaches the fault plane (nullptr detaches; transfers then always
  /// succeed, which is the zero-overhead default path).
  void set_fault_injector(resilience::FaultInjector* injector) { injector_ = injector; }

  /// Wall-clock milliseconds one transfer of `bytes` takes.
  [[nodiscard]] double transfer_ms(std::size_t bytes) const {
    const double data_ms =
        static_cast<double>(bytes) / (config_.bandwidth_gib_s * 1024.0 * 1024.0 * 1024.0) * 1e3;
    return config_.latency_us * 1e-3 + data_ms;
  }

  /// One host->FPGA transfer attempt (program upload, wide registers).
  /// Consults the fault plane; a timeout burns the watchdog budget, a drop
  /// burns the full transfer time. Either way the cost lands on busy_ms
  /// exactly once and the attempt is tallied as failed.
  TransferOutcome upload(std::size_t bytes) {
    if (injector_ != nullptr && injector_->should_fire(resilience::FaultKind::kUploadTimeout)) {
      ++failed_uploads_;
      busy_ms_ += config_.timeout_ms;
      return {TransferStatus::kTimeout, config_.timeout_ms, 0};
    }
    if (injector_ != nullptr && injector_->should_fire(resilience::FaultKind::kUploadDrop)) {
      const double ms = transfer_ms(bytes);
      ++failed_uploads_;
      busy_ms_ += ms;
      return {TransferStatus::kDropped, ms, 0};
    }
    return {TransferStatus::kOk, record_upload(bytes), bytes};
  }

  /// One FPGA->host readback drain of `frame` into `out`. The fault plane
  /// may truncate the delivery (short read) or flip payload bits
  /// (corruption); both are silent here and surface as a CRC/length
  /// mismatch in the host's frame check. Each drain is one download whose
  /// cost is charged once.
  TransferOutcome download(std::span<const std::uint8_t> frame, std::vector<std::uint8_t>& out) {
    out.assign(frame.begin(), frame.end());
    bool faulted = false;
    if (injector_ != nullptr && !out.empty() &&
        injector_->should_fire(resilience::FaultKind::kReadbackShortRead)) {
      // The DMA ended early: deliver a strict prefix.
      out.resize(injector_->shape() % out.size());
      faulted = true;
    } else if (injector_ != nullptr && !out.empty() &&
               injector_->should_fire(resilience::FaultKind::kReadbackCorrupt)) {
      for (std::uint32_t i = 0; i < kCorruptBits; ++i) {
        const std::uint64_t bit = injector_->shape() % (out.size() * 8);
        out[bit / 8] = static_cast<std::uint8_t>(out[bit / 8] ^ (1u << (bit % 8)));
      }
      faulted = true;
    }
    if (faulted) ++faulted_downloads_;
    return {TransferStatus::kOk, record_download(out.size()), out.size()};
  }

  /// Records an infallible host->FPGA transfer (the no-injector fast path).
  double record_upload(std::size_t bytes) {
    ++uploads_;
    upload_bytes_ += bytes;
    const double ms = transfer_ms(bytes);
    busy_ms_ += ms;
    return ms;
  }

  /// Records an infallible FPGA->host transfer (readback FIFO drain).
  double record_download(std::size_t bytes) {
    ++downloads_;
    download_bytes_ += bytes;
    const double ms = transfer_ms(bytes);
    busy_ms_ += ms;
    return ms;
  }

  [[nodiscard]] std::uint64_t uploads() const { return uploads_; }
  [[nodiscard]] std::uint64_t downloads() const { return downloads_; }
  [[nodiscard]] std::uint64_t upload_bytes() const { return upload_bytes_; }
  [[nodiscard]] std::uint64_t download_bytes() const { return download_bytes_; }
  /// Upload attempts that timed out or dropped (injected faults).
  [[nodiscard]] std::uint64_t failed_uploads() const { return failed_uploads_; }
  /// Drains delivered with injected corruption or truncation.
  [[nodiscard]] std::uint64_t faulted_downloads() const { return faulted_downloads_; }
  /// Total link-busy wall time, milliseconds (includes failed attempts).
  [[nodiscard]] double busy_ms() const { return busy_ms_; }

  [[nodiscard]] const PcieConfig& config() const { return config_; }

private:
  PcieConfig config_;
  resilience::FaultInjector* injector_ = nullptr;
  std::uint64_t uploads_ = 0;
  std::uint64_t downloads_ = 0;
  std::uint64_t upload_bytes_ = 0;
  std::uint64_t download_bytes_ = 0;
  std::uint64_t failed_uploads_ = 0;
  std::uint64_t faulted_downloads_ = 0;
  double busy_ms_ = 0.0;
};

}  // namespace rh::bender
