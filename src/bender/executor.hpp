// The FPGA-side program executor: the one Bender interpreter.
//
// Runs one Bender program against one pseudo channel of the device, with the
// exact cycle accounting the ProgramBuilder assumes: one cycle per
// instruction, 1+imm for SLEEP, and the unrolled-equivalent duration for the
// HAMMER macro-ops and the WRROW / RDROW row bursts. Collects RD bursts into
// a readback FIFO that the host drains after the run (the PCIe DMA path of
// the real infrastructure).
//
// Both engines (common/engine.hpp) run through this interpreter and step
// every instruction, loops included; it reads the engine from
// Device::engine() at one place only, the row burst. kInterp issues a row
// burst column by column through Device::write / read; kFast hands it to one
// Device::write_row / read_row kernel. So results, device side effects and
// error strings are the same on both engines.
#pragma once

#include <cstdint>
#include <vector>

#include "bender/program.hpp"
#include "hbm/device.hpp"

namespace rh::bender {

/// Per-run command mix, filled by the executor on every successful run.
/// ACTs include the unrolled equivalents of HAMMER macro-ops, so the mix
/// matches what real silicon would have seen.
struct RunMetrics {
  std::uint64_t acts = 0;
  std::uint64_t precharges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t mode_register_writes = 0;

  /// Host-side (simulator) execution time of the run.
  double host_seconds = 0.0;
};

struct ExecutionResult {
  /// RD bursts in program order, bytes_per_column each.
  std::vector<std::uint8_t> readback;
  hbm::Cycle start_cycle = 0;
  hbm::Cycle end_cycle = 0;
  std::uint64_t instructions_executed = 0;
  /// Command mix and host time of this run.
  RunMetrics metrics;

  [[nodiscard]] hbm::Cycle cycles() const { return end_cycle - start_cycle; }
  [[nodiscard]] double elapsed_ms() const { return hbm::cycles_to_ms(cycles()); }
};

class Executor {
public:
  explicit Executor(hbm::Device& device) : device_(&device) {}

  /// Executes `program` on (channel, pseudo_channel), with the global clock
  /// starting at `start`. Throws ProgramError if the instruction budget is
  /// exceeded (runaway loop) and propagates device Timing/Protocol errors;
  /// propagated rh::common::Errors carry executed-instruction count, program
  /// counter, the offending instruction's disassembly, and the cycle as
  /// attached context, so failed runs are diagnosable from what() alone.
  ExecutionResult run(const Program& program, std::uint32_t channel,
                      std::uint32_t pseudo_channel, hbm::Cycle start,
                      std::uint64_t instruction_budget = 100'000'000);

private:
  hbm::Device* device_;
};

}  // namespace rh::bender
