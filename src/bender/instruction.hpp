// The DRAM Bender program ISA.
//
// DRAM Bender (arXiv'22) exposes the DRAM command bus to a small in-FPGA
// program so experimenters control command order and spacing at interface-
// clock granularity. We model the same idea: a register machine whose
// instructions either issue DRAM commands, move/compare scalar registers,
// or advance time.
//
// Execution timing: every instruction occupies exactly one interface-clock
// cycle at issue; SLEEP occupies 1 + imm cycles; the HAMMER macro-ops occupy
// the cycles their unrolled ACT/PRE streams would (count * per-hammer
// period); the row bursts WRROW / RDROW issue their first column at their
// own cycle and one more every imm cycles, occupying
// (columns - 1) * imm + 1 cycles (bender::row_burst_cycles). The executor
// never inserts spacing on its own — programs that violate DRAM timing
// raise TimingError, which is the point: the paper's methodology depends
// on precise, verified command schedules.
//
// HAMMER / HAMMER_SINGLE are macro-ops for the innermost hammer loops:
// semantically identical to the equivalent ACT+PRE loop (a test proves the
// equivalence) but executed in O(1) simulator work instead of O(count).
// WRROW / RDROW are the same idea for the row initialization and readback
// around every hammer: one instruction per row sweep instead of one WR or
// RD (plus the LDI feeding its column register) per column. Each column
// is still a timed, counted and traced command at the cycle the unrolled
// stream would have issued it.
#pragma once

#include <cstdint>
#include <string_view>

namespace rh::bender {

enum class Opcode : std::uint8_t {
  kNop,
  kLdi,     ///< rd <- imm
  kAddi,    ///< rd <- rs1 + imm (two's complement)
  kBlt,     ///< if regs[rs1] < regs[rs2] jump to instruction index imm
  kJmp,     ///< jump to instruction index imm
  kAct,     ///< ACT bank, row = regs[rs1]
  kPre,     ///< PRE bank
  kPreA,    ///< PREA (all banks in the pseudo channel)
  kWr,      ///< WR bank, column = regs[rs1], data = wide[wide][col slice]
  kRd,      ///< RD bank, column = regs[rs1]; pushes a burst to the readback FIFO
  kWrRow,   ///< WRROW bank: every column of the open row from wide[wide], in
            ///< column order, one column every imm cycles
  kRdRow,   ///< RDROW bank: every column of the open row to the readback
            ///< FIFO, in column order, one column every imm cycles
  kRef,     ///< REF (this pseudo channel)
  kMrs,     ///< mode register rd <- imm (channel-level)
  kSleep,   ///< advance time by imm extra cycles
  kHammer,  ///< imm hammers: ACT/PRE pairs alternating rows regs[rs1], regs[rs2];
            ///< imm2 = aggressor on-time in cycles (0 = minimal)
  kHammerSingle,  ///< imm single-sided hammers of row regs[rs1]; imm2 = on-time
  kSrEnter,  ///< self-refresh entry (all banks must be precharged)
  kSrExit,   ///< self-refresh exit
  kEnd,      ///< stop execution
};

[[nodiscard]] constexpr std::string_view to_string(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "NOP";
    case Opcode::kLdi: return "LDI";
    case Opcode::kAddi: return "ADDI";
    case Opcode::kBlt: return "BLT";
    case Opcode::kJmp: return "JMP";
    case Opcode::kAct: return "ACT";
    case Opcode::kPre: return "PRE";
    case Opcode::kPreA: return "PREA";
    case Opcode::kWr: return "WR";
    case Opcode::kRd: return "RD";
    case Opcode::kWrRow: return "WRROW";
    case Opcode::kRdRow: return "RDROW";
    case Opcode::kRef: return "REF";
    case Opcode::kMrs: return "MRS";
    case Opcode::kSleep: return "SLEEP";
    case Opcode::kHammer: return "HAMMER";
    case Opcode::kHammerSingle: return "HAMMERS";
    case Opcode::kSrEnter: return "SRE";
    case Opcode::kSrExit: return "SRX";
    case Opcode::kEnd: return "END";
  }
  return "?";
}

/// One decoded instruction. Fields are used per-opcode as documented above;
/// unused fields must be zero (Program::validate enforces ranges).
struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t rd = 0;    ///< destination register / MR index
  std::uint8_t rs1 = 0;   ///< source register 1
  std::uint8_t rs2 = 0;   ///< source register 2
  std::uint8_t bank = 0;  ///< bank operand for DRAM commands
  std::uint8_t wide = 0;  ///< wide (pattern) register for WR / WRROW
  std::int64_t imm = 0;   ///< immediate / jump target / hammer count / column spacing
  std::int64_t imm2 = 0;  ///< secondary immediate (hammer on-time)
};

/// Register file sizes.
inline constexpr std::uint32_t kScalarRegisters = 32;
inline constexpr std::uint32_t kWideRegisters = 8;

}  // namespace rh::bender
