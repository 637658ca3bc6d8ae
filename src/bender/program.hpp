// Bender programs and the ProgramBuilder.
//
// A Program is the unit the host ships to the FPGA: an instruction sequence
// plus the preloaded wide (pattern) registers. The ProgramBuilder provides
// raw per-instruction emission, labels for loops, and — crucially — timing-
// aware high-level emitters (init_row / read_row / hammer loops) that insert
// the SLEEP spacing the device's timing checker demands. The builder tracks
// virtual time exactly as the executor will account it, so the spacing is
// minimal, not conservative guesswork.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bender/instruction.hpp"
#include "hbm/geometry.hpp"
#include "hbm/timing.hpp"

namespace rh::bender {

class Program {
public:
  Program() = default;

  [[nodiscard]] const std::vector<Instruction>& instructions() const { return code_; }
  [[nodiscard]] std::span<const std::uint8_t> wide_register(std::uint32_t idx) const;

  /// Preloads a full row image into wide register `idx` (host-side DMA in
  /// real DRAM Bender). `data` must be row_bytes long.
  void set_wide_register(std::uint32_t idx, std::vector<std::uint8_t> data);

  /// Structural validation: register/bank/wide indices in range, jump
  /// targets inside the program, terminated by END, sane immediates.
  /// Throws ProgramError on violations.
  void validate(const hbm::Geometry& geometry) const;

  /// Appends a raw instruction (builder back-end).
  void push(const Instruction& instruction) { code_.push_back(instruction); }

private:
  std::vector<Instruction> code_;
  std::vector<std::vector<std::uint8_t>> wide_{kWideRegisters};
};

/// Reference to an instruction index, used as a branch target.
struct Label {
  std::size_t index = 0;
};

class ProgramBuilder {
public:
  ProgramBuilder(const hbm::Geometry& geometry, const hbm::TimingParams& timings);

  // --- raw emission (each returns *this for chaining) -------------------
  ProgramBuilder& nop();
  ProgramBuilder& ldi(std::uint8_t rd, std::int64_t imm);
  ProgramBuilder& addi(std::uint8_t rd, std::uint8_t rs1, std::int64_t imm);
  ProgramBuilder& blt(std::uint8_t rs1, std::uint8_t rs2, Label target);
  ProgramBuilder& jmp(Label target);
  ProgramBuilder& act(std::uint8_t bank, std::uint8_t row_reg);
  ProgramBuilder& pre(std::uint8_t bank);
  ProgramBuilder& prea();
  ProgramBuilder& wr(std::uint8_t bank, std::uint8_t col_reg, std::uint8_t wide_reg);
  ProgramBuilder& rd(std::uint8_t bank, std::uint8_t col_reg);
  ProgramBuilder& ref();
  ProgramBuilder& mrs(std::uint8_t mode_register, std::int64_t value);
  ProgramBuilder& sleep(std::int64_t cycles);
  ProgramBuilder& hammer(std::uint8_t bank, std::uint8_t row_a_reg, std::uint8_t row_b_reg,
                         std::int64_t count, std::int64_t on_time = 0);
  ProgramBuilder& hammer_single(std::uint8_t bank, std::uint8_t row_reg, std::int64_t count,
                                std::int64_t on_time = 0);
  /// Self-refresh entry / exit; stay inside by sleeping between the two.
  ProgramBuilder& sr_enter();
  ProgramBuilder& sr_exit();
  ProgramBuilder& end();

  /// Current instruction index, usable as a backward branch target.
  [[nodiscard]] Label here() const;

  // --- timing-aware high-level emitters ---------------------------------
  /// Opens `row`, writes the full image from `wide_reg` across all columns,
  /// and precharges — with minimal legal spacing. Uses scratch registers
  /// r30/r31.
  ProgramBuilder& init_row(std::uint8_t bank, std::uint32_t row, std::uint8_t wide_reg);
  /// Opens `row`, reads every column to the readback FIFO, precharges.
  /// Uses scratch registers r30/r31.
  ProgramBuilder& read_row(std::uint8_t bank, std::uint32_t row);
  /// Refreshes the row once (ACT + PRE with minimal spacing).
  ProgramBuilder& touch_row(std::uint8_t bank, std::uint32_t row);
  /// Emits an *unrolled-loop* double-sided hammer (raw ACT/PRE stream with a
  /// register loop, no macro-op) — used to validate macro-op equivalence and
  /// by tests. On-time per activation is max(tRAS, on_time).
  ProgramBuilder& hammer_loop_raw(std::uint8_t bank, std::uint32_t row_a, std::uint32_t row_b,
                                  std::uint32_t count, std::int64_t on_time = 0);

  /// Virtual cycles the program consumes so far (exact executor accounting).
  [[nodiscard]] hbm::Cycle virtual_cycles() const { return t_; }

  /// Per-hammer period for a given on-time: the executor charges this per
  /// ACT+PRE pair.
  [[nodiscard]] hbm::Cycle hammer_period(std::int64_t on_time) const;

  /// Finalizes: appends END if missing, validates, and returns the program.
  [[nodiscard]] Program take();

  /// Access to the program being built (e.g. to preload wide registers).
  [[nodiscard]] Program& program() { return program_; }

private:
  ProgramBuilder& emit(const Instruction& instruction, hbm::Cycle cycles);
  /// Pads with one NOP or SLEEP until virtual time reaches `target`.
  void pad_until(hbm::Cycle target);
  /// Shared body of init_row / read_row: opens `row`, issues `op` (WR from
  /// `wide_reg`, or RD) to every column with minimal spacing, precharges.
  ProgramBuilder& sweep_columns(std::uint8_t bank, std::uint32_t row, Opcode op,
                                std::uint8_t wide_reg);

  hbm::Geometry geometry_;
  hbm::TimingParams timings_;
  Program program_;
  hbm::Cycle t_ = 0;
  bool ended_ = false;
};

/// True when the host may transparently re-run the whole program as a
/// recovery action: no instruction writes DRAM contents or device mode
/// state (WR, HAMMER*, REF, MRS, self-refresh). Re-running a read-only
/// program re-reads the same cells — the way the real rig recovers a lost
/// readback — at the cost of extra activations, which the methodology
/// already tolerates as measurement noise. Anything stateful must instead
/// surface a TransportError and let the campaign re-measure the shard on a
/// fresh host.
[[nodiscard]] bool is_idempotent(const Program& program);

/// Human-readable one-line rendering of one instruction, e.g.
/// "ACT  b3, row=r31" — for debugging and program dumps.
[[nodiscard]] std::string disassemble(const Instruction& instruction);

/// Disassembles a whole program: one "<index>: <text>" line per instruction.
[[nodiscard]] std::vector<std::string> disassemble(const Program& program);

}  // namespace rh::bender
