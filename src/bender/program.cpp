#include "bender/program.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace rh::bender {

std::span<const std::uint8_t> Program::wide_register(std::uint32_t idx) const {
  RH_EXPECTS(idx < kWideRegisters);
  return wide_[idx];
}

void Program::set_wide_register(std::uint32_t idx, std::vector<std::uint8_t> data) {
  RH_EXPECTS(idx < kWideRegisters);
  wide_[idx] = std::move(data);
}

void Program::validate(const hbm::Geometry& geometry) const {
  if (code_.empty()) throw common::ProgramError("empty program");
  bool has_end = false;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instruction& ins = code_[i];
    const auto fail = [&](const std::string& why) {
      throw common::ProgramError("instruction " + std::to_string(i) + " (" +
                                 std::string(to_string(ins.op)) + "): " + why);
    };
    if (ins.rd >= kScalarRegisters && ins.op != Opcode::kMrs) fail("rd out of range");
    if (ins.rs1 >= kScalarRegisters) fail("rs1 out of range");
    if (ins.rs2 >= kScalarRegisters) fail("rs2 out of range");
    switch (ins.op) {
      case Opcode::kAct:
      case Opcode::kPre:
      case Opcode::kWr:
      case Opcode::kRd:
      case Opcode::kWrRow:
      case Opcode::kRdRow:
      case Opcode::kHammer:
      case Opcode::kHammerSingle:
        if (ins.bank >= geometry.banks_per_pseudo_channel) fail("bank out of range");
        break;
      default:
        break;
    }
    switch (ins.op) {
      case Opcode::kWr:
      case Opcode::kWrRow:
        if (ins.wide >= kWideRegisters) fail("wide register out of range");
        if (wide_[ins.wide].size() != geometry.row_bytes()) {
          fail("wide register not preloaded with a full row image");
        }
        if (ins.op == Opcode::kWrRow && ins.imm < 1) fail("column spacing needs at least 1 cycle");
        break;
      case Opcode::kRdRow:
        if (ins.imm < 1) fail("column spacing needs at least 1 cycle");
        break;
      case Opcode::kBlt:
      case Opcode::kJmp:
        if (ins.imm < 0 || static_cast<std::size_t>(ins.imm) >= code_.size()) {
          fail("jump target out of range");
        }
        break;
      case Opcode::kSleep:
        if (ins.imm < 1) fail("sleep needs at least 1 cycle");
        break;
      case Opcode::kHammer:
      case Opcode::kHammerSingle:
        if (ins.imm < 0) fail("negative hammer count");
        if (ins.imm2 < 0) fail("negative on-time");
        break;
      case Opcode::kMrs:
        if (ins.rd >= 16) fail("mode register index out of range");
        if (ins.imm < 0 || ins.imm > 0xff) fail("mode register value out of range");
        break;
      case Opcode::kEnd:
        has_end = true;
        break;
      default:
        break;
    }
  }
  if (!has_end) throw common::ProgramError("program lacks END");
}

ProgramBuilder::ProgramBuilder(const hbm::Geometry& geometry, const hbm::TimingParams& timings)
    : geometry_(geometry), timings_(timings) {}

ProgramBuilder& ProgramBuilder::emit(const Instruction& instruction, hbm::Cycle cycles) {
  RH_EXPECTS(!ended_);
  program_.push(instruction);
  t_ += cycles;
  return *this;
}

ProgramBuilder& ProgramBuilder::nop() { return emit({.op = Opcode::kNop}, 1); }

ProgramBuilder& ProgramBuilder::ldi(std::uint8_t rd, std::int64_t imm) {
  return emit({.op = Opcode::kLdi, .rd = rd, .imm = imm}, 1);
}

ProgramBuilder& ProgramBuilder::addi(std::uint8_t rd, std::uint8_t rs1, std::int64_t imm) {
  return emit({.op = Opcode::kAddi, .rd = rd, .rs1 = rs1, .imm = imm}, 1);
}

ProgramBuilder& ProgramBuilder::blt(std::uint8_t rs1, std::uint8_t rs2, Label target) {
  return emit({.op = Opcode::kBlt, .rs1 = rs1, .rs2 = rs2,
               .imm = static_cast<std::int64_t>(target.index)},
              1);
}

ProgramBuilder& ProgramBuilder::jmp(Label target) {
  return emit({.op = Opcode::kJmp, .imm = static_cast<std::int64_t>(target.index)}, 1);
}

ProgramBuilder& ProgramBuilder::act(std::uint8_t bank, std::uint8_t row_reg) {
  return emit({.op = Opcode::kAct, .rs1 = row_reg, .bank = bank}, 1);
}

ProgramBuilder& ProgramBuilder::pre(std::uint8_t bank) {
  return emit({.op = Opcode::kPre, .bank = bank}, 1);
}

ProgramBuilder& ProgramBuilder::prea() { return emit({.op = Opcode::kPreA}, 1); }

ProgramBuilder& ProgramBuilder::wr(std::uint8_t bank, std::uint8_t col_reg,
                                   std::uint8_t wide_reg) {
  return emit({.op = Opcode::kWr, .rs1 = col_reg, .bank = bank, .wide = wide_reg}, 1);
}

ProgramBuilder& ProgramBuilder::rd(std::uint8_t bank, std::uint8_t col_reg) {
  return emit({.op = Opcode::kRd, .rs1 = col_reg, .bank = bank}, 1);
}

hbm::Cycle row_burst_cycles(const hbm::Geometry& geometry, std::int64_t spacing) {
  return static_cast<hbm::Cycle>(geometry.columns_per_row - 1) * static_cast<hbm::Cycle>(spacing) +
         1;
}

ProgramBuilder& ProgramBuilder::wr_row(std::uint8_t bank, std::uint8_t wide_reg,
                                       std::int64_t spacing) {
  return emit({.op = Opcode::kWrRow, .bank = bank, .wide = wide_reg, .imm = spacing},
              row_burst_cycles(geometry_, spacing));
}

ProgramBuilder& ProgramBuilder::rd_row(std::uint8_t bank, std::int64_t spacing) {
  return emit({.op = Opcode::kRdRow, .bank = bank, .imm = spacing},
              row_burst_cycles(geometry_, spacing));
}

ProgramBuilder& ProgramBuilder::ref() { return emit({.op = Opcode::kRef}, 1); }

ProgramBuilder& ProgramBuilder::mrs(std::uint8_t mode_register, std::int64_t value) {
  return emit({.op = Opcode::kMrs, .rd = mode_register, .imm = value}, 1);
}

ProgramBuilder& ProgramBuilder::sleep(std::int64_t cycles) {
  RH_EXPECTS(cycles >= 1);
  return emit({.op = Opcode::kSleep, .imm = cycles}, 1 + static_cast<hbm::Cycle>(cycles));
}

hbm::Cycle ProgramBuilder::hammer_period(std::int64_t on_time) const {
  const hbm::Cycle on = std::max<hbm::Cycle>(static_cast<hbm::Cycle>(on_time), timings_.tRAS);
  return std::max(timings_.tRC, on + timings_.tRP);
}

ProgramBuilder& ProgramBuilder::hammer(std::uint8_t bank, std::uint8_t row_a_reg,
                                       std::uint8_t row_b_reg, std::int64_t count,
                                       std::int64_t on_time) {
  const hbm::Cycle cycles =
      static_cast<hbm::Cycle>(count) * 2 * hammer_period(on_time);
  return emit({.op = Opcode::kHammer, .rs1 = row_a_reg, .rs2 = row_b_reg, .bank = bank,
               .imm = count, .imm2 = on_time},
              cycles);
}

ProgramBuilder& ProgramBuilder::hammer_single(std::uint8_t bank, std::uint8_t row_reg,
                                              std::int64_t count, std::int64_t on_time) {
  const hbm::Cycle cycles = static_cast<hbm::Cycle>(count) * hammer_period(on_time);
  return emit({.op = Opcode::kHammerSingle, .rs1 = row_reg, .bank = bank, .imm = count,
               .imm2 = on_time},
              cycles);
}

ProgramBuilder& ProgramBuilder::sr_enter() { return emit({.op = Opcode::kSrEnter}, 1); }

ProgramBuilder& ProgramBuilder::sr_exit() { return emit({.op = Opcode::kSrExit}, 1); }

ProgramBuilder& ProgramBuilder::end() {
  emit({.op = Opcode::kEnd}, 1);
  ended_ = true;
  return *this;
}

Label ProgramBuilder::here() const { return Label{program_.instructions().size()}; }

namespace {
constexpr std::uint8_t kScratchRow = 31;
}  // namespace

void ProgramBuilder::pad_until(hbm::Cycle target) {
  if (t_ >= target) return;
  const hbm::Cycle gap = target - t_;
  if (gap == 1) {
    nop();
  } else {
    sleep(static_cast<std::int64_t>(gap - 1));
  }
}

ProgramBuilder& ProgramBuilder::sweep_columns(std::uint8_t bank, std::uint32_t row, Opcode op,
                                              std::uint8_t wide_reg) {
  ldi(kScratchRow, row);
  const hbm::Cycle act_t = t_;
  act(bank, kScratchRow);
  // The schedule of a register-fed column stream (each WR/RD preceded by
  // the LDI of its column register): the first column no sooner than two
  // cycles after the ACT, the rest at least two apart. Program cycles feed
  // retention and the reported device-cycle figures, so this schedule is
  // part of the measurement, not only a legality bound.
  pad_until(act_t + std::max<hbm::Cycle>(timings_.tRCD, 2));
  const auto spacing = static_cast<std::int64_t>(std::max<hbm::Cycle>(timings_.tCCD, 2));
  const hbm::Cycle last_col = t_ + row_burst_cycles(geometry_, spacing) - 1;
  if (op == Opcode::kWrRow) {
    wr_row(bank, wide_reg, spacing);
  } else {
    rd_row(bank, spacing);
  }
  const hbm::Cycle recovery = op == Opcode::kWrRow ? timings_.tWR : timings_.tRTP;
  pad_until(std::max(act_t + timings_.tRAS, last_col + recovery));
  const hbm::Cycle pre_t = t_;
  pre(bank);
  pad_until(pre_t + timings_.tRP);
  return *this;
}

ProgramBuilder& ProgramBuilder::init_row(std::uint8_t bank, std::uint32_t row,
                                         std::uint8_t wide_reg) {
  return sweep_columns(bank, row, Opcode::kWrRow, wide_reg);
}

ProgramBuilder& ProgramBuilder::read_row(std::uint8_t bank, std::uint32_t row) {
  return sweep_columns(bank, row, Opcode::kRdRow, 0);
}

ProgramBuilder& ProgramBuilder::touch_row(std::uint8_t bank, std::uint32_t row) {
  ldi(kScratchRow, row);
  const hbm::Cycle act_t = t_;
  act(bank, kScratchRow);
  pad_until(act_t + timings_.tRAS);
  const hbm::Cycle pre_t = t_;
  pre(bank);
  pad_until(std::max(pre_t + timings_.tRP, act_t + timings_.tRC));
  return *this;
}

ProgramBuilder& ProgramBuilder::hammer_loop_raw(std::uint8_t bank, std::uint32_t row_a,
                                                std::uint32_t row_b, std::uint32_t count,
                                                std::int64_t on_time) {
  // Register plan: r29 = i, r28 = count, r27 = row_a, r26 = row_b.
  // Builder virtual time models the FIRST iteration; the loop body is padded
  // so every iteration has identical, legal spacing.
  const hbm::Cycle on = std::max<hbm::Cycle>(static_cast<hbm::Cycle>(on_time), timings_.tRAS);

  ldi(29, 0);
  ldi(28, count);
  ldi(27, row_a);
  ldi(26, row_b);
  const Label loop = here();
  const hbm::Cycle act_a = t_;
  act(bank, 27);
  pad_until(act_a + on);
  pre(bank);
  pad_until(std::max(t_ - 1 + timings_.tRP, act_a + timings_.tRC));
  const hbm::Cycle act_b = t_;
  act(bank, 26);
  pad_until(act_b + on);
  const hbm::Cycle pre_b = t_;
  pre(bank);
  // The next iteration's ACT(row_a) happens 2 cycles after the BLT below;
  // pad so it clears both tRP (from PRE) and tRC (from ACT(row_b)).
  const hbm::Cycle next_act = std::max(pre_b + timings_.tRP, act_b + timings_.tRC);
  if (next_act > t_ + 2) pad_until(next_act - 2);
  addi(29, 29, 1);
  blt(29, 28, loop);
  return *this;
}

Program ProgramBuilder::take() {
  if (!ended_) end();
  return std::move(program_);
}

namespace {

std::string reg(std::uint8_t r) { return "r" + std::to_string(r); }

}  // namespace

bool is_idempotent(const Program& program) {
  for (const Instruction& ins : program.instructions()) {
    switch (ins.op) {
      case Opcode::kWr:
      case Opcode::kWrRow:
      case Opcode::kHammer:
      case Opcode::kHammerSingle:
      case Opcode::kRef:
      case Opcode::kMrs:
      case Opcode::kSrEnter:
      case Opcode::kSrExit:
        return false;
      default:
        break;
    }
  }
  return true;
}

std::string disassemble(const Instruction& ins) {
  std::string out(to_string(ins.op));
  out += ' ';
  switch (ins.op) {
    case Opcode::kLdi:
      out += reg(ins.rd) + ", " + std::to_string(ins.imm);
      break;
    case Opcode::kAddi:
      out += reg(ins.rd) + ", " + reg(ins.rs1) + ", " + std::to_string(ins.imm);
      break;
    case Opcode::kBlt:
      out += reg(ins.rs1) + ", " + reg(ins.rs2) + ", @" + std::to_string(ins.imm);
      break;
    case Opcode::kJmp:
      out += "@" + std::to_string(ins.imm);
      break;
    case Opcode::kAct:
      out += "b" + std::to_string(ins.bank) + ", row=" + reg(ins.rs1);
      break;
    case Opcode::kPre:
      out += "b" + std::to_string(ins.bank);
      break;
    case Opcode::kWr:
      out += "b" + std::to_string(ins.bank) + ", col=" + reg(ins.rs1) + ", w" +
             std::to_string(ins.wide);
      break;
    case Opcode::kRd:
      out += "b" + std::to_string(ins.bank) + ", col=" + reg(ins.rs1);
      break;
    case Opcode::kWrRow:
      out += "b" + std::to_string(ins.bank) + ", w" + std::to_string(ins.wide) +
             ", every=" + std::to_string(ins.imm);
      break;
    case Opcode::kRdRow:
      out += "b" + std::to_string(ins.bank) + ", every=" + std::to_string(ins.imm);
      break;
    case Opcode::kMrs:
      out += "mr" + std::to_string(ins.rd) + " <- " + std::to_string(ins.imm);
      break;
    case Opcode::kSleep:
      out += std::to_string(ins.imm);
      break;
    case Opcode::kHammer:
      out += "b" + std::to_string(ins.bank) + ", rows=" + reg(ins.rs1) + "/" + reg(ins.rs2) +
             ", count=" + std::to_string(ins.imm) + ", tON=" + std::to_string(ins.imm2);
      break;
    case Opcode::kHammerSingle:
      out += "b" + std::to_string(ins.bank) + ", row=" + reg(ins.rs1) +
             ", count=" + std::to_string(ins.imm) + ", tON=" + std::to_string(ins.imm2);
      break;
    default:
      out.pop_back();  // opcode-only instructions: drop the trailing space
      break;
  }
  return out;
}

std::vector<std::string> disassemble(const Program& program) {
  std::vector<std::string> lines;
  lines.reserve(program.instructions().size());
  for (std::size_t i = 0; i < program.instructions().size(); ++i) {
    lines.push_back(std::to_string(i) + ": " + disassemble(program.instructions()[i]));
  }
  return lines;
}

}  // namespace rh::bender
