#include "bender/executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <string>

#include "common/engine.hpp"
#include "common/error.hpp"

namespace rh::bender {

namespace {

hbm::Cycle hammer_on_time(const Instruction& ins, const hbm::TimingParams& timings) {
  return std::max<hbm::Cycle>(static_cast<hbm::Cycle>(ins.imm2), timings.tRAS);
}

/// Cycles one instruction occupies the interface; all Bender costs are
/// static per instruction.
hbm::Cycle cycle_cost(const Instruction& ins, const hbm::Geometry& geometry,
                      const hbm::TimingParams& timings) {
  switch (ins.op) {
    case Opcode::kSleep:
      return 1 + static_cast<hbm::Cycle>(ins.imm);
    case Opcode::kWrRow:
    case Opcode::kRdRow:
      return row_burst_cycles(geometry, ins.imm);
    case Opcode::kHammer:
    case Opcode::kHammerSingle: {
      const hbm::Cycle period =
          std::max(timings.tRC, hammer_on_time(ins, timings) + timings.tRP);
      const hbm::Cycle acts_per_count = ins.op == Opcode::kHammer ? 2 : 1;
      return static_cast<hbm::Cycle>(ins.imm) * acts_per_count * period;
    }
    default:
      return 1;
  }
}

}  // namespace

ExecutionResult Executor::run(const Program& program, std::uint32_t channel,
                              std::uint32_t pseudo_channel, hbm::Cycle start,
                              std::uint64_t instruction_budget) {
  program.validate(device_->geometry());
  const auto& code = program.instructions();
  const auto& geometry = device_->geometry();
  const auto& timings = device_->timings();
  // The one engine difference here: the fast engine hands each row burst
  // to one device kernel, the reference issues it column by column.
  const bool row_kernel = device_->engine() == common::EngineKind::kFast;

  ExecutionResult result;
  result.start_cycle = start;

  const auto host_start = std::chrono::steady_clock::now();
  std::array<std::int64_t, kScalarRegisters> regs{};
  std::vector<std::uint8_t> burst(geometry.bytes_per_column);
  hbm::Cycle t = start;
  std::size_t pc = 0;
  std::uint64_t executed = 0;
  RunMetrics metrics;
  const Instruction* current = nullptr;

  const auto bank_addr = [&](std::uint8_t bank) {
    return hbm::BankAddress{channel, pseudo_channel, bank};
  };
  const auto reg_row = [&](std::uint8_t reg) {
    const std::int64_t row = regs[reg];
    if (row < 0 || row >= static_cast<std::int64_t>(geometry.rows_per_bank)) {
      throw common::ProgramError("row register value out of range: " + std::to_string(row));
    }
    return static_cast<std::uint32_t>(row);
  };
  const auto reg_col = [&](std::uint8_t reg) {
    const std::int64_t col = regs[reg];
    if (col < 0 || col >= static_cast<std::int64_t>(geometry.columns_per_row)) {
      throw common::ProgramError("column register value out of range: " + std::to_string(col));
    }
    return static_cast<std::uint32_t>(col);
  };
  // One WR or RD column command: the whole of WR/RD, and the reference
  // engine's row burst one column at a time.
  const auto write_column = [&](const Instruction& ins, std::uint32_t col, hbm::Cycle now) {
    const std::size_t off = static_cast<std::size_t>(col) * geometry.bytes_per_column;
    device_->write(bank_addr(ins.bank), col,
                   program.wide_register(ins.wide).subspan(off, geometry.bytes_per_column), now);
  };
  const auto read_column = [&](const Instruction& ins, std::uint32_t col, hbm::Cycle now) {
    device_->read(bank_addr(ins.bank), col, now, burst);
    result.readback.insert(result.readback.end(), burst.begin(), burst.end());
  };

  try {
  // The one dispatch over the instruction set: executes the instruction at
  // pc at cycle t, then moves pc to the one that follows it.
  while (pc < code.size()) {
    const Instruction& ins = code[pc];
    current = &ins;
    // An overrun names the instruction it stopped, which did not run.
    if (executed >= instruction_budget) {
      throw common::ProgramError("instruction budget exceeded (runaway loop?)");
    }
    ++executed;
    std::size_t next = pc + 1;
    switch (ins.op) {
      case Opcode::kNop:
      case Opcode::kSleep:
        break;
      case Opcode::kLdi:
        regs[ins.rd] = ins.imm;
        break;
      case Opcode::kAddi:
        regs[ins.rd] = regs[ins.rs1] + ins.imm;
        break;
      case Opcode::kBlt:
        if (regs[ins.rs1] < regs[ins.rs2]) next = static_cast<std::size_t>(ins.imm);
        break;
      case Opcode::kJmp:
        next = static_cast<std::size_t>(ins.imm);
        break;
      case Opcode::kEnd:
        result.end_cycle = t + 1;
        result.instructions_executed = executed;
        metrics.host_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
        result.metrics = metrics;
        return result;
      case Opcode::kAct:
        device_->activate(bank_addr(ins.bank), reg_row(ins.rs1), t);
        ++metrics.acts;
        break;
      case Opcode::kPre:
        device_->precharge(bank_addr(ins.bank), t);
        ++metrics.precharges;
        break;
      case Opcode::kPreA:
        device_->precharge_all(channel, pseudo_channel, t);
        ++metrics.precharges;
        break;
      case Opcode::kWr:
        write_column(ins, reg_col(ins.rs1), t);
        ++metrics.writes;
        break;
      case Opcode::kRd:
        read_column(ins, reg_col(ins.rs1), t);
        ++metrics.reads;
        break;
      case Opcode::kWrRow:
      case Opcode::kRdRow: {
        const bool is_write = ins.op == Opcode::kWrRow;
        const auto spacing = static_cast<hbm::Cycle>(ins.imm);
        if (row_kernel && is_write) {
          device_->write_row(bank_addr(ins.bank), program.wide_register(ins.wide), t, spacing);
        } else if (row_kernel) {
          const std::size_t at = result.readback.size();
          result.readback.resize(at + geometry.row_bytes());
          device_->read_row(bank_addr(ins.bank), t, spacing,
                            std::span<std::uint8_t>(result.readback).subspan(at));
        } else {
          for (std::uint32_t col = 0; col < geometry.columns_per_row; ++col) {
            const hbm::Cycle now = t + col * spacing;
            if (is_write) {
              write_column(ins, col, now);
            } else {
              read_column(ins, col, now);
            }
          }
        }
        (is_write ? metrics.writes : metrics.reads) += geometry.columns_per_row;
        break;
      }
      case Opcode::kRef:
        device_->refresh(channel, pseudo_channel, t);
        ++metrics.refreshes;
        break;
      case Opcode::kMrs:
        device_->mode_register_set(channel, ins.rd, static_cast<std::uint32_t>(ins.imm), t);
        ++metrics.mode_register_writes;
        break;
      case Opcode::kHammer:
        if (ins.imm > 0) {
          device_->hammer_pair(bank_addr(ins.bank), reg_row(ins.rs1), reg_row(ins.rs2),
                               static_cast<std::uint64_t>(ins.imm), hammer_on_time(ins, timings),
                               t + cycle_cost(ins, geometry, timings));
          metrics.acts += 2 * static_cast<std::uint64_t>(ins.imm);
          metrics.precharges += 2 * static_cast<std::uint64_t>(ins.imm);
        }
        break;
      case Opcode::kHammerSingle:
        if (ins.imm > 0) {
          device_->hammer_single(bank_addr(ins.bank), reg_row(ins.rs1),
                                 static_cast<std::uint64_t>(ins.imm),
                                 hammer_on_time(ins, timings),
                                 t + cycle_cost(ins, geometry, timings));
          metrics.acts += static_cast<std::uint64_t>(ins.imm);
          metrics.precharges += static_cast<std::uint64_t>(ins.imm);
        }
        break;
      case Opcode::kSrEnter:
        device_->self_refresh_enter(channel, pseudo_channel, t);
        break;
      case Opcode::kSrExit:
        device_->self_refresh_exit(channel, pseudo_channel, t);
        break;
    }
    t += cycle_cost(ins, geometry, timings);
    pc = next;
  }
  throw common::ProgramError("program ran off the end without END");
  } catch (common::Error& e) {
    std::string ctx = "after " + std::to_string(executed) + " instructions, cycle " +
                      std::to_string(t);
    if (current != nullptr) {
      ctx += ", pc " + std::to_string(pc) + ": " + disassemble(*current);
    }
    e.attach_context(ctx);
    throw;
  }
}

}  // namespace rh::bender
