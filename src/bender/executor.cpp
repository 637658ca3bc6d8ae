#include "bender/executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
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
hbm::Cycle cycle_cost(const Instruction& ins, const hbm::TimingParams& timings) {
  switch (ins.op) {
    case Opcode::kSleep:
      return 1 + static_cast<hbm::Cycle>(ins.imm);
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

bool is_device_op(Opcode op) {
  switch (op) {
    case Opcode::kAct:
    case Opcode::kPre:
    case Opcode::kPreA:
    case Opcode::kRd:
    case Opcode::kWr:
    case Opcode::kRef:
    case Opcode::kHammer:
    case Opcode::kHammerSingle:
      return true;
    default:
      return false;
  }
}

/// One device command inside a fast-forwardable loop body.
struct Record {
  std::size_t pc = 0;     ///< instruction index in the program
  hbm::Cycle offset = 0;  ///< issue cycle relative to iteration start
};

/// Closed-form register update applied per fast-forwarded iteration.
struct RegEffect {
  std::uint8_t rd = 0;
  bool is_ldi = false;  ///< LDI pins to imm; ADDI accumulates n * imm
  std::int64_t imm = 0;
};

/// Static analysis of one backward BLT loop (stored only when eligible).
struct Loop {
  std::size_t target = 0;      ///< body start (branch target)
  std::size_t blt_pc = 0;      ///< the closing BLT
  std::uint64_t body_len = 0;  ///< instructions per iteration (incl. BLT)
  hbm::Cycle delta_t = 0;      ///< cycles per iteration (incl. BLT)
  std::uint8_t induction_reg = 0;
  std::int64_t induction_step = 0;  ///< > 0
  std::uint8_t bound_reg = 0;       ///< invariant inside the body
  std::vector<Record> records;
  std::vector<RegEffect> reg_effects;
};

struct Loops {
  std::vector<std::int32_t> at;  ///< pc -> index into loops, or -1; empty: none
  std::vector<Loop> loops;
};

/// Finds every fast-forwardable loop. A body is eligible only when it is
/// branch-free, every register is written at most once (LDI, or ADDI with
/// rd == rs1), no device operand register is written inside the body, and
/// the closing BLT compares a single positive-step ADDI induction register
/// against an invariant bound. Under those rules every future iteration is
/// identical except for the induction value, so the iteration count
/// N = ceil((bound - induction) / step) is exact, and replaying the device
/// records at base + k*delta_t reproduces the stepped execution verbatim.
Loops decode_loops(const std::vector<Instruction>& code, const hbm::TimingParams& timings) {
  Loops d;
  for (std::size_t p = 0; p < code.size(); ++p) {
    const Instruction& blt = code[p];
    if (blt.op != Opcode::kBlt) continue;
    const auto target = static_cast<std::size_t>(blt.imm);
    if (target >= p) continue;  // forward branch: not a loop

    // Pass 1: per-register write counts and opcode eligibility.
    std::array<std::uint8_t, kScalarRegisters> writes{};
    bool viable = true;
    for (std::size_t q = target; q < p && viable; ++q) {
      const Instruction& ins = code[q];
      switch (ins.op) {
        case Opcode::kNop:
        case Opcode::kSleep:
          break;
        case Opcode::kLdi:
          if (++writes[ins.rd] > 1) viable = false;
          break;
        case Opcode::kAddi:
          // Only self-accumulating ADDIs have a closed form per iteration.
          if (ins.rd != ins.rs1 || ++writes[ins.rd] > 1) viable = false;
          break;
        default:
          if (!is_device_op(ins.op)) viable = false;
          break;
      }
    }
    if (!viable) continue;

    // Pass 2: operand invariance — device operand registers and the loop
    // bound must not change inside the body; the BLT induction register
    // must be exactly one positive-step ADDI.
    if (writes[blt.rs2] != 0) continue;
    Loop info;
    info.target = target;
    info.blt_pc = p;
    info.body_len = static_cast<std::uint64_t>(p - target) + 1;
    info.induction_reg = blt.rs1;
    info.bound_reg = blt.rs2;
    hbm::Cycle off = 1;  // the taken BLT itself costs one cycle
    for (std::size_t q = target; q < p && viable; ++q) {
      const Instruction& ins = code[q];
      switch (ins.op) {
        case Opcode::kLdi:
          info.reg_effects.push_back({ins.rd, /*is_ldi=*/true, ins.imm});
          break;
        case Opcode::kAddi:
          if (ins.rd == blt.rs1) {
            if (ins.imm <= 0) viable = false;
            info.induction_step = ins.imm;
          }
          info.reg_effects.push_back({ins.rd, /*is_ldi=*/false, ins.imm});
          break;
        case Opcode::kAct:
        case Opcode::kRd:
        case Opcode::kWr:
        case Opcode::kHammerSingle:
          if (writes[ins.rs1] != 0) viable = false;
          break;
        case Opcode::kHammer:
          if (writes[ins.rs1] != 0 || writes[ins.rs2] != 0) viable = false;
          break;
        default:
          break;
      }
      if (is_device_op(ins.op)) {
        // Zero-count hammers issue nothing; their cost still shapes the
        // cadence.
        const bool issues =
            (ins.op != Opcode::kHammer && ins.op != Opcode::kHammerSingle) || ins.imm > 0;
        if (issues) info.records.push_back({q, off});
      }
      off += cycle_cost(ins, timings);
    }
    if (!viable || info.induction_step <= 0) continue;
    info.delta_t = off;
    if (d.at.empty()) d.at.assign(code.size(), -1);
    d.at[p] = static_cast<std::int32_t>(d.loops.size());
    d.loops.push_back(std::move(info));
  }
  return d;
}

}  // namespace

ExecutionResult Executor::run(const Program& program, std::uint32_t channel,
                              std::uint32_t pseudo_channel, hbm::Cycle start,
                              std::uint64_t instruction_budget) {
  program.validate(device_->geometry());
  const auto& code = program.instructions();
  const auto& geometry = device_->geometry();
  const auto& timings = device_->timings();
  // Only the fast engine decodes; the reference steps every instruction.
  const Loops decoded = device_->engine() == common::EngineKind::kFast
                            ? decode_loops(code, timings)
                            : Loops{};
  const bool drop_last_iteration =
      device_->planted_bug() == common::PlantedBug::kOffByOneFastForward;

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

  // The one dispatch over the instruction set: executes `ins` at cycle t,
  // sets `next` to the pc that follows it, and returns true at END.
  // Stepping runs every instruction through here and loop replay runs the
  // device records through here, so a device throw carries the same
  // context either way.
  std::size_t next = 0;
  const auto execute = [&](const Instruction& ins) {
    next = pc + 1;
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
        return true;
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
      case Opcode::kWr: {
        const std::uint32_t col = reg_col(ins.rs1);
        const auto wide = program.wide_register(ins.wide);
        const std::size_t off = static_cast<std::size_t>(col) * geometry.bytes_per_column;
        device_->write(bank_addr(ins.bank), col, wide.subspan(off, geometry.bytes_per_column), t);
        ++metrics.writes;
        break;
      }
      case Opcode::kRd: {
        const std::uint32_t col = reg_col(ins.rs1);
        device_->read(bank_addr(ins.bank), col, t, burst);
        result.readback.insert(result.readback.end(), burst.begin(), burst.end());
        ++metrics.reads;
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
                               t + cycle_cost(ins, timings));
          metrics.acts += 2 * static_cast<std::uint64_t>(ins.imm);
          metrics.precharges += 2 * static_cast<std::uint64_t>(ins.imm);
        }
        break;
      case Opcode::kHammerSingle:
        if (ins.imm > 0) {
          device_->hammer_single(bank_addr(ins.bank), reg_row(ins.rs1),
                                 static_cast<std::uint64_t>(ins.imm),
                                 hammer_on_time(ins, timings), t + cycle_cost(ins, timings));
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
    return false;
  };

  // Retires the remaining iterations of an eligible loop whose BLT is about
  // to be taken: registers advance by n times their per-iteration effect,
  // the clock by n times the body's duration, and only the device records
  // are replayed, each with pc, cycle and executed count set to what
  // stepping would have reached. Retires only whole iterations that fit the
  // budget; returns false when none do, so stepping raises the budget error.
  const auto fast_forward = [&](const Loop& loop) {
    const std::int64_t r1 = regs[loop.induction_reg];
    const std::int64_t r2 = regs[loop.bound_reg];
    if (r1 >= r2) return false;
    using Wide = __int128;
    const Wide need =
        (static_cast<Wide>(r2) - static_cast<Wide>(r1) + loop.induction_step - 1) /
        loop.induction_step;
    const std::uint64_t head_room =
        instruction_budget > executed ? instruction_budget - executed : 0;
    const std::uint64_t fit = head_room / loop.body_len;
    const auto n = static_cast<std::uint64_t>(std::min<Wide>(need, static_cast<Wide>(fit)));
    if (n == 0) return false;
    const hbm::Cycle t0 = t;
    const std::uint64_t executed0 = executed;
    for (std::uint64_t k = 0; k < n; ++k) {
      // Planted bug: drop the device commands of the final fast-forwarded
      // iteration while still advancing registers, clock, and instruction
      // count as if it ran.
      if (drop_last_iteration && k + 1 == n) break;
      for (const Record& rec : loop.records) {
        pc = rec.pc;
        current = &code[pc];
        t = t0 + k * loop.delta_t + rec.offset;
        executed = executed0 + k * loop.body_len +
                   static_cast<std::uint64_t>(rec.pc - loop.target) + 2;
        (void)execute(*current);
      }
    }
    t = t0 + n * loop.delta_t;
    executed = executed0 + n * loop.body_len;
    for (const RegEffect& eff : loop.reg_effects) {
      if (eff.is_ldi) {
        regs[eff.rd] = eff.imm;
      } else {
        regs[eff.rd] += static_cast<std::int64_t>(n) * eff.imm;
      }
    }
    pc = loop.blt_pc;
    current = loop.blt_pc > loop.target ? &code[loop.blt_pc - 1] : &code[loop.blt_pc];
    return true;
  };

  try {
  while (pc < code.size()) {
    if (!decoded.at.empty() && decoded.at[pc] >= 0 &&
        fast_forward(decoded.loops[static_cast<std::size_t>(decoded.at[pc])])) {
      continue;  // re-evaluate the BLT (not taken once every iteration retired)
    }
    if (++executed > instruction_budget) {
      throw common::ProgramError("instruction budget exceeded (runaway loop?)");
    }
    const Instruction& ins = code[pc];
    current = &ins;
    if (execute(ins)) {
      result.end_cycle = t + 1;
      result.instructions_executed = executed;
      metrics.sim_wall_ms = hbm::cycles_to_ms(result.end_cycle - result.start_cycle);
      metrics.host_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start).count();
      if (metrics.sim_wall_ms > 0.0) {
        metrics.act_rate_hz = static_cast<double>(metrics.acts) / (metrics.sim_wall_ms * 1e-3);
      }
      if (metrics.host_seconds > 0.0) {
        metrics.instructions_per_second = static_cast<double>(executed) / metrics.host_seconds;
      }
      result.metrics = metrics;
      return result;
    }
    t += cycle_cost(ins, timings);
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
