#include "bender/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bender/executor.hpp"
#include "common/engine.hpp"
#include "common/error.hpp"
#include "core/data_patterns.hpp"
#include "hbm/device.hpp"
#include "hbm/geometry.hpp"
#include "hbm/timing.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::bender {
namespace {

class ProgramTest : public ::testing::Test {
protected:
  hbm::Geometry geometry_ = hbm::paper_geometry();
  hbm::TimingParams timings_ = hbm::paper_timings();
};

/// Pads with one NOP or SLEEP until the builder's virtual time reaches
/// `target` (the builder's own spacing rule, rebuilt from raw emitters).
void pad_to(ProgramBuilder& b, hbm::Cycle target) {
  const hbm::Cycle now = b.virtual_cycles();
  if (now >= target) return;
  if (target - now == 1) {
    b.nop();
  } else {
    b.sleep(static_cast<std::int64_t>(target - now - 1));
  }
}

/// One row sweep written out by hand from raw instructions: LDI the row,
/// ACT, then per column an LDI of the column register and a WR (or RD)
/// issued as early as tRCD/tCCD allow, then the recovery pad, PRE and the
/// tRP pad.
void unrolled_sweep(ProgramBuilder& b, const hbm::Geometry& geometry,
                    const hbm::TimingParams& timings, std::uint8_t bank, std::uint32_t row,
                    bool write, std::uint8_t wide_reg) {
  b.ldi(31, row);
  const hbm::Cycle act_t = b.virtual_cycles();
  b.act(bank, 31);
  hbm::Cycle last_col = 0;
  for (std::uint32_t col = 0; col < geometry.columns_per_row; ++col) {
    b.ldi(30, col);
    hbm::Cycle target = act_t + timings.tRCD;
    if (col > 0) target = std::max(target, last_col + timings.tCCD);
    pad_to(b, target);
    last_col = b.virtual_cycles();
    if (write) {
      b.wr(bank, 30, wide_reg);
    } else {
      b.rd(bank, 30);
    }
  }
  pad_to(b, std::max(act_t + timings.tRAS, last_col + (write ? timings.tWR : timings.tRTP)));
  const hbm::Cycle pre_t = b.virtual_cycles();
  b.pre(bank);
  pad_to(b, pre_t + timings.tRP);
}

/// What one run of a row-sweep program leaves observable.
struct SweepRun {
  hbm::Cycle builder_cycles = 0;
  hbm::Cycle cycles = 0;
  std::vector<std::uint8_t> readback;
  /// (command, bank, column, cycle) per traced command.
  std::vector<std::tuple<int, int, std::uint32_t, std::uint64_t>> trace;
  std::vector<std::vector<std::uint64_t>> bank_stats;
};

/// Writes two patterns into rows of two banks, then reads them back, either
/// through init_row/read_row or through the hand-unrolled sweep.
SweepRun run_sweeps(const hbm::TimingParams& timings, common::EngineKind engine, bool unrolled) {
  hbm::DeviceConfig config;
  config.timings = timings;
  const hbm::Geometry& geometry = config.geometry;
  ProgramBuilder b(geometry, timings);
  b.program().set_wide_register(0, core::make_row_image(geometry, 0x5A));
  std::vector<std::uint8_t> ramp(geometry.row_bytes());
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<std::uint8_t>(i * 13 + 1);
  b.program().set_wide_register(1, std::move(ramp));
  const std::vector<std::pair<std::uint8_t, std::uint32_t>> rows = {{0, 7}, {0, 8}, {3, 7}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto wide = static_cast<std::uint8_t>(i % 2);
    if (unrolled) {
      unrolled_sweep(b, geometry, timings, rows[i].first, rows[i].second, true, wide);
    } else {
      b.init_row(rows[i].first, rows[i].second, wide);
    }
  }
  for (const auto& [bank, row] : rows) {
    if (unrolled) {
      unrolled_sweep(b, geometry, timings, bank, row, false, 0);
    } else {
      b.read_row(bank, row);
    }
  }
  const Program program = b.take();

  hbm::Device device(config);
  device.set_engine(engine);
  telemetry::Telemetry sink;
  device.set_telemetry(&sink);
  const ExecutionResult result = Executor(device).run(program, 0, 0, 0);
  device.set_telemetry(nullptr);

  SweepRun out;
  out.builder_cycles = b.virtual_cycles();
  out.cycles = result.cycles();
  out.readback = result.readback;
  for (const telemetry::CommandEvent& ev : sink.trace().in_order()) {
    out.trace.emplace_back(static_cast<int>(ev.command), ev.bank, ev.arg, ev.cycle);
  }
  for (std::uint32_t bank = 0; bank < geometry.banks_per_pseudo_channel; ++bank) {
    const hbm::Bank::Stats& s = device.bank({0, 0, bank}).stats();
    out.bank_stats.push_back({s.activates, s.reads, s.writes, s.rowhammer_flips,
                              s.retention_flips, s.ecc_corrections, s.settles});
  }
  return out;
}

TEST_F(ProgramTest, RowSweepsMatchTheUnrolledColumnStream) {
  // init_row/read_row against the same sweep spelled out column by column,
  // under the paper timings, under tRCD = tCCD = 1 (below the two-cycle
  // floor a register-fed column stream has), and under a slow column path.
  hbm::TimingParams fast_columns = hbm::paper_timings();
  fast_columns.tRCD = 1;
  fast_columns.tCCD = 1;
  hbm::TimingParams slow_columns = hbm::paper_timings();
  slow_columns.tCCD = 4;
  slow_columns.tWR = 20;
  const std::vector<std::pair<std::string, hbm::TimingParams>> timing_sets = {
      {"paper", hbm::paper_timings()}, {"tRCD=1,tCCD=1", fast_columns},
      {"tCCD=4,tWR=20", slow_columns}};
  for (const auto& [name, timings] : timing_sets) {
    for (const common::EngineKind engine : {common::EngineKind::kFast, common::EngineKind::kInterp}) {
      SCOPED_TRACE(name + " / " + std::string(common::to_string(engine)));
      const SweepRun built = run_sweeps(timings, engine, /*unrolled=*/false);
      const SweepRun reference = run_sweeps(timings, engine, /*unrolled=*/true);
      EXPECT_EQ(built.builder_cycles, reference.builder_cycles);
      EXPECT_EQ(built.cycles, reference.cycles);
      EXPECT_EQ(built.builder_cycles, built.cycles);
      EXPECT_EQ(built.readback, reference.readback);
      EXPECT_EQ(built.trace, reference.trace);
      EXPECT_EQ(built.bank_stats, reference.bank_stats);
      EXPECT_EQ(built.readback.size(), 3u * hbm::paper_geometry().row_bytes());
    }
  }
}

TEST_F(ProgramTest, ValidateRejectsEmptyProgram) {
  const Program p;
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRequiresEnd) {
  Program p;
  p.push({.op = Opcode::kNop});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
  p.push({.op = Opcode::kEnd});
  p.validate(geometry_);
}

TEST_F(ProgramTest, ValidateRejectsBadBank) {
  Program p;
  p.push({.op = Opcode::kAct, .rs1 = 0, .bank = 16});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsJumpOutOfRange) {
  Program p;
  p.push({.op = Opcode::kJmp, .imm = 99});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsUnloadedWideRegister) {
  Program p;
  p.push({.op = Opcode::kWr, .rs1 = 0, .bank = 0, .wide = 2});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
  p.set_wide_register(2, std::vector<std::uint8_t>(geometry_.row_bytes(), 0xFF));
  p.validate(geometry_);
}

TEST_F(ProgramTest, ValidateRejectsBadModeRegister) {
  Program p;
  p.push({.op = Opcode::kMrs, .rd = 16, .imm = 0});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, ValidateRejectsNegativeHammerCount) {
  Program p;
  p.push({.op = Opcode::kHammer, .imm = -1});
  p.push({.op = Opcode::kEnd});
  EXPECT_THROW(p.validate(geometry_), common::ProgramError);
}

TEST_F(ProgramTest, BuilderAppendsEndOnTake) {
  ProgramBuilder b(geometry_, timings_);
  b.nop();
  const Program p = b.take();
  EXPECT_EQ(p.instructions().back().op, Opcode::kEnd);
}

TEST_F(ProgramTest, BuilderTracksVirtualTime) {
  ProgramBuilder b(geometry_, timings_);
  b.nop();            // 1
  b.ldi(0, 5);        // 1
  b.sleep(10);        // 11
  EXPECT_EQ(b.virtual_cycles(), 13u);
}

TEST_F(ProgramTest, HammerMacroChargesUnrolledDuration) {
  ProgramBuilder b(geometry_, timings_);
  b.ldi(0, 10);
  b.ldi(1, 12);
  const hbm::Cycle before = b.virtual_cycles();
  b.hammer(0, 0, 1, 1000);
  EXPECT_EQ(b.virtual_cycles() - before, 1000ULL * 2 * b.hammer_period(0));
}

TEST_F(ProgramTest, HammerPeriodGrowsWithOnTime) {
  ProgramBuilder b(geometry_, timings_);
  // Minimal on-time: the pair period is bounded by both tRC and tRAS+tRP.
  const hbm::Cycle minimal = std::max(timings_.tRC, timings_.tRAS + timings_.tRP);
  EXPECT_EQ(b.hammer_period(0), minimal);
  EXPECT_EQ(b.hammer_period(static_cast<std::int64_t>(timings_.tRAS)), minimal);
  const auto long_on = static_cast<std::int64_t>(4 * timings_.tRAS);
  EXPECT_EQ(b.hammer_period(long_on), 4 * timings_.tRAS + timings_.tRP);
}

TEST_F(ProgramTest, InitRowEmitsOneRowBurst) {
  ProgramBuilder b(geometry_, timings_);
  b.program().set_wide_register(0, core::make_row_image(geometry_, 0xAB));
  b.init_row(0, 5, 0);
  const Program p = b.take();
  int bursts = 0;
  int acts = 0;
  int pres = 0;
  for (const auto& ins : p.instructions()) {
    EXPECT_NE(ins.op, Opcode::kWr);
    bursts += ins.op == Opcode::kWrRow;
    acts += ins.op == Opcode::kAct;
    pres += ins.op == Opcode::kPre;
    if (ins.op == Opcode::kWrRow) {
      EXPECT_EQ(ins.wide, 0);
      EXPECT_EQ(ins.imm, static_cast<std::int64_t>(std::max<hbm::Cycle>(timings_.tCCD, 2)));
    }
  }
  EXPECT_EQ(bursts, 1);
  EXPECT_EQ(acts, 1);
  EXPECT_EQ(pres, 1);
  // LDI, ACT, pad, WRROW, pad, PRE, pad, END.
  EXPECT_EQ(p.instructions().size(), 8u);
}

TEST_F(ProgramTest, ReadRowEmitsOneRowBurst) {
  ProgramBuilder b(geometry_, timings_);
  b.read_row(0, 5);
  const Program p = b.take();
  int bursts = 0;
  for (const auto& ins : p.instructions()) {
    EXPECT_NE(ins.op, Opcode::kRd);
    bursts += ins.op == Opcode::kRdRow;
  }
  EXPECT_EQ(bursts, 1);
  EXPECT_LE(p.instructions().size(), 8u);
}

TEST_F(ProgramTest, RowBurstChargesEveryColumnsCycle) {
  ProgramBuilder b(geometry_, timings_);
  b.wr_row(0, 0, 3);
  EXPECT_EQ(b.virtual_cycles(), (geometry_.columns_per_row - 1) * 3 + 1);
  EXPECT_EQ(row_burst_cycles(geometry_, 3), b.virtual_cycles());
  b.rd_row(0, 1);
  EXPECT_EQ(b.virtual_cycles(), row_burst_cycles(geometry_, 3) + geometry_.columns_per_row);
}

TEST_F(ProgramTest, ValidateChecksRowBursts) {
  const auto rejects = [&](const Instruction& ins, bool load_wide) {
    Program p;
    if (load_wide) p.set_wide_register(1, core::make_row_image(geometry_, 0x0F));
    p.push(ins);
    p.push({.op = Opcode::kEnd});
    try {
      p.validate(geometry_);
    } catch (const common::ProgramError&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(rejects({.op = Opcode::kWrRow, .bank = 3, .wide = 1, .imm = 2}, true));
  EXPECT_FALSE(rejects({.op = Opcode::kRdRow, .bank = 3, .imm = 1}, false));
  EXPECT_TRUE(rejects({.op = Opcode::kWrRow, .bank = 16, .wide = 1, .imm = 2}, true));
  EXPECT_TRUE(rejects({.op = Opcode::kRdRow, .bank = 16, .imm = 2}, false));
  EXPECT_TRUE(rejects({.op = Opcode::kWrRow, .bank = 0, .wide = 1, .imm = 2}, false));
  EXPECT_TRUE(rejects({.op = Opcode::kWrRow, .bank = 0, .wide = 8, .imm = 2}, true));
  EXPECT_TRUE(rejects({.op = Opcode::kWrRow, .bank = 0, .wide = 1, .imm = 0}, true));
  EXPECT_TRUE(rejects({.op = Opcode::kRdRow, .bank = 0, .imm = 0}, false));
  EXPECT_TRUE(rejects({.op = Opcode::kRdRow, .bank = 0, .imm = -4}, false));
}

TEST_F(ProgramTest, OnlyTheReadBurstIsIdempotent) {
  ProgramBuilder reads(geometry_, timings_);
  reads.read_row(0, 5);
  EXPECT_TRUE(is_idempotent(reads.take()));
  ProgramBuilder writes(geometry_, timings_);
  writes.program().set_wide_register(0, core::make_row_image(geometry_, 0x00));
  writes.init_row(0, 5, 0);
  EXPECT_FALSE(is_idempotent(writes.take()));
}

TEST_F(ProgramTest, RowBurstsDisassemble) {
  EXPECT_EQ(disassemble(Instruction{.op = Opcode::kWrRow, .bank = 2, .wide = 1, .imm = 2}),
            "WRROW b2, w1, every=2");
  EXPECT_EQ(disassemble(Instruction{.op = Opcode::kRdRow, .bank = 7, .imm = 4}),
            "RDROW b7, every=4");
}

TEST_F(ProgramTest, LabelsResolveToInstructionIndices) {
  ProgramBuilder b(geometry_, timings_);
  b.ldi(0, 0);
  b.ldi(1, 3);
  const Label loop = b.here();
  EXPECT_EQ(loop.index, 2u);
  b.addi(0, 0, 1);
  b.blt(0, 1, loop);
  const Program p = b.take();
  EXPECT_EQ(p.instructions()[3].imm, 2);
}

TEST_F(ProgramTest, WideRegisterRoundTrip) {
  Program p;
  std::vector<std::uint8_t> image(geometry_.row_bytes(), 0x3C);
  p.set_wide_register(1, image);
  const auto view = p.wide_register(1);
  ASSERT_EQ(view.size(), image.size());
  EXPECT_EQ(view[0], 0x3C);
  EXPECT_TRUE(p.wide_register(0).empty());
}

}  // namespace
}  // namespace rh::bender
