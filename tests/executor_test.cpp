#include "bender/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bender/program.hpp"
#include "common/error.hpp"
#include "core/data_patterns.hpp"
#include "hbm/device.hpp"

namespace rh::bender {
namespace {

class ExecutorTest : public ::testing::Test {
protected:
  ExecutorTest() : device_(hbm::DeviceConfig{}), executor_(device_) {}

  ProgramBuilder builder() { return ProgramBuilder(device_.geometry(), device_.timings()); }

  hbm::Device device_;
  Executor executor_;
};

TEST_F(ExecutorTest, StraightLineTimingMatchesBuilderAccounting) {
  auto b = builder();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0x11));
  b.init_row(0, 7, 0);
  b.read_row(0, 7);
  const hbm::Cycle predicted = b.virtual_cycles() + 1;  // +1 for the END
  const auto result = executor_.run(b.take(), 0, 0, 500);
  EXPECT_EQ(result.cycles(), predicted);
}

TEST_F(ExecutorTest, ReadbackReturnsWrittenData) {
  auto b = builder();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0xC3));
  b.init_row(0, 7, 0);
  b.read_row(0, 7);
  const auto result = executor_.run(b.take(), 0, 0, 500);
  ASSERT_EQ(result.readback.size(), device_.geometry().row_bytes());
  for (const auto byte : result.readback) EXPECT_EQ(byte, 0xC3);
}

TEST_F(ExecutorTest, RegisterLoopArithmetic) {
  // Count 0..9 via ADDI/BLT and verify via loop-carried writes: the loop
  // body runs exactly 10 times (10 reads of one column).
  auto b = builder();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0x01));
  b.init_row(0, 3, 0);
  b.ldi(2, 0);
  b.ldi(3, 10);
  b.ldi(4, 0);  // column 0
  b.touch_row(0, 3);
  const Label loop = b.here();
  // Open row once per iteration to read legally.
  b.ldi(5, 3);
  b.act(0, 5);
  b.sleep(static_cast<std::int64_t>(device_.timings().tRCD));
  b.rd(0, 4);
  b.sleep(static_cast<std::int64_t>(device_.timings().tRAS));
  b.pre(0);
  b.sleep(static_cast<std::int64_t>(device_.timings().tRP));
  b.addi(2, 2, 1);
  b.blt(2, 3, loop);
  const auto result = executor_.run(b.take(), 0, 0, 500);
  EXPECT_EQ(result.readback.size(), 10u * device_.geometry().bytes_per_column);
}

TEST_F(ExecutorTest, HammerMacroAdvancesClockByUnrolledDuration) {
  auto b = builder();
  b.ldi(0, 100);
  b.ldi(1, 102);
  b.hammer(0, 0, 1, 5000);
  const auto result = executor_.run(b.take(), 0, 0, 1000);
  // 2 LDIs + hammer + END; per-hammer period = max(tRC, tRAS + tRP).
  const hbm::Cycle period =
      std::max(device_.timings().tRC, device_.timings().tRAS + device_.timings().tRP);
  EXPECT_EQ(result.cycles(), 2 + 5000ULL * 2 * period + 1);
}

TEST_F(ExecutorTest, HammerMacroDepositsDisturbance) {
  auto b = builder();
  // Logical rows 100 and 101 decode (pair-swap) to physical 100 and 102,
  // bracketing physical row 101.
  b.ldi(0, 100);
  b.ldi(1, 101);
  b.hammer(0, 0, 1, 5000);
  (void)executor_.run(b.take(), 0, 0, 1000);
  EXPECT_GT(device_.bank(hbm::BankAddress{0, 0, 0}).disturbance_of_physical(101), 0.0);
}

TEST_F(ExecutorTest, InstructionBudgetCatchesRunawayLoops) {
  auto b = builder();
  const Label spin = b.here();
  b.jmp(spin);
  b.end();
  EXPECT_THROW(executor_.run(b.take(), 0, 0, 0, 10'000), common::ProgramError);
}

TEST_F(ExecutorTest, RowRegisterOutOfRangeIsCaught) {
  auto b = builder();
  b.ldi(0, 99'999);
  b.act(0, 0);
  EXPECT_THROW(executor_.run(b.take(), 0, 0, 0), common::ProgramError);
}

TEST_F(ExecutorTest, BuilderProgramsAreValidatedWhereTheyRun) {
  // take() hands a malformed program over; Executor::run, the one entry
  // every program crosses, rejects it before its first command.
  auto b = builder();
  b.ldi(0, 5);
  b.act(16, 0);  // the paper part has 16 banks per pseudo channel
  const Program program = b.take();
  try {
    (void)executor_.run(program, 0, 0, 0);
    FAIL() << "expected ProgramError";
  } catch (const common::ProgramError& e) {
    EXPECT_STREQ(e.what(), "instruction 1 (ACT): bank out of range");
    EXPECT_TRUE(e.context().empty());
  }
}

TEST_F(ExecutorTest, TimingViolationsInProgramsSurface) {
  auto b = builder();
  b.ldi(0, 5);
  b.act(0, 0);
  b.pre(0);  // immediately: violates tRAS
  EXPECT_THROW(executor_.run(b.take(), 0, 0, 0), common::TimingError);
}

TEST_F(ExecutorTest, PropagatedErrorsCarryExecutionContext) {
  auto b = builder();
  b.ldi(0, 5);
  b.act(0, 0);
  b.pre(0);  // violates tRAS on the third instruction (pc 2)
  try {
    (void)executor_.run(b.take(), 0, 0, 0);
    FAIL() << "expected TimingError";
  } catch (const common::TimingError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after 3 instructions"), std::string::npos) << what;
    EXPECT_NE(what.find("pc 2"), std::string::npos) << what;
    EXPECT_NE(what.find("PRE"), std::string::npos) << what;  // disassembly
    EXPECT_FALSE(e.context().empty());
  }
}

TEST_F(ExecutorTest, BudgetErrorsCarryContextToo) {
  // Five instructions run; the overrun names the sixth, pc 5, which did not.
  auto b = builder();
  b.hammer_loop_raw(0, 100, 102, 4096);
  try {
    (void)executor_.run(b.take(), 0, 0, 0, 5);
    FAIL() << "expected ProgramError";
  } catch (const common::ProgramError& e) {
    EXPECT_EQ(std::string(e.what()),
              "instruction budget exceeded (runaway loop?) "
              "[after 5 instructions, cycle 5, pc 5: SLEEP 18]");
  }
}

TEST_F(ExecutorTest, RunMetricsReportCommandMixAndThroughput) {
  auto b = builder();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0x11));
  b.init_row(0, 7, 0);
  b.read_row(0, 7);
  b.ref();
  b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  const auto result = executor_.run(b.take(), 0, 0, 0);
  const auto columns = device_.geometry().columns_per_row;
  EXPECT_EQ(result.metrics.acts, 2u);
  EXPECT_EQ(result.metrics.precharges, 2u);
  EXPECT_EQ(result.metrics.writes, columns);
  EXPECT_EQ(result.metrics.reads, columns);
  EXPECT_EQ(result.metrics.refreshes, 1u);
  EXPECT_GT(result.metrics.host_seconds, 0.0);
}

TEST_F(ExecutorTest, HammerMacroCountsUnrolledActsInMetrics) {
  auto b = builder();
  b.ldi(0, 100);
  b.ldi(1, 102);
  b.hammer(0, 0, 1, 1000);
  const auto result = executor_.run(b.take(), 0, 0, 0);
  EXPECT_EQ(result.metrics.acts, 2000u);        // 1000 double-sided pairs
  EXPECT_EQ(result.metrics.precharges, 2000u);  // each ACT pairs with a PRE
}

TEST_F(ExecutorTest, MrsReachesTheDevice) {
  auto b = builder();
  b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
  (void)executor_.run(b.take(), 2, 0, 0);
  EXPECT_FALSE(device_.mode_registers(2).ecc_enabled());
  EXPECT_TRUE(device_.mode_registers(0).ecc_enabled());
}

TEST_F(ExecutorTest, RefWithTrfcSleepIsLegal) {
  auto b = builder();
  b.ref();
  b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  b.ref();
  b.sleep(static_cast<std::int64_t>(device_.timings().tRFC));
  (void)executor_.run(b.take(), 0, 0, 0);  // no throw
}

TEST_F(ExecutorTest, RawHammerLoopRunsWithoutTimingViolations) {
  auto b = builder();
  b.hammer_loop_raw(0, 100, 102, 50);
  const auto result = executor_.run(b.take(), 0, 0, 0);
  EXPECT_GT(result.instructions_executed, 50u * 6);
}

TEST_F(ExecutorTest, PreaClosesEveryOpenBank) {
  auto b = builder();
  const auto tRRD = static_cast<std::int64_t>(device_.timings().tRRD);
  b.ldi(0, 10);
  b.ldi(1, 20);
  b.act(0, 0);
  b.sleep(tRRD);
  b.act(1, 1);
  b.sleep(static_cast<std::int64_t>(device_.timings().tRAS));
  b.prea();
  (void)executor_.run(b.take(), 0, 0, 0);
  EXPECT_FALSE(device_.bank(hbm::BankAddress{0, 0, 0}).is_open());
  EXPECT_FALSE(device_.bank(hbm::BankAddress{0, 0, 1}).is_open());
}

TEST_F(ExecutorTest, InterleavedBanksRespectTRrdAndOperateIndependently) {
  // Two banks of one pseudo channel, activations tRRD apart: both rows
  // open simultaneously, writes land in the right bank.
  auto b = builder();
  const auto& t = device_.timings();
  b.program().set_wide_register(0, core::make_row_image(device_.geometry(), 0x11));
  b.program().set_wide_register(1, core::make_row_image(device_.geometry(), 0x22));
  b.ldi(0, 10);
  b.ldi(1, 20);
  b.ldi(2, 0);  // column 0
  b.act(0, 0);
  b.sleep(static_cast<std::int64_t>(t.tRRD));
  b.act(1, 1);
  b.sleep(static_cast<std::int64_t>(t.tRCD));
  b.wr(0, 2, 0);
  b.sleep(static_cast<std::int64_t>(t.tCCD));
  b.wr(1, 2, 1);
  b.sleep(static_cast<std::int64_t>(t.tWR + t.tRAS));
  b.prea();
  b.sleep(static_cast<std::int64_t>(t.tRP));
  b.read_row(0, 10);
  b.read_row(1, 20);
  const auto result = executor_.run(b.take(), 0, 0, 0);
  const std::size_t row_bytes = device_.geometry().row_bytes();
  ASSERT_EQ(result.readback.size(), 2 * row_bytes);
  EXPECT_EQ(result.readback[0], 0x11);             // bank 0, column 0
  EXPECT_EQ(result.readback[row_bytes], 0x22);     // bank 1, column 0
}

TEST_F(ExecutorTest, TooCloseCrossBankActsViolateTRrd) {
  auto b = builder();
  b.ldi(0, 10);
  b.ldi(1, 20);
  b.act(0, 0);
  b.act(1, 1);  // 1 cycle later: tRRD violation
  EXPECT_THROW(executor_.run(b.take(), 0, 0, 0), common::TimingError);
}

TEST_F(ExecutorTest, RawLoopAndMacroDepositEqualVictimDisturbance) {
  hbm::Device macro_device{hbm::DeviceConfig{}};
  hbm::Device loop_device{hbm::DeviceConfig{}};
  Executor macro_exec(macro_device);
  Executor loop_exec(loop_device);
  const std::uint32_t count = 40;

  auto mb = ProgramBuilder(macro_device.geometry(), macro_device.timings());
  mb.ldi(0, 100);
  mb.ldi(1, 101);  // physical 100 and 102: double-sided around physical 101
  mb.hammer(0, 0, 1, count);
  (void)macro_exec.run(mb.take(), 0, 0, 0);

  auto lb = ProgramBuilder(loop_device.geometry(), loop_device.timings());
  lb.hammer_loop_raw(0, 100, 101, count);
  (void)loop_exec.run(lb.take(), 0, 0, 0);

  const double macro_d =
      macro_device.bank(hbm::BankAddress{0, 0, 0}).disturbance_of_physical(101);
  EXPECT_GT(macro_d, 0.0);
  EXPECT_DOUBLE_EQ(
      macro_d, loop_device.bank(hbm::BankAddress{0, 0, 0}).disturbance_of_physical(101));
}

}  // namespace
}  // namespace rh::bender
