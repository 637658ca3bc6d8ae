// The differential engine rig: every program that runs through the fast
// engine (closed-form loop fast-forward, cached fault kernel) must be
// observationally identical to the reference engine, which steps every
// instruction of the same interpreter — readback bytes, clocks, command
// mix, device state, TRR sampler state, telemetry counters, flip events,
// and error strings.
//
// Inputs come from three directions so the rig is not testing what it
// generated itself: the committed .rhcs corpus (timing repros and boundary
// streams, compiled into Bender programs), seeded verify::generator streams,
// and hand-built hammer programs that exercise the fast-forward and macro-op
// paths at their boundaries.
//
// The rig also proves its own sensitivity: each PlantedBug (the three ways
// the closed-form math most plausibly goes wrong) must produce a divergence
// the comparison catches — a differential test that cannot see a planted
// off-by-one would also miss a real one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bender/executor.hpp"
#include "bender/host.hpp"
#include "bender/program.hpp"
#include "common/engine.hpp"
#include "common/rng.hpp"
#include "hbm/device.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/command_stream.hpp"
#include "verify/generator.hpp"

#ifndef RH_CORPUS_DIR
#error "RH_CORPUS_DIR must point at tests/corpus"
#endif

namespace rh {
namespace {

constexpr std::uint32_t kChannel = 0;
constexpr std::uint32_t kPseudoChannel = 0;

std::vector<std::string> corpus_files() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(RH_CORPUS_DIR)) {
    if (entry.path().extension() == ".rhcs") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::uint8_t> row_pattern(const hbm::Geometry& geometry) {
  std::vector<std::uint8_t> pattern(geometry.row_bytes());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(0xA5u ^ (i * 7u));
  }
  return pattern;
}

// Compiles a verify command stream into a Bender program. Absolute stream
// cycles are dilated x4 (+16 start offset) so each command has room for its
// register setup instruction; dilation only widens command gaps, so every
// minimum-separation rule a stream satisfied still holds (streams that
// violated one may become legal — irrelevant here, the assertion is engine
// agreement, not the verdict).
bender::Program compile_stream(const verify::StreamFile& file, const hbm::Geometry& geometry) {
  bender::ProgramBuilder b(geometry, file.timings);
  constexpr hbm::Cycle kDilate = 4;
  constexpr hbm::Cycle kOffset = 16;
  for (const verify::Command& cmd : file.commands) {
    const bool needs_reg = cmd.op == verify::Op::kAct || cmd.op == verify::Op::kRead ||
                           cmd.op == verify::Op::kWrite;
    const hbm::Cycle target = cmd.cycle * kDilate + kOffset;
    const hbm::Cycle setup = needs_reg ? 1 : 0;
    const hbm::Cycle cur = b.virtual_cycles();
    // Streams may carry same-cycle commands (one per bank); issue those as
    // soon as the setup allows. The x4 dilation absorbs the slip, and the
    // assertion is engine agreement, so even a stream this nudges into a
    // timing violation stays a valid differential input.
    const hbm::Cycle slack = target < cur + setup ? 0 : target - setup - cur;
    if (slack == 1) {
      b.nop();
    } else if (slack >= 2) {
      b.sleep(static_cast<std::int64_t>(slack - 1));
    }
    const auto bank = static_cast<std::uint8_t>(cmd.bank);
    switch (cmd.op) {
      case verify::Op::kAct:
        b.ldi(1, cmd.arg).act(bank, 1);
        break;
      case verify::Op::kPre:
        b.pre(bank);
        break;
      case verify::Op::kPreAll:
        b.prea();
        break;
      case verify::Op::kRead:
        b.ldi(1, cmd.arg).rd(bank, 1);
        break;
      case verify::Op::kWrite:
        b.ldi(1, cmd.arg).wr(bank, 1, 0);
        break;
      case verify::Op::kRef:
        b.ref();
        break;
    }
  }
  b.program().set_wide_register(0, row_pattern(geometry));
  return b.take();
}

/// Full post-run device state of the pseudo channel under test: per-bank
/// protocol/fault statistics, every nonzero pending disturbance, and the
/// proprietary TRR sampler internals. Doubles print as hexfloat so the
/// comparison is bit-exact, not round-trip-lossy.
std::string digest_device(hbm::Device& device) {
  std::ostringstream os;
  os << std::hexfloat;
  const hbm::Geometry& geometry = device.geometry();
  hbm::PseudoChannel& pc = device.pseudo_channel(kChannel, kPseudoChannel);
  for (std::uint32_t bk = 0; bk < pc.bank_count(); ++bk) {
    const hbm::Bank& bank = pc.bank(bk);
    const hbm::Bank::Stats& s = bank.stats();
    const bool quiet = s.activates == 0 && s.reads == 0 && s.writes == 0 && s.settles == 0 &&
                       bank.tracked_rows() == 0 && !bank.is_open();
    if (quiet) continue;
    os << "bank " << bk << ": acts=" << s.activates << " rd=" << s.reads << " wr=" << s.writes
       << " rh=" << s.rowhammer_flips << " ret=" << s.retention_flips
       << " ecc=" << s.ecc_corrections << " settles=" << s.settles
       << " tracked=" << bank.tracked_rows();
    if (bank.is_open()) os << " open=" << bank.open_logical_row();
    os << "\n";
    for (std::uint32_t row = 0; row < geometry.rows_per_bank; ++row) {
      const double d = bank.disturbance_of_physical(row);
      if (d != 0.0) os << "  dist " << row << " = " << d << "\n";
    }
  }
  const trr::ProprietaryTrr& trr = pc.proprietary_trr();
  os << "trr: refs=" << trr.ref_count() << " valid=" << trr.sample_valid();
  if (trr.sample_valid()) {
    os << " sample=b" << trr.sample().bank << ",r" << trr.sample().logical_row;
  }
  os << " sr=" << pc.in_self_refresh() << "\n";
  return os.str();
}

/// Everything the telemetry sink observed: the registry snapshot (all
/// counters here are pure functions of the command stream), the TRR and
/// flip event streams, and the per-bank ACT heatmap.
std::string digest_telemetry(const telemetry::Telemetry& sink) {
  std::ostringstream os;
  sink.snapshot().write_json(os);
  os << "\n" << std::hexfloat;
  for (const telemetry::TrrEvent& ev : sink.trr_events()) {
    os << "trr " << ev.cycle << " b" << static_cast<int>(ev.bank) << " r" << ev.logical_row
       << " doc=" << ev.documented << "\n";
  }
  for (const telemetry::FlipEvent& ev : sink.flip_events()) {
    os << "flip " << ev.cycle << " b" << static_cast<int>(ev.bank) << " pr" << ev.physical_row
       << " rh=" << ev.rowhammer_bits << " ret=" << ev.retention_bits << " d=" << ev.disturbance
       << "\n";
  }
  const std::vector<std::uint64_t>& heat = sink.bank_act_counts();
  for (std::size_t i = 0; i < heat.size(); ++i) {
    if (heat[i] != 0) os << "heat " << i << "=" << heat[i] << "\n";
  }
  return os.str();
}

struct EngineRun {
  std::optional<bender::ExecutionResult> result;
  std::string error;  ///< what() of the propagated failure; empty on success
  std::string device_digest;
  std::string telemetry_digest;
};

EngineRun run_one(const hbm::DeviceConfig& config, const bender::Program& program,
                  common::EngineKind kind, common::PlantedBug bug = common::PlantedBug::kNone) {
  bender::BenderHost host(config);
  host.set_engine(kind, bug);
  telemetry::TelemetryConfig sink_config;
  sink_config.trace_enabled = false;
  telemetry::Telemetry sink(sink_config);
  host.set_telemetry(&sink);
  EngineRun out;
  try {
    out.result = host.run(program, kChannel, kPseudoChannel);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.device_digest = digest_device(host.device());
  out.telemetry_digest = digest_telemetry(sink);
  host.set_telemetry(nullptr);
  return out;
}

/// The equivalence contract, observable by observable. Wall-clock metrics
/// (host_seconds, instructions_per_second) are excluded; simulated-time
/// metrics must match as exact doubles.
void expect_identical(const EngineRun& fast, const EngineRun& interp) {
  EXPECT_EQ(fast.error, interp.error);
  ASSERT_EQ(fast.result.has_value(), interp.result.has_value());
  if (fast.result.has_value()) {
    const bender::ExecutionResult& f = *fast.result;
    const bender::ExecutionResult& i = *interp.result;
    EXPECT_EQ(f.readback, i.readback);
    EXPECT_EQ(f.start_cycle, i.start_cycle);
    EXPECT_EQ(f.end_cycle, i.end_cycle);
    EXPECT_EQ(f.instructions_executed, i.instructions_executed);
    EXPECT_EQ(f.metrics.acts, i.metrics.acts);
    EXPECT_EQ(f.metrics.precharges, i.metrics.precharges);
    EXPECT_EQ(f.metrics.reads, i.metrics.reads);
    EXPECT_EQ(f.metrics.writes, i.metrics.writes);
    EXPECT_EQ(f.metrics.refreshes, i.metrics.refreshes);
    EXPECT_EQ(f.metrics.mode_register_writes, i.metrics.mode_register_writes);
    EXPECT_EQ(f.metrics.sim_wall_ms, i.metrics.sim_wall_ms);
    EXPECT_EQ(f.metrics.act_rate_hz, i.metrics.act_rate_hz);
  }
  EXPECT_EQ(fast.device_digest, interp.device_digest);
  EXPECT_EQ(fast.telemetry_digest, interp.telemetry_digest);
}

/// True when any observable the rig compares diverges (the sensitivity
/// check: a planted bug must make this true).
bool runs_differ(const EngineRun& a, const EngineRun& b) {
  if (a.error != b.error) return true;
  if (a.result.has_value() != b.result.has_value()) return true;
  if (a.result.has_value()) {
    const bender::ExecutionResult& f = *a.result;
    const bender::ExecutionResult& i = *b.result;
    if (f.readback != i.readback || f.end_cycle != i.end_cycle ||
        f.instructions_executed != i.instructions_executed || f.metrics.acts != i.metrics.acts) {
      return true;
    }
  }
  return a.device_digest != b.device_digest || a.telemetry_digest != b.telemetry_digest;
}

TEST(EngineDiff, FastEngineIsTheDefault) {
  bender::BenderHost host{hbm::DeviceConfig{}};
  EXPECT_EQ(host.engine(), common::EngineKind::kFast);
  EXPECT_EQ(host.device().engine(), common::EngineKind::kFast);
}

TEST(EngineDiff, CorpusIsSeeded) {
  // Mirrors corpus_replay_test: an empty corpus means this rig tests nothing.
  EXPECT_GE(corpus_files().size(), 10u);
}

TEST(EngineDiff, CorpusStreamsExecuteIdenticallyOnBothEngines) {
  for (const std::string& path : corpus_files()) {
    SCOPED_TRACE(path);
    const verify::StreamFile file = verify::load_stream_file(path);
    ASSERT_FALSE(file.commands.empty());
    hbm::DeviceConfig config;
    ASSERT_LE(file.banks, config.geometry.banks_per_pseudo_channel);
    config.timings = file.timings;
    const bender::Program program = compile_stream(file, config.geometry);
    expect_identical(run_one(config, program, common::EngineKind::kFast),
                     run_one(config, program, common::EngineKind::kInterp));
  }
}

TEST(EngineDiff, GeneratedStreamsExecuteIdentically) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    common::Xoshiro256 rng(seed * 1000 + 7);
    verify::GenConfig gen;
    if (seed % 2 == 0) gen.banks = 16;  // alternate traffic spread
    verify::StreamFile file;
    file.commands = verify::generate_valid(rng, gen);
    file.timings = gen.timings;
    file.banks = gen.banks;
    ASSERT_FALSE(file.commands.empty());
    hbm::DeviceConfig config;
    config.timings = file.timings;
    const bender::Program program = compile_stream(file, config.geometry);
    expect_identical(run_one(config, program, common::EngineKind::kFast),
                     run_one(config, program, common::EngineKind::kInterp));
  }
}

TEST(EngineDiff, HammerLoopFastForwardBoundaries) {
  // The unrolled register loop is what the fast engine fast-forwards in
  // closed form; sweep iteration counts across the interesting boundaries
  // (tiny loops the math must not over-advance, larger ones where the
  // closed form carries real weight, and counts big enough to flip bits).
  const hbm::DeviceConfig config;
  for (const std::uint32_t count : {1u, 2u, 3u, 16u, 17u, 255u, 1024u, 4096u}) {
    SCOPED_TRACE(count);
    bender::ProgramBuilder b(config.geometry, config.timings);
    b.init_row(0, 101, 0);
    b.hammer_loop_raw(0, 100, 102, count);
    b.read_row(0, 101);
    b.program().set_wide_register(0, row_pattern(config.geometry));
    const bender::Program program = b.take();
    expect_identical(run_one(config, program, common::EngineKind::kFast),
                     run_one(config, program, common::EngineKind::kInterp));
  }
}

TEST(EngineDiff, BudgetOverrunInsideAFastForwardedLoopMatches) {
  // A budget that runs out inside a fast-forwardable loop: the fast engine
  // retires the whole iterations that fit and lets stepping raise the
  // budget error, which must carry the interpreter's exact context. The
  // budgets land in the loop setup, on and beside iteration boundaries,
  // and deep into the loop.
  const hbm::DeviceConfig config;
  bender::ProgramBuilder b(config.geometry, config.timings);
  b.hammer_loop_raw(0, 100, 102, 4096);
  const bender::Program program = b.take();
  const auto overrun = [&](bender::Executor& engine, std::uint64_t budget) {
    try {
      (void)engine.run(program, kChannel, kPseudoChannel, 0, budget);
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  for (const std::uint64_t budget : {5ull, 100ull, 1000ull, 1001ull, 1003ull, 7777ull, 40000ull}) {
    SCOPED_TRACE(budget);
    hbm::Device fast_device(config);
    fast_device.set_engine(common::EngineKind::kFast);
    hbm::Device interp_device(config);
    interp_device.set_engine(common::EngineKind::kInterp);
    bender::Executor fast(fast_device);
    bender::Executor interp(interp_device);
    const std::string fast_error = overrun(fast, budget);
    EXPECT_NE(fast_error.find("instruction budget exceeded"), std::string::npos) << fast_error;
    EXPECT_EQ(fast_error, overrun(interp, budget));
    EXPECT_EQ(digest_device(fast_device), digest_device(interp_device));
  }
}

/// A macro-op hammer session with enough REFs to fire the proprietary TRR
/// (period 17) twice, then a victim readback: exercises the batched bank
/// path, the sampler, the victim refresh, and the fault kernel end to end.
bender::Program hammer_macro_program(const hbm::DeviceConfig& config, std::uint64_t count,
                                     int refs) {
  bender::ProgramBuilder b(config.geometry, config.timings);
  // Aggressors logical 200/202 sit on *physically adjacent* rows under the
  // default pair-swap decoder, so each one's batch deposits disturbance on
  // the other — the pending state the macro-op's final own-ACT re-settle
  // must clear (what kStaleDisturbanceFlush breaks).
  b.init_row(0, 201, 0);
  b.ldi(1, 200).ldi(2, 202);
  b.hammer(0, 1, 2, static_cast<std::int64_t>(count));
  for (int i = 0; i < refs; ++i) b.sleep(1000).ref();
  if (refs > 0) b.sleep(1000);  // clear tRFC before reopening the bank
  b.read_row(0, 201);
  b.program().set_wide_register(0, row_pattern(config.geometry));
  return b.take();
}

TEST(EngineDiff, HammerMacroOpWithTrrAndRefreshIdentical) {
  const hbm::DeviceConfig config;
  for (const std::uint64_t count : {1000ull, 60000ull}) {
    SCOPED_TRACE(count);
    const bender::Program program = hammer_macro_program(config, count, 35);
    expect_identical(run_one(config, program, common::EngineKind::kFast),
                     run_one(config, program, common::EngineKind::kInterp));
  }
}

TEST(EngineDiff, ErrorPathsMatchExactly) {
  // ACT on an already-open bank: both engines must throw, and the attached
  // context (pc, cycle, disassembly, executed count) must render the same
  // what() string — diagnosability is part of the equivalence contract.
  const hbm::DeviceConfig config;
  bender::ProgramBuilder b(config.geometry, config.timings);
  b.ldi(1, 5).act(0, 1).act(0, 1);
  const bender::Program program = b.take();
  const EngineRun fast = run_one(config, program, common::EngineKind::kFast);
  const EngineRun interp = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_FALSE(fast.error.empty());
  expect_identical(fast, interp);
}

TEST(EngineDiff, InterpEngineIgnoresPlantedBugs) {
  // Bugs are fast-path-only by contract: requesting one alongside kInterp
  // must leave the reference interpreter untouched.
  const hbm::DeviceConfig config;
  const bender::Program program = hammer_macro_program(config, 5000, 20);
  const EngineRun clean = run_one(config, program, common::EngineKind::kInterp);
  for (const common::PlantedBug bug :
       {common::PlantedBug::kOffByOneFastForward, common::PlantedBug::kSkipTrrSample,
        common::PlantedBug::kStaleDisturbanceFlush}) {
    SCOPED_TRACE(to_string(bug));
    expect_identical(run_one(config, program, common::EngineKind::kInterp, bug), clean);
  }
}

TEST(EngineDiff, PlantedOffByOneFastForwardIsCaught) {
  // The fast-forward replays one loop iteration too few: the ACT mix, the
  // accumulated disturbance, and the victim readback all shift. The rig
  // must see it — otherwise it could not see a real off-by-one either.
  const hbm::DeviceConfig config;
  bender::ProgramBuilder b(config.geometry, config.timings);
  b.init_row(0, 101, 0);
  b.hammer_loop_raw(0, 100, 102, 513);
  b.read_row(0, 101);
  b.program().set_wide_register(0, row_pattern(config.geometry));
  const bender::Program program = b.take();
  const EngineRun buggy =
      run_one(config, program, common::EngineKind::kFast, common::PlantedBug::kOffByOneFastForward);
  const EngineRun reference = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_TRUE(runs_differ(buggy, reference));
}

TEST(EngineDiff, PlantedSkipTrrSampleIsCaught) {
  // The batched macro-op forgets to let the sampler observe the second
  // aggressor: the sampler retains row_a where the reference holds row_b,
  // and the TRR victim refreshes land on the wrong neighbourhood.
  const hbm::DeviceConfig config;
  const bender::Program program = hammer_macro_program(config, 5000, 20);
  const EngineRun buggy =
      run_one(config, program, common::EngineKind::kFast, common::PlantedBug::kSkipTrrSample);
  const EngineRun reference = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_TRUE(runs_differ(buggy, reference));
}

TEST(EngineDiff, PlantedStaleDisturbanceFlushIsCaught) {
  // The batched macro-op forgets that each aggressor's final ACT re-settles
  // it: stale disturbance stays pending on the aggressor rows, visible in
  // the device digest (and, after the next settle, as phantom flips).
  const hbm::DeviceConfig config;
  const bender::Program program = hammer_macro_program(config, 5000, 0);
  const EngineRun buggy = run_one(config, program, common::EngineKind::kFast,
                                  common::PlantedBug::kStaleDisturbanceFlush);
  const EngineRun reference = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_TRUE(runs_differ(buggy, reference))
      << "buggy digest:\n" << buggy.device_digest
      << "reference digest:\n" << reference.device_digest;
}

}  // namespace
}  // namespace rh
