// The differential engine rig: every program that runs through the fast
// engine (row-burst kernel, cached fault kernel, REF-sweep stamp lane)
// must be observationally identical to the reference engine, which runs
// the same interpreter — readback bytes, clocks, command mix, device
// state, TRR sampler state, telemetry counters, flip events, and error
// strings.
//
// Inputs come from three directions so the rig is not testing what it
// generated itself: the committed .rhcs corpus (timing repros and boundary
// streams, compiled into Bender programs), seeded verify::generator streams,
// and hand-built programs that exercise the register-loop, macro-op and
// row-burst paths at their boundaries, plus a U-TRR-shaped retention
// session whose idle waits drive the cached retention kernel.
//
// The rig also proves its own sensitivity: each PlantedBug (the three ways
// a batched kernel most plausibly goes wrong) must produce a divergence the
// comparison catches — a differential test that cannot see a planted bug
// would also miss a real one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bender/executor.hpp"
#include "bender/host.hpp"
#include "bender/program.hpp"
#include "common/engine.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/data_patterns.hpp"
#include "core/retention_profiler.hpp"
#include "core/row_map.hpp"
#include "fault/cell_traits.hpp"
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

/// Runs `session` on a fresh host of `config` under `kind`, with a
/// telemetry sink attached; the session's result is the run's result.
EngineRun run_session(const hbm::DeviceConfig& config, common::EngineKind kind,
                      const std::function<bender::ExecutionResult(bender::BenderHost&)>& session,
                      common::PlantedBug bug = common::PlantedBug::kNone) {
  bender::BenderHost host(config);
  host.set_engine(kind, bug);
  telemetry::TelemetryConfig sink_config;
  sink_config.trace_enabled = false;
  telemetry::Telemetry sink(sink_config);
  host.set_telemetry(&sink);
  EngineRun out;
  try {
    out.result = session(host);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.device_digest = digest_device(host.device());
  out.telemetry_digest = digest_telemetry(sink);
  host.set_telemetry(nullptr);
  return out;
}

EngineRun run_one(const hbm::DeviceConfig& config, const bender::Program& program,
                  common::EngineKind kind, common::PlantedBug bug = common::PlantedBug::kNone) {
  return run_session(
      config, kind,
      [&](bender::BenderHost& host) { return host.run(program, kChannel, kPseudoChannel); }, bug);
}

/// The equivalence contract, observable by observable. The wall-clock
/// metric (host_seconds) is excluded.
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

TEST(EngineDiff, HammerLoopBoundaries) {
  // The unrolled register loop that the HAMMER macro-op stands for, stepped
  // on both engines; sweep iteration counts across the interesting
  // boundaries (tiny loops, larger ones, and counts big enough to flip
  // bits).
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

TEST(EngineDiff, BudgetOverrunInsideALoopMatches) {
  // A budget that runs out inside a register loop: the budget error must
  // carry the same context on both engines. The budgets land in the loop
  // setup, on and beside iteration boundaries, and deep into the loop.
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

/// A U-TRR-shaped session (§5) on physical row `probe` of bank 0: profile
/// the row's retention time T, then, for `iterations` iterations, write the
/// row, idle 0.75 T, touch the aggressor and issue one REF, idle 0.75 T
/// and read the row; last, one read after an idle of `long_wait_ms`. Every
/// read settles the probe row's decay; a TRR victim refresh settles it
/// mid-wait. The result is the last read's, carrying every readback in
/// order; T goes to `retention_ms`.
bender::ExecutionResult utrr_session(bender::BenderHost& host, std::uint32_t probe,
                                     std::uint32_t iterations, double long_wait_ms,
                                     double& retention_ms) {
  const hbm::Device& device = host.device();
  const core::RowMap map = core::RowMap::from_device(device);
  const core::Site site{kChannel, kPseudoChannel, 0};
  const auto profile = core::RetentionProfiler(host, map).profile(site, probe);
  if (!profile) throw common::Error("probe row has no measurable retention time");
  retention_ms = profile->retention_ms;
  const double half_wait = 0.75 * retention_ms;
  const std::uint32_t logical_probe = map.physical_to_logical(probe);
  const std::uint32_t logical_aggressor = map.physical_to_logical(probe + 1);
  const auto init = [&] {
    bender::ProgramBuilder b(device.geometry(), device.timings());
    b.program().set_wide_register(0, core::make_row_image(device.geometry(), 0x00));
    b.init_row(0, logical_probe, 0);
    host.run(b.take(), kChannel, kPseudoChannel);
  };
  std::vector<std::uint8_t> readbacks;
  bender::ExecutionResult last;
  const auto read = [&] {
    bender::ProgramBuilder b(device.geometry(), device.timings());
    b.mrs(hbm::ModeRegisters::kEccRegister, 0x0).read_row(0, logical_probe);
    last = host.run(b.take(), kChannel, kPseudoChannel);
    readbacks.insert(readbacks.end(), last.readback.begin(), last.readback.end());
  };
  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    init();
    host.idle_ms(half_wait);
    bender::ProgramBuilder touch(device.geometry(), device.timings());
    touch.touch_row(0, logical_aggressor).ref();
    touch.sleep(static_cast<std::int64_t>(device.timings().tRFC));
    host.run(touch.take(), kChannel, kPseudoChannel);
    host.idle_ms(half_wait);
    read();
  }
  init();
  host.idle_ms(long_wait_ms);
  read();
  last.readback = std::move(readbacks);
  return last;
}

TEST(EngineDiff, RetentionSideChannelSessionIdentical) {
  // Retention decay through a whole U-TRR session. Under kFast the
  // profiler's waits and every iteration's settles (a mid-wait TRR refresh
  // below the row's weakest cell, the read just above it) walk the cached
  // retention tail; the final 4 s wait reaches past the cached tier and
  // takes the reference scan. 20 iterations span one 17-REF TRR period.
  const hbm::DeviceConfig config;
  constexpr std::uint32_t kProbe = 4096;
  constexpr std::uint32_t kIterations = 20;
  constexpr double kLongWaitMs = 4000.0;
  double fast_ms = 0.0;
  double interp_ms = 0.0;
  const EngineRun fast = run_session(config, common::EngineKind::kFast, [&](auto& host) {
    return utrr_session(host, kProbe, kIterations, kLongWaitMs, fast_ms);
  });
  const EngineRun interp = run_session(config, common::EngineKind::kInterp, [&](auto& host) {
    return utrr_session(host, kProbe, kIterations, kLongWaitMs, interp_ms);
  });
  ASSERT_TRUE(fast.error.empty()) << fast.error;
  EXPECT_EQ(fast_ms, interp_ms);
  expect_identical(fast, interp);
  // The session exercised both outcomes: reads that decayed, and at least
  // one read the TRR refresh kept clean.
  const std::size_t row_bytes = config.geometry.row_bytes();
  ASSERT_EQ(fast.result->readback.size(), (kIterations + 1) * row_bytes);
  std::uint32_t clean = 0;
  for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
    const std::span<const std::uint8_t> row(fast.result->readback.data() + iter * row_bytes,
                                            row_bytes);
    if (core::count_flips(row, 0x00).total == 0) ++clean;
  }
  EXPECT_GE(clean, 1u);
  EXPECT_LT(clean, kIterations);
}

/// A session on bank 0 where the REF sweep's stamps are observable. The
/// sweep passes never-written rows (four REFs; a self-refresh stay shorter
/// than a refresh window; REFs after a full one), a neighbour's hammers
/// then disturb them, and each is read back (ECC off) 300 ms later, past
/// the shortest retention time at 85 degC (~55 ms): its power-on image
/// decays from the sweep's stamp, not from power-up. Rows disturbed before
/// a sweep (settled by it) and a disturbed row no sweep passed are read
/// too. The result is the last read's, carrying every readback in order.
bender::ExecutionResult sweep_stamp_session(bender::BenderHost& host) {
  const hbm::Device& device = host.device();
  const core::RowMap map = core::RowMap::from_device(device);
  const hbm::TimingParams& t = device.timings();
  std::vector<std::uint8_t> readbacks;
  bender::ExecutionResult last;
  const auto run = [&](const std::function<void(bender::ProgramBuilder&)>& body) {
    bender::ProgramBuilder b(device.geometry(), device.timings());
    body(b);
    last = host.run(b.take(), kChannel, kPseudoChannel);
    readbacks.insert(readbacks.end(), last.readback.begin(), last.readback.end());
  };
  const auto hammer_next_to = [&](bender::ProgramBuilder& b, std::uint32_t physical) {
    b.ldi(1, map.physical_to_logical(physical)).hammer_single(0, 1, 50000);
  };
  const auto refs = [&](bender::ProgramBuilder& b, int n) {
    for (int i = 0; i < n; ++i) b.ref().sleep(static_cast<std::int64_t>(t.tRFC));
  };
  const auto self_refresh = [&](bender::ProgramBuilder& b, double stay_ms) {
    b.sr_enter().sleep(static_cast<std::int64_t>(hbm::ms_to_cycles(stay_ms))).sr_exit();
  };
  const auto read_after_wait = [&](std::initializer_list<std::uint32_t> physical_rows) {
    host.idle_ms(300.0);
    run([&](bender::ProgramBuilder& b) {
      b.mrs(hbm::ModeRegisters::kEccRegister, 0x0);
      for (const std::uint32_t row : physical_rows) b.read_row(0, map.physical_to_logical(row));
    });
  };

  // REFs 1-4 sweep physical rows 0-7: rows 5 and 7 already hold the
  // disturbance of row 6's hammers, rows 1 and 3 nothing until row 2's;
  // row 9 (row 10's) is never swept.
  host.idle_ms(600.0);
  run([&](bender::ProgramBuilder& b) {
    hammer_next_to(b, 6);
    hammer_next_to(b, 10);
    refs(b, 4);
    hammer_next_to(b, 2);
  });
  read_after_wait({1, 3, 5, 9});
  // 10 ms inside: ~2,560 internal REFs sweep rows 8 to ~5,130.
  run([&](bender::ProgramBuilder& b) {
    self_refresh(b, 10.0);
    hammer_next_to(b, 1000);
  });
  read_after_wait({999, 1001});
  // 40 ms inside: a full window, then two REFs past the partial sweep.
  run([&](bender::ProgramBuilder& b) {
    self_refresh(b, 40.0);
    hammer_next_to(b, 3000);
    refs(b, 2);
    hammer_next_to(b, 5136);
  });
  read_after_wait({2999, 5135, 5137});
  last.readback = std::move(readbacks);
  return last;
}

TEST(EngineDiff, RefSweepStampsMatchWhereTheyAreObservable) {
  const hbm::DeviceConfig config;
  const EngineRun fast = run_session(config, common::EngineKind::kFast, sweep_stamp_session);
  const EngineRun interp = run_session(config, common::EngineKind::kInterp, sweep_stamp_session);
  ASSERT_TRUE(fast.error.empty()) << fast.error;
  expect_identical(fast, interp);
  // Every row read back differs from its power-on image: it was settled
  // with decay (and the disturbance that materialized it).
  const std::size_t row_bytes = config.geometry.row_bytes();
  const std::uint32_t rows[] = {1, 3, 5, 9, 999, 1001, 2999, 5135, 5137};
  ASSERT_EQ(fast.result->readback.size(), std::size(rows) * row_bytes);
  const auto bank0 = fault::BankContext::from(config.geometry, hbm::BankAddress{0, 0, 0});
  for (std::size_t k = 0; k < std::size(rows); ++k) {
    std::vector<std::uint8_t> power_on(row_bytes);
    fault::fill_default_data(config.fault.seed, bank0, rows[k], power_on);
    const std::span<const std::uint8_t> got(fast.result->readback.data() + k * row_bytes,
                                            row_bytes);
    EXPECT_FALSE(std::equal(got.begin(), got.end(), power_on.begin())) << "row " << rows[k];
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

/// Opens `row` of bank 0 and waits out tRCD, so a row burst can follow.
void open_row(bender::ProgramBuilder& b, const hbm::TimingParams& timings, std::uint32_t row) {
  b.ldi(1, row).act(0, 1).sleep(static_cast<std::int64_t>(timings.tRCD));
}

TEST(EngineDiff, RowBurstsFailingMidRowMatchExactly) {
  // A burst spaced 1 < tCCD: column 0 issues, column 1 violates tCCD. The
  // kernel must leave column 0 written (read), counted and traced, as the
  // reference's per-column commands do, and raise the same what(): the
  // burst's pc and start cycle as context, the column's cycle in the
  // TimingError.
  const hbm::DeviceConfig config;
  for (const bool write : {true, false}) {
    SCOPED_TRACE(write ? "WRROW" : "RDROW");
    bender::ProgramBuilder b(config.geometry, config.timings);
    b.program().set_wide_register(0, row_pattern(config.geometry));
    open_row(b, config.timings, 33);
    if (write) {
      b.wr_row(0, 0, 1);
    } else {
      b.rd_row(0, 1);
    }
    const bender::Program program = b.take();
    const EngineRun fast = run_one(config, program, common::EngineKind::kFast);
    const EngineRun interp = run_one(config, program, common::EngineKind::kInterp);
    EXPECT_NE(fast.error.find("tCCD"), std::string::npos) << fast.error;
    EXPECT_NE(fast.device_digest.find(write ? " wr=1 " : " rd=1 "), std::string::npos)
        << fast.device_digest;
    expect_identical(fast, interp);
  }
}

TEST(EngineDiff, ReadBurstInsideTheWriteTurnaroundMatchesExactly) {
  // An RDROW whose first column clears tCCD but not tWTR after a WRROW's
  // last column.
  const hbm::DeviceConfig config;
  ASSERT_GT(config.timings.tWTR, config.timings.tCCD + 1);
  bender::ProgramBuilder b(config.geometry, config.timings);
  b.program().set_wide_register(0, row_pattern(config.geometry));
  open_row(b, config.timings, 44);
  b.wr_row(0, 0, 2).nop().rd_row(0, 2);
  const bender::Program program = b.take();
  const EngineRun fast = run_one(config, program, common::EngineKind::kFast);
  const EngineRun interp = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_NE(fast.error.find("tWTR"), std::string::npos) << fast.error;
  expect_identical(fast, interp);
}

TEST(EngineDiff, RowBurstsInsideALoopMatch) {
  // A register loop that rewrites and rereads one row per iteration: the
  // fast engine runs both bursts through its row kernel, the reference
  // column by column, at the same cycles.
  const hbm::DeviceConfig config;
  const hbm::TimingParams& t = config.timings;
  bender::ProgramBuilder b(config.geometry, t);
  b.program().set_wide_register(0, row_pattern(config.geometry));
  b.ldi(2, 0).ldi(3, 6).ldi(1, 77);
  const bender::Label loop = b.here();
  b.act(0, 1).sleep(static_cast<std::int64_t>(t.tRCD));
  b.wr_row(0, 0, 2).sleep(static_cast<std::int64_t>(t.tWTR));
  b.rd_row(0, 2).sleep(static_cast<std::int64_t>(t.tRTP + t.tWR));
  b.pre(0).sleep(static_cast<std::int64_t>(t.tRP + t.tRC));
  b.addi(2, 2, 1).blt(2, 3, loop);
  const bender::Program program = b.take();
  const EngineRun fast = run_one(config, program, common::EngineKind::kFast);
  const EngineRun interp = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_TRUE(fast.error.empty()) << fast.error;
  ASSERT_TRUE(fast.result.has_value());
  EXPECT_EQ(fast.result->readback.size(), 6u * config.geometry.row_bytes());
  EXPECT_EQ(fast.result->metrics.writes, 6u * config.geometry.columns_per_row);
  expect_identical(fast, interp);
}

TEST(EngineDiff, InterpEngineIgnoresPlantedBugs) {
  // Bugs are fast-path-only by contract: requesting one alongside kInterp
  // must leave the reference interpreter untouched.
  const hbm::DeviceConfig config;
  const bender::Program program = hammer_macro_program(config, 5000, 20);
  const EngineRun clean = run_one(config, program, common::EngineKind::kInterp);
  for (const common::PlantedBug bug :
       {common::PlantedBug::kSkipTrrSample, common::PlantedBug::kStaleDisturbanceFlush,
        common::PlantedBug::kShortRowBurst}) {
    SCOPED_TRACE(to_string(bug));
    expect_identical(run_one(config, program, common::EngineKind::kInterp, bug), clean);
  }
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

TEST(EngineDiff, PlantedShortRowBurstIsCaught) {
  // The row-burst kernel moves one column fewer than it checks, counts and
  // traces: the command mix and bank counters still agree, but the last
  // column of the written row keeps its power-on content and the last
  // column of the readback never arrives.
  const hbm::DeviceConfig config;
  bender::ProgramBuilder b(config.geometry, config.timings);
  b.init_row(0, 201, 0);
  b.read_row(0, 201);
  b.program().set_wide_register(0, row_pattern(config.geometry));
  const bender::Program program = b.take();
  const EngineRun buggy =
      run_one(config, program, common::EngineKind::kFast, common::PlantedBug::kShortRowBurst);
  const EngineRun reference = run_one(config, program, common::EngineKind::kInterp);
  EXPECT_EQ(buggy.telemetry_digest, reference.telemetry_digest);
  EXPECT_TRUE(runs_differ(buggy, reference));
}

}  // namespace
}  // namespace rh
