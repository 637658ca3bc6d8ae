// The differential property suite, expressed through verify::Property so
// every invariant reports a seeded, reproducible counterexample:
//   - oracle-vs-checker verdict agreement over fuzzed streams,
//   - serial-vs-sharded campaign byte-identity,
//   - fault-storm-vs-baseline campaign identity,
//   - fast-engine-vs-interp campaign byte-identity (serial, sharded, and
//     under a transport fault storm) plus hammer-loop boundary agreement
//     and planted fast-path bug sensitivity,
//   - scramble and row-map round-trips,
//   - on-die ECC read-path invariants.
#include "verify/property.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bender/host.hpp"
#include "bender/program.hpp"
#include "campaign/campaign.hpp"
#include "campaign/record_io.hpp"
#include "common/engine.hpp"
#include "core/row_map.hpp"
#include "core/spatial.hpp"
#include "hbm/device.hpp"
#include "hbm/ecc.hpp"
#include "hbm/scramble.hpp"
#include "verify/differential.hpp"
#include "verify/generator.hpp"

namespace rh::verify {
namespace {

void expect_passes(const Property& property, std::uint64_t seed, std::size_t cases) {
  const PropertyOutcome outcome = property.run(seed, cases);
  EXPECT_TRUE(outcome.passed) << outcome.name << " case " << outcome.failing_case << ": "
                              << outcome.counterexample;
}

/// Serializes campaign records to the exact bytes record_io would persist,
/// so "identical" means bit-identical doubles, not approximately-equal.
std::string record_bytes(const std::vector<core::RowRecord>& records) {
  std::string out;
  for (const auto& record : records) campaign::append_row_record_json(out, record);
  return out;
}

/// A two-shard-per-bank sweep small enough to run several times per case.
campaign::SweepSpec tiny_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0};
  survey.row_stride = 1024;
  survey.wcdp_by_ber = true;
  campaign::SweepSpec spec =
      campaign::survey_sweep(hbm::DeviceConfig{}, survey, /*max_rows_per_shard=*/2);
  spec.settle_thermal = false;
  return spec;
}

std::vector<core::RowRecord> run_campaign(const campaign::SweepSpec& spec, unsigned jobs,
                                          double fault_rate, std::uint64_t fault_seed,
                                          common::EngineKind engine = common::EngineKind::kFast,
                                          common::PlantedBug bug = common::PlantedBug::kNone) {
  campaign::CampaignConfig config;
  config.jobs = jobs;
  config.progress = false;
  config.retries = 3;
  config.engine = engine;
  config.engine_bug = bug;
  if (fault_rate > 0.0) {
    config.fault_plan.seed = fault_seed;
    config.fault_plan.set_storm_rates(fault_rate);
  }
  campaign::Campaign campaign(config);
  return campaign.run(spec).flat();
}

TEST(VerifyProperties, OracleAgreesWithCheckerOnFuzzedStreams) {
  expect_passes(Property("oracle/checker verdict agreement",
                         [](common::Xoshiro256& rng) -> std::optional<std::string> {
                           GenConfig cfg;
                           cfg.max_cmds = 32;
                           CommandStream stream = generate_valid(rng, cfg);
                           if (rng.below(4) != 0) (void)mutate_stream(rng, stream, cfg);
                           const auto d = compare_stream(stream, cfg.timings, cfg.banks);
                           if (!d.has_value()) return std::nullopt;
                           return "index " + std::to_string(d->index) + ": oracle=" +
                                  to_string(d->oracle) + " checker=" + to_string(d->checker) +
                                  "\n" + format_stream(stream);
                         }),
                /*seed=*/11, /*cases=*/400);
}

TEST(VerifyProperties, SerialAndShardedCampaignsAreByteIdentical) {
  const campaign::SweepSpec spec = tiny_sweep();
  expect_passes(Property("serial == sharded campaign",
                         [&spec](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const unsigned jobs = 2 + static_cast<unsigned>(rng.below(3));
                           const std::string serial = record_bytes(run_campaign(spec, 1, 0.0, 0));
                           if (serial.empty()) return "sweep produced no records";
                           const std::string sharded =
                               record_bytes(run_campaign(spec, jobs, 0.0, 0));
                           if (serial == sharded) return std::nullopt;
                           return "jobs=" + std::to_string(jobs) + ": " +
                                  std::to_string(serial.size()) + " vs " +
                                  std::to_string(sharded.size()) + " record bytes differ";
                         }),
                /*seed=*/5, /*cases=*/2);
}

TEST(VerifyProperties, FaultStormCampaignMatchesBaseline) {
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string baseline = record_bytes(run_campaign(spec, 2, 0.0, 0));
  ASSERT_FALSE(baseline.empty());
  expect_passes(Property("fault storm == baseline",
                         [&spec, &baseline](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const std::uint64_t fault_seed = rng();
                           const std::string stormed =
                               record_bytes(run_campaign(spec, 2, 0.05, fault_seed));
                           if (stormed == baseline) return std::nullopt;
                           return "fault seed " + std::to_string(fault_seed) +
                                  " changed the results";
                         }),
                /*seed=*/23, /*cases=*/2);
}

TEST(VerifyProperties, FastAndInterpCampaignsAreByteIdentical) {
  // The two-engine equivalence contract at campaign granularity: the
  // reference interpreter's serial records are the ground truth; the fast
  // engine must reproduce them byte-for-byte serial, sharded, and under a
  // 5% transport fault storm.
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string reference =
      record_bytes(run_campaign(spec, 1, 0.0, 0, common::EngineKind::kInterp));
  ASSERT_FALSE(reference.empty());
  expect_passes(
      Property("fast engine == interp engine campaign",
               [&spec, &reference](common::Xoshiro256& rng) -> std::optional<std::string> {
                 const unsigned jobs = 1 + static_cast<unsigned>(rng.below(3));
                 const double fault_rate = rng.below(2) == 0 ? 0.0 : 0.05;
                 const std::string fast = record_bytes(
                     run_campaign(spec, jobs, fault_rate, rng(), common::EngineKind::kFast));
                 if (fast == reference) return std::nullopt;
                 return "jobs=" + std::to_string(jobs) + " fault_rate=" +
                        std::to_string(fault_rate) + ": " + std::to_string(reference.size()) +
                        " vs " + std::to_string(fast.size()) + " record bytes differ";
               }),
      /*seed=*/83, /*cases=*/3);
}

/// Runs one hammer program through the chosen engine and digests every
/// cheap observable: clocks, command mix, bank statistics, the pending
/// disturbance around the aggressors, the TRR sampler, and the victim
/// readback. `use_macro` picks the batched HAMMER macro-op (the TRR/flush
/// paths) over the unrolled register loop it stands for.
std::string engine_probe_digest(common::EngineKind kind, common::PlantedBug bug,
                                std::uint32_t count, std::uint32_t row_a, std::uint32_t row_b,
                                bool use_macro, int refs = 0) {
  hbm::DeviceConfig config;
  bender::BenderHost host(config);
  host.set_engine(kind, bug);
  bender::ProgramBuilder b(config.geometry, config.timings);
  const std::uint32_t victim = (row_a + row_b) / 2;
  b.init_row(0, victim, 0);
  if (use_macro) {
    b.ldi(1, row_a).ldi(2, row_b);
    b.hammer(0, 1, 2, static_cast<std::int64_t>(count));
  } else {
    b.hammer_loop_raw(0, row_a, row_b, count);
  }
  // REFs give the proprietary TRR its firing slots (period 17), so a
  // mis-sampled aggressor turns into a victim refresh on the wrong
  // neighbourhood — the observable a sampler bug leaves behind.
  for (int i = 0; i < refs; ++i) b.sleep(1000).ref();
  if (refs > 0) b.sleep(1000);  // clear tRFC before reopening the bank
  b.read_row(0, victim);
  b.program().set_wide_register(0,
                                std::vector<std::uint8_t>(config.geometry.row_bytes(), 0x5A));
  const bender::ExecutionResult result = host.run(b.take(), 0, 0);

  const hbm::Bank& bank = host.device().bank({0, 0, 0});
  std::ostringstream os;
  os << std::hexfloat << result.end_cycle << ' ' << result.instructions_executed << ' '
     << result.metrics.acts << ' ' << result.metrics.precharges << ' ' << bank.stats().activates
     << ' ' << bank.stats().rowhammer_flips << ' ' << bank.stats().settles << '\n';
  for (std::uint32_t r = row_a - 4; r <= row_b + 4; ++r) {
    os << bank.disturbance_of_physical(r) << ' ';
  }
  const trr::ProprietaryTrr& trr =
      host.device().pseudo_channel(0, 0).proprietary_trr();
  os << "\ntrr " << trr.sample_valid();
  if (trr.sample_valid()) os << ' ' << trr.sample().bank << ' ' << trr.sample().logical_row;
  os << '\n';
  for (const std::uint8_t byte : result.readback) os << static_cast<int>(byte) << ' ';
  return os.str();
}

TEST(VerifyProperties, HammerLoopBoundariesMatchAcrossEngines) {
  // Fuzz the unrolled hammer loop's iteration count around 0, 1, and
  // power-ish thresholds +/-1. Both engines must agree on every
  // observable.
  expect_passes(
      Property("fast == interp at hammer-loop boundaries",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 static constexpr std::uint32_t kPivots[] = {0, 1, 2, 17, 64, 256, 1024};
                 const std::uint32_t pivot =
                     kPivots[rng.below(std::size(kPivots))];
                 const std::uint32_t jitter = static_cast<std::uint32_t>(rng.below(3));
                 const std::uint32_t count = pivot == 0 ? jitter : pivot - 1 + jitter;
                 const std::uint32_t row_a = 100 + 2 * static_cast<std::uint32_t>(rng.below(40));
                 const std::uint32_t row_b = row_a + 2;
                 const std::string fast = engine_probe_digest(
                     common::EngineKind::kFast, common::PlantedBug::kNone, count, row_a, row_b,
                     /*use_macro=*/false);
                 const std::string interp = engine_probe_digest(
                     common::EngineKind::kInterp, common::PlantedBug::kNone, count, row_a, row_b,
                     /*use_macro=*/false);
                 if (fast == interp) return std::nullopt;
                 return "count=" + std::to_string(count) + " rows " + std::to_string(row_a) +
                        "/" + std::to_string(row_b) + ": engines diverge\nfast:\n" + fast +
                        "\ninterp:\n" + interp;
               }),
      /*seed=*/71, /*cases=*/24);
}

TEST(VerifyProperties, PlantedEngineBugsDivergeFromTheReference) {
  // Sensitivity: each planted fast-path bug must visibly diverge from the
  // reference interpreter on a randomized hammer program — a rig that
  // cannot convict a planted bug could not convict a real one.
  // Rows 200/202 map to physically adjacent rows under the default
  // pair-swap decoder, so the macro-op's final-ACT flush has real pending
  // state to clear (what kStaleDisturbanceFlush breaks).
  expect_passes(
      Property("planted fast-path bugs are caught",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 static constexpr common::PlantedBug kBugs[] = {
                     common::PlantedBug::kSkipTrrSample,
                     common::PlantedBug::kStaleDisturbanceFlush,
                     common::PlantedBug::kShortRowBurst,
                 };
                 const common::PlantedBug bug = kBugs[rng.below(std::size(kBugs))];
                 // The sampler bug only manifests once a TRR slot fires
                 // (one victim refresh per 17 REFs).
                 const int refs = bug == common::PlantedBug::kSkipTrrSample ? 20 : 0;
                 const std::uint32_t count = 257 + static_cast<std::uint32_t>(rng.below(512));
                 const std::string buggy =
                     engine_probe_digest(common::EngineKind::kFast, bug, count, 200, 202,
                                         /*use_macro=*/true, refs);
                 const std::string reference =
                     engine_probe_digest(common::EngineKind::kInterp, common::PlantedBug::kNone,
                                         count, 200, 202, /*use_macro=*/true, refs);
                 if (buggy != reference) return std::nullopt;
                 return std::string(to_string(bug)) + " count=" + std::to_string(count) +
                        ": the rig saw no divergence";
               }),
      /*seed=*/97, /*cases=*/9);
}

/// Runs `spec` with a metrics stream and returns the canonical cycles
/// series: the {"sample":"cycles"} lines sorted by their (shard, attempt,
/// seq) content — the rh-metrics-stream/v1 canonicalization rule. Workers
/// interleave lines arbitrarily; the sorted bytes must not depend on --jobs.
std::string canonical_cycles_series(const campaign::SweepSpec& spec, unsigned jobs) {
  const std::string path =
      "verify_properties_stream_" + std::to_string(jobs) + ".jsonl";
  campaign::CampaignConfig config;
  config.jobs = jobs;
  config.progress = false;
  config.metrics_stream_path = path;
  config.stream_cycle_cadence = 1 << 22;
  campaign::Campaign campaign(config);
  (void)campaign.run(spec);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"sample\":\"cycles\"", 0) == 0) lines.push_back(line);
    }
  }
  std::remove(path.c_str());
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const auto& line : lines) {
    joined += line;
    joined += '\n';
  }
  return joined;
}

TEST(VerifyProperties, MetricsStreamCyclesSeriesIsJobsInvariant) {
  const campaign::SweepSpec spec = tiny_sweep();
  const std::string serial = canonical_cycles_series(spec, 1);
  ASSERT_FALSE(serial.empty()) << "every attempt must close with a cycles sample";
  expect_passes(Property("cycles series is --jobs invariant",
                         [&spec, &serial](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const unsigned jobs = 2 + static_cast<unsigned>(rng.below(3));
                           const std::string sharded = canonical_cycles_series(spec, jobs);
                           if (sharded == serial) return std::nullopt;
                           return "jobs=" + std::to_string(jobs) + ": " +
                                  std::to_string(serial.size()) + " vs " +
                                  std::to_string(sharded.size()) +
                                  " canonical series bytes differ";
                         }),
                /*seed=*/17, /*cases=*/2);
}

TEST(VerifyProperties, ScramblersRoundTripAndAreInvolutions) {
  expect_passes(Property("scramble round-trip",
                         [](common::Xoshiro256& rng) -> std::optional<std::string> {
                           const std::uint32_t rows = 4u * (1u + static_cast<std::uint32_t>(
                                                                     rng.below(256)));
                           for (const auto kind :
                                {hbm::ScrambleKind::kIdentity, hbm::ScrambleKind::kPairSwap,
                                 hbm::ScrambleKind::kXorFold}) {
                             const hbm::RowScrambler s(kind, rows);
                             const auto logical = static_cast<std::uint32_t>(rng.below(rows));
                             const std::uint32_t physical = s.logical_to_physical(logical);
                             if (physical >= rows || s.physical_to_logical(physical) != logical) {
                               return std::string(to_string(kind)) + ": row " +
                                      std::to_string(logical) + " -> " +
                                      std::to_string(physical) + " does not round-trip";
                             }
                           }
                           return std::nullopt;
                         }),
                /*seed=*/31, /*cases=*/500);
}

TEST(VerifyProperties, RowMapFromDeviceRoundTrips) {
  expect_passes(
      Property("row-map round-trip",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 hbm::DeviceConfig config;
                 config.scramble = rng.below(2) == 0 ? hbm::ScrambleKind::kPairSwap
                                                     : hbm::ScrambleKind::kXorFold;
                 const hbm::Device device(config);
                 const core::RowMap map = core::RowMap::from_device(device);
                 const auto logical = static_cast<std::uint32_t>(rng.below(map.rows()));
                 const std::uint32_t physical = map.logical_to_physical(logical);
                 if (map.physical_to_logical(physical) != logical) {
                   return "logical " + std::to_string(logical) + " -> physical " +
                          std::to_string(physical) + " -> logical " +
                          std::to_string(map.physical_to_logical(physical));
                 }
                 const hbm::RowScrambler reference(config.scramble, map.rows());
                 if (physical != reference.logical_to_physical(logical)) {
                   return "map disagrees with the decoder at logical " + std::to_string(logical);
                 }
                 return std::nullopt;
               }),
      /*seed=*/47, /*cases=*/200);
}

TEST(VerifyProperties, EccCorrectsExactlyTheSingleErrorWords) {
  expect_passes(
      Property("on-die ECC read-path invariants",
               [](common::Xoshiro256& rng) -> std::optional<std::string> {
                 constexpr std::size_t kWords = 8;
                 std::array<std::uint8_t, kWords * 8> written{};
                 for (auto& b : written) b = static_cast<std::uint8_t>(rng.below(256));
                 auto raw = written;
                 // Plant 0..3 bit errors per word; remember each word's count.
                 std::array<std::size_t, kWords> errors{};
                 for (std::size_t w = 0; w < kWords; ++w) {
                   errors[w] = rng.below(4);
                   for (std::size_t e = 0; e < errors[w]; ++e) {
                     // Error e lands in its own 16-bit lane of the 64-bit
                     // word: distinct positions, so flips never cancel.
                     const std::size_t bit = 16 * e + rng.below(16);
                     raw[w * 8 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                   }
                 }
                 auto out = raw;
                 const std::size_t corrected = hbm::ecc_correct_read(out, written);
                 std::size_t expected_corrected = 0;
                 for (std::size_t w = 0; w < kWords; ++w) {
                   const std::span<const std::uint8_t> out_w(out.data() + w * 8, 8);
                   const std::span<const std::uint8_t> raw_w(raw.data() + w * 8, 8);
                   const std::span<const std::uint8_t> wrote_w(written.data() + w * 8, 8);
                   if (errors[w] == 1) {
                     ++expected_corrected;
                     if (hbm::popcount_diff(out_w, wrote_w) != 0) {
                       return "word " + std::to_string(w) + ": single error not corrected";
                     }
                   } else if (hbm::popcount_diff(out_w, raw_w) != 0) {
                     return "word " + std::to_string(w) + ": " + std::to_string(errors[w]) +
                            "-error word was altered";
                   }
                 }
                 if (corrected != expected_corrected) {
                   return "corrected " + std::to_string(corrected) + " words, expected " +
                          std::to_string(expected_corrected);
                 }
                 return std::nullopt;
               }),
      /*seed=*/59, /*cases=*/500);
}

TEST(VerifyProperties, FrameworkReportsTheFailingCaseAndStops) {
  std::size_t bodies_run = 0;
  const Property property("fails on case 3", [&bodies_run](common::Xoshiro256&) {
    ++bodies_run;
    return bodies_run == 4 ? std::optional<std::string>("boom") : std::nullopt;
  });
  const PropertyOutcome outcome = property.run(1, 10);
  EXPECT_FALSE(outcome.passed);
  EXPECT_EQ(outcome.failing_case, 3u);
  EXPECT_EQ(outcome.counterexample, "boom");
  EXPECT_EQ(bodies_run, 4u);  // stopped at the first counterexample

  bodies_run = 0;
  std::ostringstream log;
  EXPECT_FALSE(check_properties({property}, 1, 10, log));
  EXPECT_NE(log.str().find("FAIL fails on case 3 case 3: boom"), std::string::npos);
}

TEST(VerifyProperties, CasesAreIndependentlySeeded) {
  // Case i's RNG derives from hash_coords(seed, i): re-running a failing
  // case index in isolation must reproduce the same stream.
  std::vector<std::uint64_t> first;
  const Property collect("collect", [&first](common::Xoshiro256& rng) {
    first.push_back(rng());
    return std::optional<std::string>{};
  });
  (void)collect.run(9, 5);
  const auto all = first;
  first.clear();
  (void)collect.run(9, 5);
  EXPECT_EQ(first, all);
  // Distinct cases see distinct streams.
  EXPECT_NE(all[0], all[1]);
}

}  // namespace
}  // namespace rh::verify
