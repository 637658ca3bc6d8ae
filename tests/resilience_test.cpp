// End-to-end tests of the resilience plane (src/resilience) and the layers
// that consume it: CRC framing, fault-injector determinism, BenderHost
// retry/recovery, thermal robustness, and campaign-level fault storms.
#include "resilience/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/record_io.hpp"
#include "common/error.hpp"
#include "core/data_patterns.hpp"
#include "core/spatial.hpp"
#include "resilience/crc32.hpp"
#include "resilience/retry.hpp"
#include "resilience/storage.hpp"

namespace rh::resilience {
namespace {

using bender::BenderHost;
using bender::ProgramBuilder;

// --- CRC-32 ---------------------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
}

TEST(Crc32, ChainsAcrossScatteredBuffers) {
  const std::uint8_t a[] = {'1', '2', '3', '4'};
  const std::uint8_t b[] = {'5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(b, crc32(a)), 0xCBF43926u);
}

TEST(Crc32, DetectsUpToThreeFlippedBitsInARowFrame) {
  // Hamming distance 4 up to ~11 KB: any 1..3-bit error in a ~1 KiB row
  // frame must change the CRC. Spot-check a deterministic sample of
  // 1/2/3-bit flip positions.
  std::vector<std::uint8_t> frame(1024);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint32_t reference = crc32(frame);
  const std::size_t total_bits = frame.size() * 8;
  for (std::size_t trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> mutated = frame;
    const std::size_t flips = 1 + trial % 3;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t bit = (trial * 2654435761u + f * 40503u) % total_bits;
      mutated[bit / 8] = static_cast<std::uint8_t>(mutated[bit / 8] ^ (1u << (bit % 8)));
    }
    if (mutated == frame) continue;  // flips cancelled (even counts only)
    EXPECT_NE(crc32(mutated), reference) << "trial " << trial;
  }
}

// --- fault injector determinism -------------------------------------------

TEST(FaultInjector, SamePlanSameSeedYieldsIdenticalStreams) {
  FaultPlan plan;
  plan.seed = 0xDECAF;
  plan.set_storm_rates(0.3);

  const auto drive = [](FaultInjector& injector) {
    // A fixed interleaving of opportunities across kinds, with recovery
    // notes, mimicking a host's call pattern.
    for (int i = 0; i < 200; ++i) {
      const auto kind = static_cast<FaultKind>(i % 5);
      if (injector.should_fire(kind)) {
        if (i % 3 == 0) {
          injector.note_aborted(kind, "budget");
        } else {
          injector.note_recovered(kind, "retry");
        }
      }
    }
  };

  FaultInjector first(plan), second(plan);
  drive(first);
  drive(second);
  EXPECT_FALSE(first.log().empty());
  EXPECT_EQ(first.log_string(), second.log_string());
  EXPECT_EQ(first.stats().injected, second.stats().injected);

  FaultPlan other = plan;
  other.seed = 0xDECAF + 1;
  FaultInjector third(other);
  drive(third);
  EXPECT_NE(first.log_string(), third.log_string());
}

TEST(FaultInjector, KindsDoNotPerturbEachOther) {
  // Counter-based hashing: interleaving draws of other kinds must not move
  // kind k's firing pattern.
  FaultPlan plan;
  plan.seed = 77;
  plan.set_rate(FaultKind::kUploadTimeout, 0.5);
  plan.set_rate(FaultKind::kReadbackCorrupt, 0.5);

  FaultInjector pure(plan);
  std::vector<bool> solo;
  for (int i = 0; i < 64; ++i) solo.push_back(pure.should_fire(FaultKind::kUploadTimeout));

  FaultInjector interleaved(plan);
  std::vector<bool> mixed;
  for (int i = 0; i < 64; ++i) {
    (void)interleaved.should_fire(FaultKind::kReadbackCorrupt);
    mixed.push_back(interleaved.should_fire(FaultKind::kUploadTimeout));
  }
  EXPECT_EQ(solo, mixed);
}

TEST(FaultInjector, ScriptedFaultsFireOnTheirExactOpportunity) {
  FaultPlan plan;
  plan.script = {{FaultKind::kExecutorStall, 2}};
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.should_fire(FaultKind::kExecutorStall));
  EXPECT_FALSE(injector.should_fire(FaultKind::kExecutorStall));
  EXPECT_TRUE(injector.should_fire(FaultKind::kExecutorStall));
  injector.note_recovered(FaultKind::kExecutorStall, "re-armed");
  EXPECT_FALSE(injector.should_fire(FaultKind::kExecutorStall));
  EXPECT_EQ(injector.log_string(), "0 executor-stall@2 recovered [re-armed]\n");
}

// --- both fault planes' streams, pinned -------------------------------------

/// One plane's stream at a fixed plan: every kind at rate 0.2 plus one
/// scripted entry, 64 rounds of one opportunity per kind, then the first 8
/// shape() draws, rendered as "kind@opportunity ..." then "| draw ...".
template <typename Kind, typename Plan, typename Injector>
std::string pinned_stream(std::size_t kinds) {
  Plan plan;
  plan.seed = 0xB0071;
  for (std::size_t k = 0; k < kinds; ++k) plan.set_rate(static_cast<Kind>(k), 0.2);
  plan.script.push_back({static_cast<Kind>(kinds - 1), 3});
  Injector injector(plan);
  for (int round = 0; round < 64; ++round) {
    for (std::size_t k = 0; k < kinds; ++k) (void)injector.should_fire(static_cast<Kind>(k));
  }
  std::string out;
  for (const auto& record : injector.log()) {
    out += std::to_string(static_cast<int>(record.kind)) + '@' +
           std::to_string(record.opportunity) + ' ';
  }
  out += '|';
  for (int i = 0; i < 8; ++i) out += ' ' + std::to_string(injector.shape());
  return out;
}

TEST(FaultStreams, BothPlanesReplayTheirPinnedStreams) {
  // Literal digests, not a run-vs-run comparison: they fail when a plane's
  // hash tags or its per-kind opportunity counting move, which two runs of
  // one build would agree on.
  const std::string transport =
      pinned_stream<FaultKind, FaultPlan, FaultInjector>(kFaultKindCount);
  const std::string storage = pinned_stream<StorageFaultKind, StorageFaultPlan,
                                            StorageFaultInjector>(kStorageFaultKindCount);
  EXPECT_EQ(campaign::fnv1a(transport), 0x03592127afd647a5ull) << transport;
  EXPECT_EQ(campaign::fnv1a(storage), 0x53191391ca748770ull) << storage;
}

// --- retry policy ----------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicBoundedAndGrows) {
  const RetryPolicy policy;
  EXPECT_DOUBLE_EQ(backoff_ms(policy, 3, 1), backoff_ms(policy, 3, 1));
  EXPECT_NE(backoff_ms(policy, 3, 1), backoff_ms(policy, 4, 1));  // per-op jitter
  for (unsigned attempt = 1; attempt <= 12; ++attempt) {
    const double wait = backoff_ms(policy, 0, attempt);
    EXPECT_GE(wait, policy.backoff_base_ms * (1.0 - policy.jitter_frac) - 1e-12);
    EXPECT_LE(wait, policy.backoff_max_ms * (1.0 + policy.jitter_frac) + 1e-12);
  }
}

// --- host recovery ---------------------------------------------------------

class HostRecoveryTest : public ::testing::Test {
protected:
  static constexpr std::uint8_t kBank = 3;
  static constexpr std::uint32_t kRow = 42;

  BenderHost& baseline() {
    if (!baseline_) baseline_ = std::make_unique<BenderHost>(hbm::DeviceConfig{});
    return *baseline_;
  }

  static std::unique_ptr<BenderHost> make_host() {
    return std::make_unique<BenderHost>(hbm::DeviceConfig{});
  }

  /// Writes a known pattern into (kBank, kRow); no readback.
  static void init_row(BenderHost& host) {
    ProgramBuilder b(host.device().geometry(), host.device().timings());
    b.program().set_wide_register(0, core::make_row_image(host.device().geometry(), 0x5C));
    b.init_row(kBank, kRow, 0);
    (void)host.run(b.take(), 0, 0);
  }

  /// Reads (kBank, kRow) back; returns the payload.
  static std::vector<std::uint8_t> read_row(BenderHost& host) {
    ProgramBuilder b(host.device().geometry(), host.device().timings());
    b.read_row(kBank, kRow);
    return host.run(b.take(), 0, 0).readback;
  }

  std::unique_ptr<BenderHost> baseline_;
};

TEST_F(HostRecoveryTest, UploadFaultsAreRetriedWithoutTouchingTheDeviceClock) {
  init_row(baseline());
  const auto expected = read_row(baseline());

  FaultPlan plan;
  plan.script = {{FaultKind::kUploadTimeout, 0}, {FaultKind::kUploadDrop, 0}};
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  init_row(*host);
  EXPECT_EQ(read_row(*host), expected);

  // Byte-identical recovery: the device clock matches the fault-free host
  // cycle for cycle; only host wall-clock paid for the faults.
  EXPECT_EQ(host->now(), baseline().now());
  EXPECT_GT(host->wall_ms(), baseline().wall_ms());

  const auto& stats = host->resilience_stats();
  EXPECT_EQ(stats.detected, 2u);
  EXPECT_EQ(injector.stats().recovered, 2u);
  EXPECT_EQ(stats.upload_failures, 2u);
  EXPECT_EQ(injector.stats().aborted, 0u);
  // Host bookkeeping and injector agree: nothing slipped through.
  EXPECT_EQ(injector.stats().injected, stats.detected);
  EXPECT_EQ(injector.stats().recovered + injector.stats().aborted, injector.stats().injected);
}

TEST_F(HostRecoveryTest, CorruptedReadbackIsAlwaysCaughtByCrcAndHealed) {
  init_row(baseline());
  const auto expected = read_row(baseline());
  ASSERT_EQ(read_row(baseline()), expected);  // second read, matching below

  FaultPlan plan;
  plan.script = {{FaultKind::kReadbackCorrupt, 0}, {FaultKind::kReadbackCorrupt, 2}};
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  init_row(*host);
  EXPECT_EQ(read_row(*host), expected);  // drain 1 corrupt, drain 2 clean
  EXPECT_EQ(read_row(*host), expected);  // drain 3 corrupt, drain 4 clean

  const auto& stats = host->resilience_stats();
  EXPECT_EQ(stats.crc_failures, 2u);
  EXPECT_EQ(injector.stats().recovered, 2u);
  EXPECT_EQ(injector.stats().aborted, 0u);
  EXPECT_EQ(host->now(), baseline().now());
}

TEST_F(HostRecoveryTest, ShortReadsAreCaughtByFramingAndHealed) {
  init_row(baseline());
  const auto expected = read_row(baseline());

  FaultPlan plan;
  plan.script = {{FaultKind::kReadbackShortRead, 0}};
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  init_row(*host);
  EXPECT_EQ(read_row(*host), expected);
  EXPECT_EQ(host->resilience_stats().short_reads, 1u);
  EXPECT_EQ(injector.stats().recovered, 1u);
  EXPECT_EQ(host->now(), baseline().now());
}

TEST_F(HostRecoveryTest, ExecutorStallIsReArmedAfterTheWatchdog) {
  init_row(baseline());
  const auto expected = read_row(baseline());

  FaultPlan plan;
  plan.script = {{FaultKind::kExecutorStall, 0}};
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  init_row(*host);  // stall fires here: program never started, re-shipped
  EXPECT_EQ(read_row(*host), expected);

  const auto& stats = host->resilience_stats();
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_EQ(injector.stats().recovered, 1u);
  // The watchdog wait landed on wall clock, not the device clock.
  EXPECT_GE(stats.retry_wait_ms, host->link().config().timeout_ms);
  EXPECT_EQ(host->now(), baseline().now());
}

TEST_F(HostRecoveryTest, ExhaustedUploadBudgetThrowsTransportError) {
  FaultPlan plan;
  plan.set_rate(FaultKind::kUploadTimeout, 1.0);
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  ProgramBuilder b(host->device().geometry(), host->device().timings());
  b.nop();
  EXPECT_THROW((void)host->run(b.take(), 0, 0), common::TransportError);

  const auto budget = host->retry_policy().max_attempts;
  EXPECT_EQ(injector.stats().injected, budget);
  EXPECT_EQ(injector.stats().aborted, 1u);
  // The device never saw the program.
  EXPECT_EQ(host->now(), 0u);
}

TEST_F(HostRecoveryTest, NonIdempotentProgramIsNeverReRun) {
  FaultPlan plan;
  plan.set_rate(FaultKind::kReadbackCorrupt, 1.0);
  FaultInjector injector(plan);
  auto host = make_host();
  host->set_fault_injector(&injector);

  // One program that writes AND reads back: every drain corrupts, and the
  // write makes a full re-run unsafe (it would re-touch DRAM state), so the
  // host must refuse and surface a TransportError after the drain budget.
  ProgramBuilder b(host->device().geometry(), host->device().timings());
  b.program().set_wide_register(0, core::make_row_image(host->device().geometry(), 0x11));
  b.init_row(kBank, kRow, 0);
  b.read_row(kBank, kRow);
  const auto program = b.take();
  EXPECT_FALSE(bender::is_idempotent(program));
  EXPECT_THROW((void)host->run(program, 0, 0), common::TransportError);
  EXPECT_EQ(host->resilience_stats().reruns, 0u);
  EXPECT_GT(host->resilience_stats().crc_failures, 0u);
}

TEST_F(HostRecoveryTest, IdempotentProgramIsReRunAfterDrainExhaustion) {
  init_row(baseline());
  const auto expected = read_row(baseline());

  auto host = make_host();
  init_row(*host);  // fault-free init

  FaultPlan plan;
  // Corrupt the read program's entire first drain budget; the re-run's
  // drain (opportunity 4) is clean.
  const unsigned budget = host->retry_policy().max_attempts;
  for (unsigned i = 0; i < budget; ++i) {
    plan.script.push_back({FaultKind::kReadbackCorrupt, i});
  }
  FaultInjector injector(plan);
  host->set_fault_injector(&injector);

  ProgramBuilder b(host->device().geometry(), host->device().timings());
  b.read_row(kBank, kRow);
  const auto program = b.take();
  EXPECT_TRUE(bender::is_idempotent(program));
  EXPECT_EQ(host->run(program, 0, 0).readback, expected);
  EXPECT_EQ(host->resilience_stats().reruns, 1u);
  EXPECT_EQ(host->resilience_stats().crc_failures, budget);
  EXPECT_EQ(injector.stats().recovered + injector.stats().aborted,
            injector.stats().injected);
}

// --- thermal robustness ----------------------------------------------------

TEST(ThermalResilience, ExcursionDuringSettleIsReSettledWithinTheBudget) {
  FaultPlan plan;
  plan.script = {{FaultKind::kThermalExcursion, 0}};
  FaultInjector injector(plan);
  BenderHost host{hbm::DeviceConfig{}};
  host.set_fault_injector(&injector);

  host.set_chip_temperature(85.0);
  EXPECT_NEAR(host.device().temperature(), 85.0, 0.6);
  EXPECT_EQ(injector.stats().injected, 1u);
  EXPECT_EQ(injector.stats().recovered, 1u);
  EXPECT_EQ(injector.stats().aborted, 0u);
}

TEST(ThermalResilience, GuardPausesHammeringOutsideTheBand) {
  BenderHost host{hbm::DeviceConfig{}};
  host.set_chip_temperature(85.0);  // settle fault-free first

  FaultPlan plan;
  plan.script = {{FaultKind::kThermalExcursion, 0}};
  FaultInjector injector(plan);
  host.set_fault_injector(&injector);

  double guard_target = 0.0, guard_actual = 0.0;
  host.set_temperature_guard(
      [&](double target_c, double actual_c) {
        guard_target = target_c;
        guard_actual = actual_c;
      },
      /*band_c=*/1.0);

  ProgramBuilder b(host.device().geometry(), host.device().timings());
  b.nop();
  (void)host.run(b.take(), 0, 0);  // excursion fires before this program

  EXPECT_EQ(host.resilience_stats().guard_pauses, 1u);
  EXPECT_DOUBLE_EQ(guard_target, 85.0);
  // The callback observed the out-of-band temperature (default excursion
  // magnitude is 5 degC, guard band 1 degC)...
  EXPECT_GT(std::abs(guard_actual - 85.0), 1.0);
  // ...and hammering resumed only after the rig was back inside the band.
  EXPECT_NEAR(host.device().temperature(), 85.0, 1.0);
  EXPECT_EQ(injector.stats().recovered, 1u);
}

TEST(ThermalResilience, DriftShiftsTheAmbientAndThePidHolds) {
  FaultPlan plan;
  plan.script = {{FaultKind::kThermalDrift, 0}};
  FaultInjector injector(plan);
  BenderHost host{hbm::DeviceConfig{}};
  const double ambient_before = host.thermal().config().ambient_c;
  host.set_fault_injector(&injector);

  host.set_chip_temperature(85.0);
  EXPECT_NE(host.thermal().config().ambient_c, ambient_before);
  EXPECT_NEAR(host.device().temperature(), 85.0, 0.6);
  EXPECT_EQ(injector.stats().recovered, 1u);
}

// --- campaign under fault storm --------------------------------------------

campaign::SweepSpec storm_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0, 7};
  survey.row_stride = 512;
  survey.wcdp_by_ber = true;  // BER-only: fast
  campaign::SweepSpec spec =
      campaign::survey_sweep(hbm::DeviceConfig{}, survey, /*max_rows_per_shard=*/2);
  spec.settle_thermal = false;
  return spec;
}

std::string serialize(const std::vector<core::RowRecord>& records) {
  std::string out;
  for (const auto& record : records) campaign::append_row_record_json(out, record);
  return out;
}

TEST(CampaignResilience, TransportStormYieldsByteIdenticalResults) {
  const campaign::SweepSpec spec = storm_sweep();

  campaign::CampaignConfig config;
  config.progress = false;
  config.jobs = 2;
  campaign::Campaign clean(config);
  const std::string expected = serialize(clean.run(spec).flat());

  config.fault_plan.seed = 0xB0071;
  config.fault_plan.set_storm_rates(0.05);
  campaign::Campaign storm(config);
  const std::string stormed = serialize(storm.run(spec).flat());

  EXPECT_EQ(stormed, expected);
  const auto snapshot = storm.metrics().snapshot();
  EXPECT_GT(snapshot.value_or("resilience.injected", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.value_or("resilience.aborted", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.value_or("campaign.shards_fatal", 0.0), 0.0);
}

TEST(CampaignResilience, AggregateCountsEachFaultOnce) {
  // The run's counters and the aggregate sink the run merges into must
  // agree on every fault: each injection is counted once, by its schedule.
  const campaign::SweepSpec spec = storm_sweep();

  campaign::CampaignConfig config;
  config.progress = false;
  config.jobs = 2;
  config.fault_plan.seed = 0xB0071;
  config.fault_plan.set_storm_rates(0.05);
  telemetry::TelemetryConfig tc;
  tc.trace_enabled = false;
  telemetry::Telemetry sink(tc);
  campaign::Campaign storm(config, &sink);
  (void)storm.run(spec);

  const auto run = storm.metrics().snapshot();
  const auto fleet = sink.metrics().snapshot();
  for (const char* name :
       {"resilience.injected", "resilience.recovered", "resilience.aborted"}) {
    EXPECT_DOUBLE_EQ(fleet.value_or(name, -1.0), run.value_or(name, -2.0)) << name;
  }
  const double injected = run.value_or("resilience.injected", 0.0);
  EXPECT_GT(injected, 0.0);
  EXPECT_DOUBLE_EQ(run.value_or("resilience.recovered", 0.0) +
                       run.value_or("resilience.aborted", 0.0),
                   injected);
}

TEST(CampaignResilience, ExhaustedRetriesIsolateTheShardInsteadOfCrashing) {
  const campaign::SweepSpec spec = storm_sweep();

  campaign::CampaignConfig config;
  config.progress = false;
  config.jobs = 2;
  config.retries = 1;
  config.fail_on_shard_error = false;
  // Every upload times out on every host: all shards exhaust their per-host
  // transport budget, then their shard retries, and are isolated.
  config.fault_plan.set_rate(FaultKind::kUploadTimeout, 1.0);
  campaign::Campaign campaign(config);
  const auto result = campaign.run(spec);

  EXPECT_EQ(result.failures.size(), spec.shards.size());
  EXPECT_EQ(result.shards_retried, spec.shards.size() * config.retries);
  const auto snapshot = campaign.metrics().snapshot();
  // TransportError is transient: the retry budget was spent, nothing fatal.
  EXPECT_DOUBLE_EQ(snapshot.value_or("campaign.shards_fatal", 0.0), 0.0);
  EXPECT_GT(snapshot.value_or("resilience.aborted", 0.0), 0.0);

  // With fail_on_shard_error the same storm surfaces as a CampaignError
  // (a controlled failure report, not a crash).
  campaign::CampaignConfig strict = config;
  strict.fail_on_shard_error = true;
  campaign::Campaign failing(strict);
  EXPECT_THROW((void)failing.run(spec), campaign::CampaignError);
}

}  // namespace
}  // namespace rh::resilience
