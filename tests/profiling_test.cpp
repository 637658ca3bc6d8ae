// Tests for src/profiling: the phase profile, the run report, the histogram
// quantile/summary path it leans on, and the journal cost annotations that
// feed rh_report --journal.
//
// The load-bearing property pinned here: the *deterministic projection* of a
// campaign run report (write_report_json with include_wall=false) is
// byte-identical for a fixed seed regardless of --jobs, because it carries
// only pure functions of the command stream — no wall clock, no call
// counts, no per-rig bring-up cycles, no gauges.
#include "profiling/profile.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/record_io.hpp"
#include "core/spatial.hpp"
#include "profiling/report.hpp"
#include "scratch_dir.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace rh {
namespace {

using campaign::CampaignConfig;
using campaign::SweepSpec;
using profiling::LayerScope;
using profiling::Phase;
using profiling::PhaseStat;
using profiling::Profile;

// ---------------------------------------------------------------- histogram

TEST(HistogramQuantileTest, EmptyHistogramReturnsZero) {
  EXPECT_EQ(telemetry::histogram_quantile(0.0, 10.0, {0, 0, 0}, 0.5), 0.0);
  telemetry::FixedHistogram h(0.0, 10.0, 4);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  const telemetry::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
}

TEST(HistogramQuantileTest, SingleSampleLandsInItsBucket) {
  telemetry::FixedHistogram h(0.0, 10.0, 10);
  h.observe(5.25);
  // The one sample occupies bucket [5, 6); any quantile interpolates inside.
  EXPECT_GE(h.quantile(0.5), 5.0);
  EXPECT_LE(h.quantile(0.5), 6.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5.25);
  EXPECT_EQ(h.summary().count, 1u);
}

TEST(HistogramQuantileTest, OutOfRangeQIsClamped) {
  telemetry::FixedHistogram h(0.0, 10.0, 10);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

TEST(HistogramQuantileTest, InterpolatesAUniformDistribution) {
  telemetry::FixedHistogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
  const telemetry::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.sum / static_cast<double>(s.count), 50.0, 0.5);  // mean
}

TEST(HistogramQuantileTest, ClampedSamplesKeepFaithfulSum) {
  telemetry::FixedHistogram h(0.0, 10.0, 10);
  h.observe(-100.0);  // clamps into bucket 0
  h.observe(100.0);   // clamps into the last bucket
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.buckets().front(), 1u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);  // sum is pre-clamp: -100 + 100
}

TEST(HistogramJsonTest, ExportCarriesBoundsAndQuantilesKeySorted) {
  telemetry::MetricsRegistry registry;
  auto& h = registry.histogram("test.latency", 0.0, 4.0, 4);
  h.observe(1.0);
  h.observe(3.0);
  std::ostringstream os;
  registry.snapshot().write_json(os);
  const std::string json = os.str();

  // Bucket bounds are explicit (n+1 edges for n buckets), so a consumer
  // never has to re-derive the layout from lo/hi/bins.
  EXPECT_NE(json.find("\"bounds\":[0,1,2,3,4]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[0,1,0,1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  // Keys inside the histogram object are sorted for byte-stable diffs.
  const std::size_t bounds = json.find("\"bounds\"");
  const std::size_t buckets = json.find("\"buckets\"");
  const std::size_t count = json.find("\"count\"");
  const std::size_t p50 = json.find("\"p50\"");
  const std::size_t sum = json.find("\"sum\"");
  EXPECT_LT(bounds, buckets);
  EXPECT_LT(buckets, count);
  EXPECT_LT(count, p50);
  EXPECT_LT(p50, sum);
}

// ------------------------------------------------------------------ profile

TEST(ProfileTest, RecordAccumulatesAndMergeAdds) {
  Profile a;
  a.record(Phase::kExecute, 100, 1.5);
  a.record(Phase::kExecute, 50, 0.5);
  a.record(Phase::kCheckpoint, 0, 2.0, 3);
  EXPECT_EQ(a.stat(Phase::kExecute).calls, 2u);
  EXPECT_EQ(a.stat(Phase::kExecute).device_cycles, 150u);
  EXPECT_DOUBLE_EQ(a.stat(Phase::kExecute).wall_ms, 2.0);
  EXPECT_EQ(a.stat(Phase::kCheckpoint).calls, 3u);

  Profile b;
  b.record(Phase::kExecute, 25, 0.25);
  b.merge_from(a);
  EXPECT_EQ(b.stat(Phase::kExecute).calls, 3u);
  EXPECT_EQ(b.stat(Phase::kExecute).device_cycles, 175u);
  EXPECT_DOUBLE_EQ(b.stat(Phase::kExecute).wall_ms, 2.25);
  EXPECT_DOUBLE_EQ(b.stat(Phase::kCheckpoint).wall_ms, 2.0);

  const Profile fresh;
  EXPECT_EQ(fresh.stat(Phase::kExecute).calls, 0u);
  EXPECT_DOUBLE_EQ(fresh.stat(Phase::kExecute).wall_ms, 0.0);
}

TEST(ProfileTest, LayerScopeSamplesTheCycleClock) {
  Profile p;
  std::uint64_t clock = 1000;
  {
    const LayerScope scope(p, Phase::kThermal, &clock);
    clock += 250;
  }
  EXPECT_EQ(p.stat(Phase::kThermal).calls, 1u);
  EXPECT_EQ(p.stat(Phase::kThermal).device_cycles, 250u);
  EXPECT_GE(p.stat(Phase::kThermal).wall_ms, 0.0);
}

TEST(ProfileTest, LayerScopeRecordsOnceAndClosesItsSpanWhenUnwound) {
  // A throw inside the layer (the executor rejecting a program) unwinds
  // the scope: the call is counted once, and the span closes at the clock
  // where it stands instead of staying open for an outer close to end.
  Profile p;
  telemetry::SpanSheet sheet;
  telemetry::TraceContext ctx(sheet, 0, std::chrono::steady_clock::now());
  ctx.set_attempt(1);
  std::uint64_t clock = 5000;
  try {
    const LayerScope scope(p, Phase::kExecute, &clock, &ctx);
    throw std::runtime_error("rejected");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(p.stat(Phase::kExecute).calls, 1u);
  EXPECT_EQ(p.stat(Phase::kExecute).device_cycles, 0u);
  ASSERT_EQ(sheet.spans().size(), 1u);
  const telemetry::Span& span = sheet.spans()[0];
  EXPECT_EQ(span.kind, Phase::kExecute);
  EXPECT_FALSE(span.open);
  EXPECT_EQ(span.begin_cycle, 5000u);
  EXPECT_EQ(span.end_cycle, 5000u);
  EXPECT_NEAR(span.end_wall_ms - span.begin_wall_ms, p.stat(Phase::kExecute).wall_ms, 1e-6)
      << "one clock read at each end serves the profile and the span";
}

TEST(ProfileTest, DeterministicJsonKeepsOnlyMeasurementCycles) {
  Profile p;
  p.record(Phase::kExecute, 123, 9.9);
  p.record(Phase::kShardRun, 456, 8.8);
  p.record(Phase::kThermal, 789, 7.7);  // per-rig bring-up: schedule-scaled
  p.record(Phase::kIdle, 0, 6.6);

  std::ostringstream full;
  p.write_json(full, /*include_wall=*/true);
  EXPECT_NE(full.str().find("\"calls\""), std::string::npos);
  EXPECT_NE(full.str().find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(full.str().find("\"thermal\":{\"calls\":1,\"device_cycles\":789"),
            std::string::npos)
      << full.str();

  std::ostringstream det;
  p.write_json(det, /*include_wall=*/false);
  const std::string json = det.str();
  EXPECT_EQ(json.find("\"calls\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"wall_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"execute\":{\"device_cycles\":123}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_run\":{\"device_cycles\":456}"), std::string::npos) << json;
  // Bring-up phases stay present (stable key set) but carry no cycles.
  EXPECT_NE(json.find("\"thermal\":{}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"idle\":{}"), std::string::npos) << json;
}

TEST(LatencySummaryTest, EdgeCases) {
  EXPECT_EQ(profiling::summarize_latencies({}).count, 0u);
  const profiling::LatencySummary one = profiling::summarize_latencies({42.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.min, 42.0);
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.max, 42.0);
  EXPECT_DOUBLE_EQ(one.total_ms, 42.0);
}

// ----------------------------------------------------------- campaign level

// The campaign_test quick survey: 2 channels x 3 regions x 3072/512 rows in
// 2-row shards -> 18 shards, BER-only, no thermal settle.
SweepSpec quick_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0, 7};
  survey.row_stride = 512;
  survey.wcdp_by_ber = true;
  SweepSpec spec = campaign::survey_sweep(hbm::DeviceConfig{}, survey, 2);
  spec.settle_thermal = false;
  return spec;
}

CampaignConfig quiet_config(unsigned jobs) {
  CampaignConfig config;
  config.progress = false;
  config.jobs = jobs;
  return config;
}

std::string deterministic_report_json(const SweepSpec& spec, campaign::Campaign& campaign,
                                      const campaign::CampaignResult& result) {
  const profiling::RunReport report =
      campaign::build_report("quick", spec, campaign, result, nullptr);
  std::ostringstream os;
  profiling::write_report_json(os, report, /*include_wall=*/false);
  return os.str();
}

TEST(CampaignProfilingTest, DeterministicProjectionIsIdenticalAcrossJobs) {
  const SweepSpec spec = quick_sweep();

  campaign::Campaign serial(quiet_config(1));
  const campaign::CampaignResult r1 = serial.run(spec);
  campaign::Campaign parallel(quiet_config(3));
  const campaign::CampaignResult r3 = parallel.run(spec);

  // Simulated-cycle totals of the measurement phases are pure functions of
  // the sweep: identical for any worker count.
  EXPECT_EQ(serial.profile().stat(Phase::kShardRun).device_cycles,
            parallel.profile().stat(Phase::kShardRun).device_cycles);
  EXPECT_EQ(serial.profile().stat(Phase::kExecute).device_cycles,
            parallel.profile().stat(Phase::kExecute).device_cycles);

  // Per-shard cycle accounting matches shard for shard.
  ASSERT_EQ(r1.timings.size(), spec.shards.size());
  ASSERT_EQ(r3.timings.size(), spec.shards.size());
  for (std::size_t i = 0; i < r1.timings.size(); ++i) {
    EXPECT_EQ(r1.timings[i].shard, r3.timings[i].shard);
    EXPECT_EQ(r1.timings[i].device_cycles, r3.timings[i].device_cycles) << "shard " << i;
    EXPECT_EQ(r1.timings[i].attempts, 1u);
  }

  // Wall time was measured (nondeterministic), but never zero-filled.
  EXPECT_GT(r1.elapsed_wall_ms, 0.0);
  EXPECT_GT(r3.elapsed_wall_ms, 0.0);
  EXPECT_EQ(r1.jobs, 1u);
  EXPECT_EQ(r3.jobs, 3u);

  // The whole deterministic report document is byte-identical.
  EXPECT_EQ(deterministic_report_json(spec, serial, r1),
            deterministic_report_json(spec, parallel, r3));
}

TEST(CampaignProfilingTest, ReportJsonSchemaAndProjectionContract) {
  const SweepSpec spec = quick_sweep();
  campaign::Campaign campaign(quiet_config(2));
  const campaign::CampaignResult result = campaign.run(spec);
  const profiling::RunReport report =
      campaign::build_report("quick", spec, campaign, result, nullptr);

  std::ostringstream full_os;
  profiling::write_report_json(full_os, report, /*include_wall=*/true);
  const std::string full = full_os.str();
  const campaign::JsonValue doc = campaign::parse_json(full, "report");
  EXPECT_EQ(doc.at("schema").text, "rh-run-report/v1");
  EXPECT_EQ(doc.at("campaign").text, "quick");
  EXPECT_EQ(doc.at("shards").at("total").as_u64(), spec.shards.size());
  EXPECT_EQ(doc.at("shards").at("done").as_u64(), spec.shards.size());
  EXPECT_EQ(doc.at("shards").at("failed").as_u64(), 0u);
  EXPECT_EQ(doc.at("jobs").as_u64(), 2u);
  EXPECT_EQ(doc.at("timings").items.size(), spec.shards.size());
  EXPECT_GT(doc.at("elapsed_wall_ms").as_double(), 0.0);
  ASSERT_NE(doc.find("phases"), nullptr);
  ASSERT_NE(doc.find("metrics"), nullptr);
  ASSERT_NE(doc.find("shard_latency_ms"), nullptr);
  ASSERT_NE(doc.find("worker_utilization"), nullptr);

  // The deterministic projection parses too, and contains no wall-clock,
  // scheduling, or gauge residue anywhere in the document.
  std::ostringstream det_os;
  profiling::write_report_json(det_os, report, /*include_wall=*/false);
  const std::string det = det_os.str();
  const campaign::JsonValue det_doc = campaign::parse_json(det, "det-report");
  EXPECT_EQ(det_doc.at("schema").text, "rh-run-report/v1");
  EXPECT_EQ(det.find("wall_ms"), std::string::npos) << det;
  EXPECT_EQ(det.find("\"calls\""), std::string::npos) << det;
  EXPECT_EQ(det.find("\"jobs\""), std::string::npos) << det;
  EXPECT_EQ(det.find("\"gauges\":{\""), std::string::npos) << det;  // gauges emptied
  EXPECT_EQ(det.find("worker_utilization"), std::string::npos) << det;
  EXPECT_EQ(det.find("\"trace\""), std::string::npos) << det;
}

TEST(CampaignProfilingTest, FleetProfileCoversHostAndCampaignPhases) {
  const SweepSpec spec = quick_sweep();
  campaign::Campaign campaign(quiet_config(2));
  const campaign::CampaignResult result = campaign.run(spec);
  (void)result;
  const Profile& profile = campaign.profile();

  // Host-level: every shard uploads programs and drains readback.
  EXPECT_GT(profile.stat(Phase::kUpload).calls, 0u);
  EXPECT_GT(profile.stat(Phase::kExecute).calls, 0u);
  EXPECT_GT(profile.stat(Phase::kExecute).device_cycles, 0u);
  EXPECT_GT(profile.stat(Phase::kDrain).calls, 0u);
  // Campaign-level: 2 rigs built, 18 shards run, idle accounted per worker.
  EXPECT_EQ(profile.stat(Phase::kRigBuild).calls, 2u);
  EXPECT_EQ(profile.stat(Phase::kShardRun).calls, spec.shards.size());
  EXPECT_GT(profile.stat(Phase::kShardRun).device_cycles, 0u);
  EXPECT_EQ(profile.stat(Phase::kIdle).calls, 2u);
  // shard_run contains the host-level execute: same clock, same axis.
  EXPECT_GE(profile.stat(Phase::kShardRun).device_cycles,
            profile.stat(Phase::kExecute).device_cycles);
}

TEST(CampaignProfilingTest, ThroughputAxisExcludesRigBringUp) {
  SweepSpec spec = quick_sweep();
  spec.settle_thermal = true;  // nonzero bring-up: each rig settles its PID loop
  campaign::Campaign campaign(quiet_config(2));
  const campaign::CampaignResult result = campaign.run(spec);
  const profiling::RunReport report =
      campaign::build_report("quick", spec, campaign, result, nullptr);
  const Profile& profile = campaign.profile();

  const std::uint64_t shard_run = profile.stat(Phase::kShardRun).device_cycles;
  const std::uint64_t rig_build = profile.stat(Phase::kRigBuild).device_cycles;
  ASSERT_GT(shard_run, 0u);
  ASSERT_GT(rig_build, 0u);

  // The gated throughput numerator is measurement only; bring-up reports
  // separately. Folding the simulated PID settle into the axis once
  // inflated device_cycles_per_host_second several-fold.
  EXPECT_EQ(report.device_cycles(), shard_run);
  EXPECT_EQ(report.bringup_device_cycles(), rig_build);
  EXPECT_EQ(report.deterministic_device_cycles(), report.device_cycles());

  // Bring-up is dominated by the thermal settle it pays for.
  EXPECT_GE(rig_build, profile.stat(Phase::kThermal).device_cycles);

  // Per-shard timings partition the measurement phase exactly — a cycle
  // counted in a timing is never also charged to rig_build.
  std::uint64_t timing_total = 0;
  for (const auto& t : result.timings) timing_total += t.device_cycles;
  EXPECT_EQ(timing_total, shard_run);

  // The report, which the perf gate reads, carries the split.
  std::ostringstream report_os;
  profiling::write_report_json(report_os, report, /*include_wall=*/true);
  const campaign::JsonValue report_doc = campaign::parse_json(report_os.str(), "report");
  EXPECT_EQ(report_doc.at("device_cycles").as_u64(), shard_run);
  EXPECT_EQ(report_doc.at("bringup_device_cycles").as_u64(), rig_build);
}

// ------------------------------------------------------------ journal level

TEST(JournalOutcomesTest, ReaderSurfacesCostAnnotationsAndFailures) {
  const test::ScratchDir dir;
  const std::string path = dir.file("profiling_test_journal.jsonl");
  const campaign::JournalHeader header{7, 0xabcd, 3};
  {
    campaign::JournalWriter writer(path, header);
    writer.append_shard(0, {}, 12.5, 2);
    writer.append_failure(1, 3, "thermal \"upset\"");
    writer.append_shard(2, {});  // pre-annotation byte format
  }

  const campaign::JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 3u);

  const campaign::ShardOutcome& annotated = reader.outcomes()[0];
  EXPECT_TRUE(annotated.ok);
  EXPECT_EQ(annotated.attempts, 2u);
  EXPECT_DOUBLE_EQ(annotated.wall_ms, 12.5);

  const campaign::ShardOutcome& failed = reader.outcomes()[1];
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.shard, 1u);
  EXPECT_EQ(failed.attempts, 3u);
  EXPECT_EQ(failed.error, "thermal \"upset\"");

  const campaign::ShardOutcome& legacy = reader.outcomes()[2];
  EXPECT_TRUE(legacy.ok);
  EXPECT_EQ(legacy.attempts, 1u);
  EXPECT_LT(legacy.wall_ms, 0.0);  // no annotation on the line

  // A failure line never counts as a completed shard: resume re-runs it.
  EXPECT_EQ(reader.shards().size(), 2u);
  EXPECT_EQ(reader.shards().count(1), 0u);
}

TEST(JournalOutcomesTest, TornTrailingLineIsIgnoredInOutcomes) {
  const test::ScratchDir dir;
  const std::string path = dir.file("profiling_test_torn.jsonl");
  {
    campaign::JournalWriter writer(path, campaign::JournalHeader{1, 2, 4});
    writer.append_shard(0, {}, 5.0, 1);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"shard\":1,\"attempts\":1,\"wall_";  // the kill hit here
  }
  const campaign::JournalReader reader(path);
  EXPECT_EQ(reader.outcomes().size(), 1u);
  EXPECT_EQ(reader.shards().size(), 1u);
}

TEST(JournalOutcomesTest, SummaryRendersCountsLatencyAndFailures) {
  const test::ScratchDir dir;
  const std::string path = dir.file("profiling_test_summary.jsonl");
  {
    campaign::JournalWriter writer(path, campaign::JournalHeader{7, 0xabcd, 4});
    writer.append_shard(0, {}, 10.0, 1);
    writer.append_shard(2, {}, 30.0, 2);
    writer.append_failure(3, 2, "boom");
  }
  const campaign::JournalReader reader(path);
  std::ostringstream os;
  campaign::render_journal_summary(os, path, reader);
  const std::string text = os.str();
  EXPECT_NE(text.find("2/4 complete"), std::string::npos) << text;
  EXPECT_NE(text.find("1 failure lines"), std::string::npos) << text;
  EXPECT_NE(text.find("--resume"), std::string::npos) << text;  // pending hint
  EXPECT_NE(text.find("failed shard 3 after 2 attempts: boom"), std::string::npos) << text;
  EXPECT_NE(text.find("wall ms per journaled shard"), std::string::npos) << text;
}

}  // namespace
}  // namespace rh
