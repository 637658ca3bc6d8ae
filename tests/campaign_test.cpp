#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "campaign/record_io.hpp"
#include "campaign/rig_pool.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/tail.hpp"
#include "core/characterizer.hpp"
#include "core/shard.hpp"
#include "core/spatial.hpp"
#include "resilience/fault.hpp"
#include "scratch_dir.hpp"
#include "telemetry/span.hpp"

namespace rh::campaign {
namespace {

// The spatial_test quick survey, decomposed into small (<=8 rows) shards so
// the resume/failure tests get meaningful checkpoint granularity: 2 channels
// x 3 regions x 3072/512 rows sampled -> 18 shards of 2 rows each.
SweepSpec quick_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0, 7};
  survey.row_stride = 512;
  survey.wcdp_by_ber = true;  // BER-only: fast
  SweepSpec spec = survey_sweep(hbm::DeviceConfig{}, survey, /*max_rows_per_shard=*/2);
  spec.settle_thermal = false;  // pin the temperature; skip the PID settle
  return spec;
}

CampaignConfig quiet_config() {
  CampaignConfig config;
  config.progress = false;
  return config;
}

void expect_records_equal(const std::vector<core::RowRecord>& a,
                          const std::vector<core::RowRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site.channel, b[i].site.channel) << "record " << i;
    EXPECT_EQ(a[i].site.pseudo_channel, b[i].site.pseudo_channel) << "record " << i;
    EXPECT_EQ(a[i].site.bank, b[i].site.bank) << "record " << i;
    EXPECT_EQ(a[i].physical_row, b[i].physical_row) << "record " << i;
    EXPECT_EQ(a[i].wcdp, b[i].wcdp) << "record " << i;
    for (std::size_t p = 0; p < core::kAllPatterns.size(); ++p) {
      EXPECT_EQ(a[i].ber[p].bit_errors, b[i].ber[p].bit_errors) << "record " << i;
      EXPECT_EQ(a[i].ber[p].bits_tested, b[i].ber[p].bits_tested) << "record " << i;
      EXPECT_EQ(a[i].ber[p].ones_to_zeros, b[i].ber[p].ones_to_zeros) << "record " << i;
      EXPECT_EQ(a[i].ber[p].zeros_to_ones, b[i].ber[p].zeros_to_ones) << "record " << i;
      // Bitwise double equality: journaled records must be exact.
      EXPECT_EQ(a[i].ber[p].elapsed_ms, b[i].ber[p].elapsed_ms) << "record " << i;
      EXPECT_EQ(a[i].hc_first[p], b[i].hc_first[p]) << "record " << i;
    }
  }
}

TEST(CampaignTest, ParallelMergeIsBitwiseIdenticalToSerial) {
  const SweepSpec spec = quick_sweep();
  ASSERT_GT(spec.shards.size(), 8u);

  CampaignConfig serial = quiet_config();
  serial.jobs = 1;
  Campaign one(serial);
  const auto flat1 = one.run(spec).flat();

  CampaignConfig wide = quiet_config();
  wide.jobs = 8;
  Campaign eight(wide);
  const auto flat8 = eight.run(spec).flat();

  expect_records_equal(flat1, flat8);
}

/// The reference a campaign must equal: the whole plan run in shard order
/// through core::run_shard on one host pinned at the spec's temperature.
std::vector<core::RowRecord> one_host_sweep(const SweepSpec& spec) {
  bender::BenderHost host{spec.device};
  host.device().set_temperature(spec.temperature_c);
  core::Characterizer chr(host, core::RowMap::from_device(host.device()), spec.characterizer);
  std::vector<core::RowRecord> records;
  for (const auto& shard : spec.shards) {
    for (auto& rec : core::run_shard(chr, shard)) records.push_back(std::move(rec));
  }
  return records;
}

TEST(CampaignTest, MatchesOneHostSerialSweep) {
  core::SurveyConfig survey;
  survey.channels = {0, 7};
  survey.row_stride = 512;
  survey.wcdp_by_ber = true;
  SweepSpec spec = survey_sweep(hbm::DeviceConfig{}, survey);
  spec.settle_thermal = false;

  CampaignConfig config = quiet_config();
  config.jobs = 4;
  Campaign campaign(config);
  const auto flat = campaign.run(spec).flat();

  expect_records_equal(flat, one_host_sweep(spec));
}

TEST(CampaignTest, BankPlanMatchesOneHostSerialSweep) {
  core::SurveyConfig survey;
  survey.channels = {0};
  survey.region_rows = 40;
  survey.row_stride = 20;
  survey.wcdp_by_ber = true;
  SweepSpec spec;
  spec.shards = core::plan_bank_shards(survey, spec.device.geometry);
  spec.settle_thermal = false;
  // 2 pseudo channels x 16 banks x 3 regions, each region one shard.
  ASSERT_EQ(spec.shards.size(), 96u);

  const auto serial = one_host_sweep(spec);
  for (const unsigned jobs : {1u, 3u}) {
    CampaignConfig config = quiet_config();
    config.jobs = jobs;
    Campaign campaign(config);
    expect_records_equal(campaign.run(spec).flat(), serial);
  }

  const auto points = core::aggregate_banks(serial);
  ASSERT_EQ(points.size(), 32u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].site.channel, 0u);
    EXPECT_EQ(points[i].site.pseudo_channel, i / 16);
    EXPECT_EQ(points[i].site.bank, i % 16);
    EXPECT_EQ(points[i].rows_tested, 3u * 2u);
    EXPECT_GE(points[i].mean_ber, 0.0);
    EXPECT_GE(points[i].cv, 0.0);
  }
}

TEST(CampaignTest, ResumesFromTruncatedJournalToIdenticalResult) {
  const SweepSpec spec = quick_sweep();
  const test::ScratchDir dir;
  const std::string journal = dir.file("campaign_test_resume.jsonl");

  CampaignConfig full = quiet_config();
  full.jobs = 2;
  full.checkpoint_path = journal;
  Campaign first(full);
  const auto complete = first.run(spec);
  EXPECT_EQ(complete.shards_run, spec.shards.size());
  EXPECT_EQ(complete.shards_skipped, 0u);

  // Simulate a kill mid-run: keep the header, half the shard lines, and a
  // torn final line (the write the kill interrupted).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), spec.shards.size() + 1);
  const std::size_t keep_shards = spec.shards.size() / 2;
  {
    std::ofstream out(journal, std::ios::trunc);
    for (std::size_t i = 0; i <= keep_shards; ++i) out << lines[i] << '\n';
    out << lines[keep_shards + 1].substr(0, lines[keep_shards + 1].size() / 2);
  }

  CampaignConfig resumed = quiet_config();
  resumed.jobs = 2;
  resumed.checkpoint_path = journal;
  resumed.resume = true;
  Campaign second(resumed);
  const auto result = second.run(spec);

  EXPECT_EQ(result.shards_skipped, keep_shards);
  EXPECT_EQ(result.shards_run, spec.shards.size() - keep_shards);
  expect_records_equal(result.flat(), complete.flat());

  // The finished journal is itself complete again: a third resume runs 0.
  Campaign third(resumed);
  const auto noop = third.run(spec);
  EXPECT_EQ(noop.shards_run, 0u);
  EXPECT_EQ(noop.shards_skipped, spec.shards.size());
  expect_records_equal(noop.flat(), complete.flat());
}

TEST(CampaignTest, RefusesJournalFromDifferentSweep) {
  const SweepSpec spec = quick_sweep();
  const test::ScratchDir dir;
  const std::string journal = dir.file("campaign_test_mismatch.jsonl");

  CampaignConfig config = quiet_config();
  config.checkpoint_path = journal;
  Campaign first(config);
  (void)first.run(spec);

  // Same geometry, different stride -> different plan, different hash.
  core::SurveyConfig other_survey;
  other_survey.channels = {0, 7};
  other_survey.row_stride = 256;
  other_survey.wcdp_by_ber = true;
  SweepSpec other = survey_sweep(hbm::DeviceConfig{}, other_survey, 2);
  other.settle_thermal = false;
  ASSERT_NE(sweep_config_hash(spec), sweep_config_hash(other));

  config.resume = true;
  Campaign second(config);
  EXPECT_THROW((void)second.run(other), common::ConfigError);
}

TEST(CampaignTest, FatalShardFailureIsIsolatedWithoutRetries) {
  SweepSpec spec = quick_sweep();
  // Poison one shard: a channel the geometry does not have makes every
  // attempt throw inside the worker.
  const std::size_t poisoned = 3;
  spec.shards[poisoned].site.channel = 99;

  // One rig runs the shards in order, so the poisoned shard starts on a
  // host whose clock already advanced through shards 0-2.
  CampaignConfig config = quiet_config();
  config.jobs = 1;
  config.fail_on_shard_error = false;
  Campaign campaign(config);
  const auto result = campaign.run(spec);

  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].shard, poisoned);
  // A bad channel is a deterministic (fatal) error: retrying cannot help,
  // so the shard is isolated without spending the retry budget.
  EXPECT_EQ(result.shards_retried, 0u);
  EXPECT_TRUE(result.per_shard[poisoned].empty());
  // Every other shard still completed.
  for (std::size_t i = 0; i < result.per_shard.size(); ++i) {
    if (i != poisoned) {
      EXPECT_FALSE(result.per_shard[i].empty()) << "shard " << i;
    }
  }

  // The executor's throw unwinds the execute span at the host clock, so
  // every span consumed a non-negative number of cycles and the Chrome
  // export never writes an underflowed count.
  for (const telemetry::Span& s : campaign.spans().spans()) {
    EXPECT_GE(s.end_cycle, s.begin_cycle) << "span 0x" << std::hex << s.id;
  }
  std::ostringstream chrome;
  telemetry::write_chrome_spans(chrome, campaign.spans());
  const std::string json = chrome.str();
  const std::string key = "\"cycles\":";
  for (std::size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    EXPECT_LT(std::strtoull(json.c_str() + at + key.size(), nullptr, 10), std::uint64_t{1} << 63)
        << json.substr(at, 40);
  }

  CampaignConfig strict = quiet_config();
  strict.jobs = 4;
  Campaign failing(strict);
  EXPECT_THROW((void)failing.run(spec), CampaignError);
}

TEST(CampaignTest, WorkerTelemetryIsAbsorbedIntoAggregate) {
  const SweepSpec spec = quick_sweep();
  telemetry::Telemetry aggregate{telemetry::TelemetryConfig{}};

  CampaignConfig config = quiet_config();
  config.jobs = 4;
  Campaign campaign(config, &aggregate);
  const auto result = campaign.run(spec);

  // ACTs from every worker host landed in the aggregate heatmap, and the
  // campaign counters were merged into the aggregate registry.
  EXPECT_GT(aggregate.total_acts(), 0u);
  const auto snap = aggregate.metrics().snapshot();
  EXPECT_EQ(snap.value_or("campaign.shards_done", -1.0),
            static_cast<double>(spec.shards.size()));
  EXPECT_EQ(result.failures.size(), 0u);
}

TEST(ProgressTest, EtaTextGuardsZeroThroughput) {
  // No executed shards (all resumed) or a zero/garbage clock must render
  // the explicit no-signal form, never inf/nan seconds.
  EXPECT_EQ(eta_text(10.0, 0, 5), "eta --");
  EXPECT_EQ(eta_text(0.0, 3, 5), "eta --");
  EXPECT_EQ(eta_text(-1.0, 3, 5), "eta --");
  // 3 shards in 6 s -> 2 s each -> 4 s for the remaining 2.
  EXPECT_EQ(eta_text(6.0, 3, 2), "eta 4.0s");
  EXPECT_EQ(eta_text(90.0, 1, 2), "eta 3m00s");
  EXPECT_EQ(eta_text(10.0, 5, 0), "eta 0.0s");
}

TEST(ProgressTest, FormatSecondsSwitchesToMinutesAt90s) {
  EXPECT_EQ(format_seconds(0.0), "0.0s");
  EXPECT_EQ(format_seconds(89.94), "89.9s");
  EXPECT_EQ(format_seconds(90.0), "1m30s");
  EXPECT_EQ(format_seconds(3601.0), "60m01s");
}

TEST(CampaignTest, MetricsStreamRecordsTheRunAndFinishes) {
  const SweepSpec spec = quick_sweep();
  const test::ScratchDir dir;
  const std::string stream = dir.file("campaign_test_stream.jsonl");

  CampaignConfig config = quiet_config();
  config.jobs = 4;
  config.metrics_stream_path = stream;
  config.stream_cycle_cadence = 1 << 20;  // fine cadence: mid-attempt samples too
  Campaign campaign(config);
  const auto result = campaign.run(spec);
  EXPECT_TRUE(result.failures.empty());

  const MetricsStreamData data = read_metrics_stream(stream);
  EXPECT_TRUE(data.has_header);
  EXPECT_EQ(data.seed, spec.device.fault.seed);
  EXPECT_EQ(data.config_hash, sweep_config_hash(spec));
  EXPECT_EQ(data.shards, spec.shards.size());
  EXPECT_EQ(data.jobs, 4u);
  EXPECT_EQ(data.cycle_cadence, std::uint64_t{1} << 20);
  EXPECT_FALSE(data.torn);
  // Every attempt closes with a cycles sample, and the stream ends with the
  // final sample carrying the shard totals.
  EXPECT_GE(data.cycles_samples, spec.shards.size());
  EXPECT_GT(data.device_counters.at("cmd.ACT"), 0u);
  EXPECT_TRUE(data.finished);
  EXPECT_EQ(data.final_done, spec.shards.size());
  EXPECT_EQ(data.final_failed, 0u);
  EXPECT_EQ(data.final_total, spec.shards.size());
  // One wall sample at each shard's claim and one at its commit, whichever
  // of the four rigs ran it: no timer adds or drops any.
  EXPECT_EQ(data.wall_samples, 2 * spec.shards.size());
}

TEST(RigPoolTest, StealsAreExactWhenOneRigIsHeldAtBringUp) {
  // Two rigs and one job of six shards, dealt 0/2/4 and 1/3/5. The first
  // rig bring-up blocks until five shards are committed, so the held rig
  // keeps only the shard it claimed; the other rig runs its own three and
  // steals the held rig's two queued ones from the back. Whichever rig is
  // held, exactly two shards are stolen.
  SweepSpec spec = quick_sweep();
  spec.shards.resize(6);

  struct StealCounter : PoolObserver {
    std::atomic<std::uint64_t> steals{0};
    void claimed(PoolJob&, unsigned, std::uint64_t, double, bool stolen) override {
      if (stolen) ++steals;
    }
    void retried(PoolJob&, std::uint64_t, const std::string&) override {}
    void executed(double) override {}
  } observer;

  std::mutex gate_mutex;
  std::condition_variable gate;
  std::uint64_t committed = 0;  // guarded by gate_mutex
  bool held = false;            // guarded by gate_mutex
  const HostFactory factory = [&](const SweepSpec& s) {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      if (!held) {
        held = true;
        // Bounded, so a pool that never steals fails the asserts below
        // instead of hanging the suite.
        gate.wait_for(lock, std::chrono::minutes(1), [&] { return committed == 5; });
      }
    }
    auto host = std::make_unique<bender::BenderHost>(s.device);
    host->device().set_temperature(s.temperature_c);
    return host;
  };

  std::condition_variable finished;
  PoolHooks hooks;
  hooks.committed = [&](PoolJob&, std::uint64_t, bool, const std::string&) {
    {
      const std::lock_guard<std::mutex> lock(gate_mutex);
      ++committed;
    }
    gate.notify_all();
  };
  hooks.finalize = [&](PoolJob&) { finished.notify_all(); };

  const auto job = std::make_shared<PoolJob>();
  job->run = std::make_unique<ShardRun>(spec, quiet_config(), factory, nullptr);
  job->run->workers.resize(2);
  job->remaining = spec.shards.size();
  RigPool pool(2, hooks, &observer);
  pool.enqueue(job);
  pool.start();
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    finished.wait(lock, [&] { return job->finalized; });
  }
  pool.stop();

  EXPECT_EQ(pool.shards_stolen(), 2u);
  const std::vector<RigPool::RigStatus> rigs = pool.rig_status();
  ASSERT_EQ(rigs.size(), 2u);
  EXPECT_EQ(rigs[0].steals + rigs[1].steals, 2u);
  EXPECT_EQ(observer.steals.load(), 2u);
  EXPECT_EQ(pool.shards_run(), 6u);

  CampaignConfig serial = quiet_config();
  serial.jobs = 1;
  Campaign one(serial);
  expect_records_equal(job->run->result.flat(), one.run(spec).flat());
}

TEST(RigPoolTest, StopLeavesQueuedShardsForTheNextStart) {
  // One rig and one job of 18 shards. The rig's first bring-up blocks, so
  // it holds the shard it claimed while stop() runs on a helper thread:
  // stop() drops the 17 queued shards, and the released rig finishes only
  // the shard it holds. The job is never finalized; a restart resumes it.
  const SweepSpec spec = quick_sweep();
  std::mutex gate_mutex;
  std::condition_variable gate;
  bool held = false;      // guarded by gate_mutex
  bool released = false;  // guarded by gate_mutex
  const HostFactory factory = [&](const SweepSpec& s) {
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      if (!held) {
        held = true;
        gate.notify_all();
        gate.wait_for(lock, std::chrono::minutes(1), [&] { return released; });
      }
    }
    auto host = std::make_unique<bender::BenderHost>(s.device);
    host->device().set_temperature(s.temperature_c);
    return host;
  };

  const auto job = std::make_shared<PoolJob>();
  job->run = std::make_unique<ShardRun>(spec, quiet_config(), factory, nullptr);
  job->run->workers.resize(1);
  job->remaining = spec.shards.size();
  RigPool pool(1, PoolHooks{});
  pool.enqueue(job);
  pool.start();
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate.wait_for(lock, std::chrono::minutes(1), [&] { return held; }));
  }
  std::thread stopper([&] { pool.stop(); });
  // Bounded, so a stop() that runs the queue fails here instead of hanging.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.queue_depth() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    released = true;
  }
  gate.notify_all();
  stopper.join();

  EXPECT_EQ(pool.shards_run(), 1u);
  const std::lock_guard<std::mutex> lock(job->mutex);
  EXPECT_EQ(job->remaining, spec.shards.size() - 1);
  EXPECT_FALSE(job->finalized);
}

TEST(RigPoolTest, FinalizedJobSeesEveryRigClaimBooked) {
  // The last shard's rig books its claim's end before it retires and
  // finalizes the job, so a scrape from the finalized hook (as the
  // service's /metricsz may make right after a job ends) counts every
  // shard as done.
  SweepSpec spec = quick_sweep();
  spec.shards.resize(6);
  for (const unsigned rigs : {1u, 2u}) {
    RigPool* pool_ptr = nullptr;
    std::mutex seen_mutex;
    std::condition_variable seen_cv;
    std::int64_t done_at_finalize = -1;  // guarded by seen_mutex
    PoolHooks hooks;
    hooks.finalized = [&](const std::shared_ptr<PoolJob>&) {
      std::uint64_t done = 0;
      for (const RigPool::RigStatus& rig : pool_ptr->rig_status()) done += rig.done;
      {
        const std::lock_guard<std::mutex> lock(seen_mutex);
        done_at_finalize = static_cast<std::int64_t>(done);
      }
      seen_cv.notify_all();
    };

    const auto job = std::make_shared<PoolJob>();
    job->run = std::make_unique<ShardRun>(spec, quiet_config(), make_default_host, nullptr);
    job->run->workers.resize(rigs);
    job->remaining = spec.shards.size();
    RigPool pool(rigs, hooks);
    pool_ptr = &pool;
    pool.enqueue(job);
    pool.start();
    {
      std::unique_lock<std::mutex> lock(seen_mutex);
      ASSERT_TRUE(seen_cv.wait_for(lock, std::chrono::minutes(1),
                                   [&] { return done_at_finalize >= 0; }))
          << rigs << " rigs";
    }
    pool.stop();
    EXPECT_EQ(done_at_finalize, static_cast<std::int64_t>(spec.shards.size())) << rigs << " rigs";
  }
}

TEST(CampaignTest, SpanForestLinksARetriedFaultInjectedShardCausally) {
  SweepSpec spec = quick_sweep();
  spec.shards.resize(4);

  CampaignConfig config = quiet_config();
  config.jobs = 1;
  config.retries = 2;
  config.retry_policy.max_attempts = 2;
  Campaign campaign(config);

  // Only the FIRST host built gets an injector whose script times out both
  // upload attempts: shard 0's first attempt aborts (TransportError), the
  // campaign retries it on a fresh, injector-free host, and every later
  // shard runs clean — one retried, fault-marked shard in the forest.
  std::unique_ptr<resilience::FaultInjector> injector;
  campaign.set_host_factory([&](const SweepSpec& s) {
    auto host = std::make_unique<bender::BenderHost>(s.device);
    host->device().set_temperature(s.temperature_c);
    if (injector == nullptr) {
      resilience::FaultPlan plan;
      plan.script = {{resilience::FaultKind::kUploadTimeout, 0},
                     {resilience::FaultKind::kUploadTimeout, 1}};
      injector = std::make_unique<resilience::FaultInjector>(plan);
      host->set_fault_injector(injector.get());
    }
    return host;
  });
  const auto result = campaign.run(spec);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(result.shards_retried, 1u);
  ASSERT_FALSE(result.timings.empty());
  EXPECT_EQ(result.timings[0].attempts, 2u);
  EXPECT_EQ(result.timings[0].span, telemetry::span_id(0, 0, 0))
      << "the timing row must link into the span forest";

  const telemetry::SpanSheet& spans = campaign.spans();
  EXPECT_EQ(spans.dropped(), 0u);
  const auto find = [&](std::uint64_t id) -> const telemetry::Span* {
    for (const auto& s : spans.spans()) {
      if (s.id == id) return &s;
    }
    return nullptr;
  };
  // Root -> shard 0 -> two attempts; the fault marks hang inside attempt 1.
  ASSERT_NE(find(telemetry::kCampaignSpanId), nullptr);
  EXPECT_EQ(find(telemetry::kCampaignSpanId)->kind, telemetry::Layer::kCampaign);
  const telemetry::Span* shard0 = find(telemetry::span_id(0, 0, 0));
  ASSERT_NE(shard0, nullptr);
  EXPECT_EQ(shard0->parent, telemetry::kCampaignSpanId);
  const telemetry::Span* attempt1 = find(telemetry::span_id(0, 1, 0));
  const telemetry::Span* attempt2 = find(telemetry::span_id(0, 2, 0));
  ASSERT_NE(attempt1, nullptr);
  ASSERT_NE(attempt2, nullptr);
  EXPECT_EQ(attempt1->parent, shard0->id);
  EXPECT_EQ(attempt2->parent, shard0->id);
  std::size_t faults = 0;
  std::size_t recoveries = 0;
  for (const auto& s : spans.spans()) {
    if (s.kind == telemetry::Layer::kFault) {
      ++faults;
      EXPECT_EQ(s.shard, 0u);
      EXPECT_EQ(s.attempt, 1u) << "faults were scripted for the first attempt only";
      EXPECT_EQ(s.arg, static_cast<std::uint32_t>(resilience::FaultKind::kUploadTimeout));
    }
    if (s.kind == telemetry::Layer::kRecovery) ++recoveries;
    EXPECT_FALSE(s.open) << "a finished campaign leaves no span open";
  }
  EXPECT_EQ(faults, 2u) << "both scripted timeouts must be marked";
  EXPECT_GE(recoveries, 1u) << "the abort resolution must be marked";
  // Canonical order places every parent before its children.
  for (const auto& s : spans.spans()) {
    if (s.parent == 0) continue;
    const telemetry::Span* parent = find(s.parent);
    ASSERT_NE(parent, nullptr) << "dangling parent 0x" << std::hex << s.parent;
    EXPECT_LE(parent - spans.spans().data(), &s - spans.spans().data());
  }

  // The Chrome export round-trips the tree: one "b"/"e" pair per interval
  // span, one instant "n" per mark, parents rendered as hex ids.
  std::ostringstream os;
  telemetry::write_chrome_spans(os, spans);
  const std::string json = os.str();
  const auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  const std::size_t marks = faults + recoveries;
  EXPECT_EQ(count("\"ph\":\"b\""), spans.spans().size() - marks);
  EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));
  EXPECT_EQ(count("\"ph\":\"n\""), marks);
  char shard_hex[32];
  std::snprintf(shard_hex, sizeof shard_hex, "\"parent\":\"0x%llx\"",
                static_cast<unsigned long long>(shard0->id));
  EXPECT_NE(json.find(shard_hex), std::string::npos);
}

TEST(RecordIoTest, RowRecordRoundTripsExactly) {
  core::RowRecord rec;
  rec.site = core::Site{7, 1, 3};
  rec.physical_row = 16383;
  rec.wcdp = core::DataPattern::kCheckered1;
  for (std::size_t p = 0; p < core::kAllPatterns.size(); ++p) {
    rec.ber[p].bit_errors = 1234 + p;
    rec.ber[p].bits_tested = 1u << 20;
    rec.ber[p].ones_to_zeros = 1000 + p;
    rec.ber[p].zeros_to_ones = 234;
    rec.ber[p].elapsed_ms = 26.999999999999996 + static_cast<double>(p) * 0.1;
  }
  rec.hc_first[0] = 14531;
  rec.hc_first[1] = std::nullopt;
  rec.hc_first[2] = 262144;
  rec.hc_first[3] = 1;

  std::string json;
  append_row_record_json(json, rec);
  const auto parsed = parse_row_record(parse_json(json, "test record"));

  expect_records_equal({rec}, {parsed});
}

TEST(RecordIoTest, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)parse_json("{\"a\":", "torn"), common::ConfigError);
  EXPECT_THROW((void)parse_json("{\"a\":1} trailing", "trailing"), common::ConfigError);
  const auto missing = parse_json("{\"ch\":0}", "incomplete record");
  EXPECT_THROW((void)parse_row_record(missing), common::ConfigError);
}

TEST(JournalTest, HeaderMismatchNamesTheField) {
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_header.jsonl");
  const JournalHeader header{42, 0xabcdef, 7};
  {
    JournalWriter writer(path, header);
    writer.append_shard(3, {});
  }
  JournalReader reader(path);
  EXPECT_EQ(reader.header().seed, 42u);
  EXPECT_EQ(reader.header().config_hash, 0xabcdefu);
  EXPECT_EQ(reader.header().shard_count, 7u);
  ASSERT_EQ(reader.shards().size(), 1u);
  EXPECT_NO_THROW(reader.require_matches(header));

  JournalHeader wrong_seed = header;
  wrong_seed.seed = 43;
  EXPECT_THROW(reader.require_matches(wrong_seed), common::ConfigError);
  JournalHeader wrong_hash = header;
  wrong_hash.config_hash = 1;
  EXPECT_THROW(reader.require_matches(wrong_hash), common::ConfigError);
  JournalHeader wrong_count = header;
  wrong_count.shard_count = 8;
  EXPECT_THROW(reader.require_matches(wrong_count), common::ConfigError);
}

// Adversarial journals for JournalReader::outcomes(): real kill/retry
// interleavings produce duplicate completions, failure-then-success for the
// same shard, and annotation-free lines — the reader must keep the full
// per-line history (report fodder) while shards() deduplicates.

core::RowRecord minimal_record(std::uint32_t row) {
  core::RowRecord record;
  record.site = {0, 0, 1};
  record.physical_row = row;
  return record;
}

TEST(JournalTest, OutcomesKeepDuplicateCompletionsButShardsLastWins) {
  // A shard journaled twice (kill after fsync, resume re-ran it): outcomes()
  // reports both lines in file order; shards() keeps only the last.
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_dup.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(5, {minimal_record(10)}, 100.0, 1);
    writer.append_shard(5, {minimal_record(10), minimal_record(11)}, 250.0, 2);
  }
  JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 2u);
  EXPECT_EQ(reader.outcomes()[0].shard, 5u);
  EXPECT_EQ(reader.outcomes()[0].records, 1u);
  EXPECT_EQ(reader.outcomes()[1].records, 2u);
  EXPECT_EQ(reader.outcomes()[1].attempts, 2u);
  ASSERT_EQ(reader.shards().size(), 1u);
  EXPECT_EQ(reader.shards().at(5).size(), 2u) << "last completion must win";
  EXPECT_EQ(reader.shards().at(5)[1].physical_row, 11u);
}

TEST(JournalTest, FailureThenSuccessForTheSameShard) {
  // Retry exhausted on one rig, then a resume completed the shard: the
  // failure line stays in the history but must not mask the completion.
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_fail_then_ok.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_failure(3, 2, "transport: injected timeout");
    writer.append_shard(3, {minimal_record(7)}, 90.0, 1);
  }
  JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 2u);
  EXPECT_FALSE(reader.outcomes()[0].ok);
  EXPECT_EQ(reader.outcomes()[0].attempts, 2u);
  EXPECT_EQ(reader.outcomes()[0].error, "transport: injected timeout");
  EXPECT_EQ(reader.outcomes()[0].records, 0u);
  EXPECT_TRUE(reader.outcomes()[1].ok);
  ASSERT_EQ(reader.shards().count(3), 1u) << "failure line must not mask the completion";
  EXPECT_EQ(reader.shards().at(3)[0].physical_row, 7u);
}

TEST(JournalTest, SuccessThenFailureStillCountsAsCompleted) {
  // The reverse interleaving (completion journaled, a later rig failed on a
  // stale re-run): the shard stays completed — resume must not re-run it.
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_ok_then_fail.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(6, {minimal_record(9)});
    writer.append_failure(6, 1, "late failure");
  }
  JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 2u);
  EXPECT_EQ(reader.shards().count(6), 1u);
}

TEST(JournalTest, MissingOptionalAnnotationsParseWithDefaults) {
  // Pre-annotation journals carry no attempts/wall_ms; hand-build one line
  // per optional-field combination and check the documented defaults.
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_optional.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)});           // no annotations
    writer.append_shard(1, {minimal_record(2)}, 42.5, 3);  // both annotations
  }
  JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 2u);
  EXPECT_EQ(reader.outcomes()[0].attempts, 1u);
  EXPECT_LT(reader.outcomes()[0].wall_ms, 0.0) << "absent wall_ms reads back negative";
  EXPECT_EQ(reader.outcomes()[1].attempts, 3u);
  EXPECT_EQ(reader.outcomes()[1].wall_ms, 42.5);
}

TEST(JournalTest, OutcomesIgnoreTornTrailingLineButKeepIntactPrefix) {
  const test::ScratchDir dir;
  const std::string path = dir.file("campaign_test_torn.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 10.0, 1);
  }
  const std::uint64_t intact = JournalReader(path).intact_bytes();
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"shard\":1,\"records\":[{\"ch\"";  // the kill mid-write
  }
  JournalReader reader(path);
  ASSERT_EQ(reader.outcomes().size(), 1u);
  EXPECT_EQ(reader.outcomes()[0].shard, 0u);
  EXPECT_EQ(reader.intact_bytes(), intact) << "torn tail must not extend the intact prefix";
}

}  // namespace
}  // namespace rh::campaign
