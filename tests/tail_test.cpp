// Tests of the rh_tail joining layer (campaign/tail.hpp): journal+stream
// fusion into one TailStatus, the stall watchdog's post-mortem and
// follow-mode semantics, and the rendered monitor sections.
#include "campaign/tail.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "campaign/journal.hpp"
#include "common/error.hpp"
#include "scratch_dir.hpp"
#include "telemetry/stream.hpp"

namespace rh::campaign {
namespace {

core::RowRecord minimal_record(std::uint32_t row) {
  core::RowRecord record;
  record.site = {0, 0, 1};
  record.physical_row = row;
  return record;
}

/// A mid-run scene: shards 0 and 1 journaled, shard 2 failed, worker 0
/// in flight on (unjournaled) shard 5, worker 1 idle.
struct Scene {
  Scene()
      : journal(dir.file("tail_test_journal.jsonl")), stream(dir.file("tail_test_stream.jsonl")) {
    {
      JournalWriter writer(journal, JournalHeader{42, 0xbeef, 8});
      writer.append_shard(0, {minimal_record(1), minimal_record(2)}, 100.0, 1);
      writer.append_shard(1, {minimal_record(3)}, 80.0, 2);
      writer.append_failure(2, 3, "transport: injected timeout");
    }
    telemetry::MetricsStreamHeader header;
    header.seed = 42;
    header.config_hash = 0xbeef;
    header.shards = 8;
    header.jobs = 2;
    header.cycle_cadence = 1 << 20;
    header.wall_cadence_ms = 200.0;
    telemetry::MetricsStreamWriter writer(stream, header);
    writer.append(telemetry::format_cycles_sample(0, 1, 0, 1 << 20, {{"cmd.ACT", 64}}));
    writer.append(telemetry::format_wall_sample(
        500.0,
        {{"campaign.shards_done", 2}, {"resilience.injected", 3}, {"resilience.recovered", 2}},
        {{400.0, 2, 5}, {90.0, 0, -1}}));
  }

  test::ScratchDir dir;
  std::string journal;
  std::string stream;
};

TEST(TailStatusTest, JoinsJournalAndStreamIntoOneView) {
  const Scene scene;
  const TailStatus status = tail_status(scene.journal, scene.stream, TailOptions{});
  EXPECT_EQ(status.seed, 42u);
  EXPECT_EQ(status.shards_total, 8u);
  EXPECT_EQ(status.jobs, 2u);
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.records, 3u);
  EXPECT_EQ(status.attempts, 6u);  // 1 + 2 + 3
  EXPECT_DOUBLE_EQ(status.elapsed_ms, 500.0);
  EXPECT_FALSE(status.finished);
  EXPECT_FALSE(status.eta.empty());
  EXPECT_EQ(status.counters.at("resilience.injected"), 3u);
  EXPECT_EQ(status.device_counters.at("cmd.ACT"), 64u);
  ASSERT_EQ(status.workers.size(), 2u);
  EXPECT_DOUBLE_EQ(status.workers[0].utilization, 0.8);  // 400 ms of 500 ms
  EXPECT_EQ(status.workers[0].shard, 5);
  EXPECT_EQ(status.workers[1].shard, -1);
}

TEST(TailStatusTest, PostMortemFlagsEveryClaimedButUnjournaledShard) {
  const Scene scene;
  // Default options model the post-mortem: no live observation, so a shard
  // a worker claimed but never journaled is a casualty outright.
  const TailStatus status = tail_status(scene.journal, scene.stream, TailOptions{});
  ASSERT_EQ(status.stalled.size(), 1u);
  EXPECT_EQ(status.stalled[0].shard, 5u);
  EXPECT_EQ(status.stalled[0].worker, 0u);
  EXPECT_TRUE(status.watchdog_tripped);
}

TEST(TailStatusTest, FollowModeTripsOnlyAfterTheStallBudget) {
  const Scene scene;
  TailOptions opts;
  opts.stall_ms = 2000.0;
  opts.observed_idle_ms = 100.0;  // files still growing: in flight, not stalled
  const TailStatus busy = tail_status(scene.journal, scene.stream, opts);
  ASSERT_EQ(busy.stalled.size(), 1u);
  EXPECT_FALSE(busy.watchdog_tripped);

  opts.observed_idle_ms = 2500.0;  // quiet past the budget
  const TailStatus quiet = tail_status(scene.journal, scene.stream, opts);
  EXPECT_TRUE(quiet.watchdog_tripped);
}

TEST(TailStatusTest, JournaledShardIsNeverASuspect) {
  const Scene scene;
  {
    // The campaign journals shard 5 (the write raced the wall sample).
    JournalWriter writer(scene.journal, JournalReader(scene.journal));
    writer.append_shard(5, {minimal_record(9)}, 120.0, 1);
  }
  const TailStatus status = tail_status(scene.journal, scene.stream, TailOptions{});
  EXPECT_TRUE(status.stalled.empty());
  EXPECT_FALSE(status.watchdog_tripped);
  EXPECT_EQ(status.done, 3u);
}

TEST(TailStatusTest, FinalSampleFinishesTheStatus) {
  const Scene scene;
  {
    telemetry::MetricsStreamHeader header;
    header.seed = 42;
    header.shards = 8;
    header.jobs = 2;
    telemetry::MetricsStreamWriter writer(scene.stream, header);
    writer.append(telemetry::format_wall_sample(500.0, {}, {{400.0, 2, 5}}));
    writer.append(
        telemetry::format_final_sample(900.0, {{"campaign.shards_done", 7}}, 7, 1, 0, 8));
  }
  const TailStatus status = tail_status("", scene.stream, TailOptions{});
  EXPECT_TRUE(status.finished);
  EXPECT_EQ(status.done, 7u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_EQ(status.shards_total, 8u);
  EXPECT_TRUE(status.stalled.empty()) << "a finished campaign has nothing in flight";
  EXPECT_FALSE(status.watchdog_tripped);
  EXPECT_TRUE(status.eta.empty());
}

TEST(TailStatusTest, StreamOnlyModeCountsFromCampaignCounters) {
  const Scene scene;
  const TailStatus status = tail_status("", scene.stream, TailOptions{});
  EXPECT_EQ(status.done, 2u) << "campaign.shards_done stands in for the journal";
  EXPECT_EQ(status.records, 0u) << "record counts need the journal";
}

TEST(TailStatusTest, JournalOnlyModeWorksWithoutAStream) {
  const Scene scene;
  const TailStatus status = tail_status(scene.journal, "", TailOptions{});
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.failed, 1u);
  EXPECT_TRUE(status.workers.empty());
  EXPECT_TRUE(status.stalled.empty());
  EXPECT_THROW((void)tail_status("", "", TailOptions{}), common::ConfigError);
}

TEST(TailRenderTest, AlwaysPrintsUtilizationAndWatchdogSections) {
  const Scene scene;
  const TailStatus status = tail_status(scene.journal, scene.stream, TailOptions{});
  std::ostringstream os;
  render_tail_status(os, status);
  const std::string text = os.str();
  EXPECT_NE(text.find("[rh_tail] seed 42 | 3/8 shards (37%)"), std::string::npos) << text;
  EXPECT_NE(text.find("1 FAILED"), std::string::npos);
  EXPECT_NE(text.find("per-worker utilization:"), std::string::npos);
  EXPECT_NE(text.find("worker 0: 80% busy"), std::string::npos);
  EXPECT_NE(text.find("shard 5 in flight"), std::string::npos);
  EXPECT_NE(text.find("worker 1: 18% busy"), std::string::npos);
  EXPECT_NE(text.find("idle"), std::string::npos);
  EXPECT_NE(text.find("faults: 3 injected"), std::string::npos);
  EXPECT_NE(text.find("2 recovered"), std::string::npos);
  EXPECT_NE(text.find("stall watchdog:"), std::string::npos);
  EXPECT_NE(text.find("STALLED: shard 5 (worker 0) — claimed but not journaled"),
            std::string::npos);

  // A journal-only status still prints both section headers (CI greps them).
  const TailStatus bare = tail_status(scene.journal, "", TailOptions{});
  std::ostringstream os2;
  render_tail_status(os2, bare);
  EXPECT_NE(os2.str().find("per-worker utilization:"), std::string::npos);
  EXPECT_NE(os2.str().find("(no wall samples yet"), std::string::npos);
  EXPECT_NE(os2.str().find("stall watchdog:"), std::string::npos);
  EXPECT_NE(os2.str().find("ok — no suspect shards"), std::string::npos);
}

TEST(TailRenderTest, FinishedCampaignRendersCleanly) {
  TailStatus status;
  status.seed = 7;
  status.shards_total = 4;
  status.done = 4;
  status.finished = true;
  status.elapsed_ms = 1500.0;
  std::ostringstream os;
  render_tail_status(os, status);
  const std::string text = os.str();
  EXPECT_NE(text.find("finished in 1.5s"), std::string::npos) << text;
  EXPECT_NE(text.find("campaign finished cleanly"), std::string::npos);
  EXPECT_EQ(text.find("STALLED"), std::string::npos);
}

TEST(TailRenderTest, TornTailIsAnnotatedNotFatal) {
  const Scene scene;
  {
    std::ofstream out(scene.stream, std::ios::app);
    out << "{\"sample\":\"wall\",\"t_m";
  }
  const TailStatus status = tail_status(scene.journal, scene.stream, TailOptions{});
  EXPECT_TRUE(status.torn);
  std::ostringstream os;
  render_tail_status(os, status);
  EXPECT_NE(os.str().find("torn tail tolerated"), std::string::npos);
}

}  // namespace
}  // namespace rh::campaign
