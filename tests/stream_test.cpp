// Tests of the rh-metrics-stream/v1 layer (telemetry/stream.hpp): line
// formats, the writer's header + durability contract, and the cadence /
// delta / baseline semantics of MetricsSampler.
#include "telemetry/stream.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "campaign/tail.hpp"
#include "common/error.hpp"
#include "resilience/storage.hpp"
#include "scratch_dir.hpp"

namespace rh::telemetry {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Strips the v2 CRC frame, asserting it is present and intact: every line
/// the writer produces must carry a valid frame.
std::string unframe(const std::string& line) {
  std::string_view payload;
  EXPECT_EQ(resilience::check_frame(line, payload), resilience::FrameCheck::kFramed) << line;
  return std::string(payload);
}

TEST(StreamFormatTest, CyclesSampleIsExactAndOmitsZeroDeltas) {
  const CounterValues deltas{{"cmd.ACT", 128}, {"cmd.REF", 2}};
  EXPECT_EQ(format_cycles_sample(3, 1, 0, 16777216, deltas),
            "{\"sample\":\"cycles\",\"shard\":3,\"attempt\":1,\"seq\":0,"
            "\"cycle\":16777216,\"deltas\":{\"cmd.ACT\":128,\"cmd.REF\":2}}");
  EXPECT_EQ(format_cycles_sample(0, 2, 5, 42, {}),
            "{\"sample\":\"cycles\",\"shard\":0,\"attempt\":2,\"seq\":5,"
            "\"cycle\":42,\"deltas\":{}}");
}

TEST(StreamFormatTest, WallSampleListsWorkersInOrder) {
  const std::vector<StreamWorkerStatus> workers{{12.5, 3, 7}, {0.0, 0, -1}};
  EXPECT_EQ(format_wall_sample(201.25, {{"campaign.shards_done", 3}}, workers),
            "{\"sample\":\"wall\",\"t_ms\":201.250,"
            "\"counters\":{\"campaign.shards_done\":3},"
            "\"workers\":[{\"busy_ms\":12.500,\"done\":3,\"shard\":7},"
            "{\"busy_ms\":0.000,\"done\":0,\"shard\":-1}]}");
}

TEST(StreamFormatTest, FinalSampleCarriesShardTotals) {
  EXPECT_EQ(format_final_sample(999.5, {{"resilience.injected", 4}}, 17, 1, 2, 20),
            "{\"sample\":\"final\",\"t_ms\":999.500,"
            "\"counters\":{\"resilience.injected\":4},"
            "\"shards\":{\"done\":17,\"failed\":1,\"skipped\":2,\"total\":20}}");
}

TEST(StreamFormatTest, CounterValuesTakeOnlyCounters) {
  MetricsRegistry reg;
  reg.counter("a").add(5);
  reg.gauge("g").set(3.5);
  reg.histogram("h", 0.0, 1.0, 2).observe(0.5);
  const CounterValues values = counter_values(reg);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values.at("a"), 5u);
}

TEST(StreamWriterTest, TruncatesWritesHeaderThenAppends) {
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_writer.jsonl");
  {
    std::ofstream stale(path);
    stale << "previous run's leftovers\n";
  }
  MetricsStreamHeader header;
  header.seed = 9;
  header.config_hash = 0xabcdef;
  header.shards = 18;
  header.jobs = 4;
  header.cycle_cadence = 1ull << 24;
  header.wall_cadence_ms = 200.0;
  {
    MetricsStreamWriter writer(path, header);
    writer.append(format_cycles_sample(0, 1, 0, 100, {}));
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u) << "stale content must be truncated";
  EXPECT_EQ(unframe(lines[0]),
            "{\"kind\":\"rh-metrics-stream\",\"version\":2,\"seed\":9,"
            "\"config_hash\":\"0000000000abcdef\",\"shards\":18,\"jobs\":4,"
            "\"cycle_cadence\":16777216,\"wall_cadence_ms\":200.000}");
  EXPECT_EQ(unframe(lines[1]).rfind("{\"sample\":\"cycles\"", 0), 0u);
}

TEST(StreamWriterTest, UnwritablePathThrowsUpFront) {
  EXPECT_THROW(MetricsStreamWriter("/nonexistent-dir/stream.jsonl", MetricsStreamHeader{}),
               common::ConfigError);
}

TEST(MetricsSamplerTest, EmitsOncePerCadenceCrossingWithDeltas) {
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_sampler.jsonl");
  MetricsRegistry reg;
  MetricsStreamWriter writer(path, MetricsStreamHeader{});
  MetricsSampler sampler(writer, reg, /*cadence=*/100, /*shard=*/2, /*attempt=*/1,
                         /*base_cycle=*/1000);

  reg.counter("cmd.ACT").add(10);
  sampler.sample_if_due(1050);  // 50 relative cycles: not due yet
  EXPECT_EQ(sampler.samples_emitted(), 0u);
  sampler.sample_if_due(1130);  // crossed 100
  EXPECT_EQ(sampler.samples_emitted(), 1u);
  sampler.sample_if_due(1180);  // next boundary is 200: not due
  reg.counter("cmd.ACT").add(7);
  sampler.sample_if_due(1420);  // crossed 200 (and 300/400: one sample per visit)
  EXPECT_EQ(sampler.samples_emitted(), 2u);
  sampler.finish(1500);  // closing sample is unconditional
  EXPECT_EQ(sampler.samples_emitted(), 3u);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 samples
  // Cycle stamps are attempt-relative; deltas are since the previous sample.
  EXPECT_EQ(unframe(lines[1]),
            "{\"sample\":\"cycles\",\"shard\":2,\"attempt\":1,\"seq\":0,"
            "\"cycle\":130,\"deltas\":{\"cmd.ACT\":10}}");
  EXPECT_EQ(unframe(lines[2]),
            "{\"sample\":\"cycles\",\"shard\":2,\"attempt\":1,\"seq\":1,"
            "\"cycle\":420,\"deltas\":{\"cmd.ACT\":7}}");
  EXPECT_EQ(unframe(lines[3]),
            "{\"sample\":\"cycles\",\"shard\":2,\"attempt\":1,\"seq\":2,"
            "\"cycle\":500,\"deltas\":{}}");
}

TEST(MetricsSamplerTest, BaselinesAtConstructionSoPriorShardsDoNotLeak) {
  // A worker sink accumulates across the shards that worker runs; the
  // sampler must report only activity after its own construction, or the
  // first delta of every shard would depend on scheduling.
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_baseline.jsonl");
  MetricsRegistry reg;
  reg.counter("cmd.ACT").add(5000);  // a previous shard's activity
  MetricsStreamWriter writer(path, MetricsStreamHeader{});
  MetricsSampler sampler(writer, reg, 100, 0, 1, 0);
  reg.counter("cmd.ACT").add(3);
  sampler.finish(50);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"deltas\":{\"cmd.ACT\":3}"), std::string::npos) << lines[1];
}

TEST(StreamReaderTest, RoundTripsThroughTheTailReader) {
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_roundtrip.jsonl");
  MetricsStreamHeader header;
  header.seed = 4;
  header.shards = 6;
  header.jobs = 2;
  header.cycle_cadence = 128;
  header.wall_cadence_ms = 50.0;
  {
    MetricsStreamWriter writer(path, header);
    writer.append(format_cycles_sample(0, 1, 0, 128, {{"cmd.ACT", 9}}));
    writer.append(format_wall_sample(60.0, {{"campaign.shards_done", 1}}, {{12.0, 1, 3}}));
    writer.append(format_final_sample(120.0, {{"campaign.shards_done", 6}}, 6, 0, 0, 6));
  }
  const campaign::MetricsStreamData data = campaign::read_metrics_stream(path);
  EXPECT_TRUE(data.has_header);
  EXPECT_EQ(data.seed, 4u);
  EXPECT_EQ(data.jobs, 2u);
  EXPECT_EQ(data.cycle_cadence, 128u);
  EXPECT_EQ(data.cycles_samples, 1u);
  EXPECT_EQ(data.wall_samples, 1u);
  EXPECT_EQ(data.device_counters.at("cmd.ACT"), 9u);
  ASSERT_EQ(data.workers.size(), 1u);
  EXPECT_EQ(data.workers[0].shard, 3);
  EXPECT_TRUE(data.finished);
  EXPECT_EQ(data.final_done, 6u);
  EXPECT_FALSE(data.torn);
}

TEST(StreamReaderTest, ToleratesTornTrailingLineOnly) {
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_torn.jsonl");
  {
    MetricsStreamWriter writer(path, MetricsStreamHeader{});
    writer.append(format_cycles_sample(0, 1, 0, 10, {}));
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"sample\":\"cycles\",\"sh";  // the kill mid-append
  }
  const campaign::MetricsStreamData torn_tail = campaign::read_metrics_stream(path);
  EXPECT_TRUE(torn_tail.torn);
  EXPECT_EQ(torn_tail.cycles_samples, 1u) << "intact prefix must survive";

  // A newline-terminated but unparsable *final* line is the same torn write
  // (the newline landed, the payload did not); once a good line follows it,
  // the damage is mid-file bit rot — counted and skipped, never fatal,
  // because the header above it is intact and telemetry is advisory.
  {
    std::ofstream out(path, std::ios::app);
    out << "yntax error\n";
  }
  EXPECT_TRUE(campaign::read_metrics_stream(path).torn);
  {
    std::ofstream out(path, std::ios::app);
    out << format_cycles_sample(1, 1, 0, 10, {}) << '\n';  // bare v1 line: accepted
  }
  const campaign::MetricsStreamData rotted = campaign::read_metrics_stream(path);
  EXPECT_FALSE(rotted.torn) << "the tail line is now intact";
  EXPECT_EQ(rotted.corrupt_lines, 1u);
  EXPECT_EQ(rotted.cycles_samples, 2u) << "good lines on both sides of the rot survive";
}

TEST(StreamReaderTest, RejectsForeignFiles) {
  const test::ScratchDir dir;
  const std::string path = dir.file("stream_test_foreign.jsonl");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"rh-checkpoint\",\"version\":1}\n";
  }
  EXPECT_THROW((void)campaign::read_metrics_stream(path), common::ConfigError);
  EXPECT_THROW((void)campaign::read_metrics_stream("stream_test_missing.jsonl"),
               common::ConfigError);
}

}  // namespace
}  // namespace rh::telemetry
