// Golden-contract tests: pin the *shape* (field names, order, types) of
// every on-disk document schema against committed golden files under
// tests/golden/. Values vary by seed and machine; shapes must not change
// without review. To accept an intentional schema change, rerun with
// RH_UPDATE_GOLDEN=1 and commit the regenerated .shape files.
#include "verify/golden.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/journal.hpp"
#include "profiling/report.hpp"
#include "resilience/storage.hpp"
#include "scratch_dir.hpp"
#include "serve/config.hpp"
#include "serve/observe.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stream.hpp"

#ifndef RH_GOLDEN_DIR
#error "RH_GOLDEN_DIR must point at the committed golden shape files"
#endif

namespace rh::verify {
namespace {

std::string golden(const std::string& name) { return std::string(RH_GOLDEN_DIR) + "/" + name; }

/// v2 JSONL lines carry a CRC-32 frame after the payload; the shape
/// contract covers the payload document. The frame must be present and
/// intact on every writer-produced line.
std::string unframe(const std::string& line) {
  std::string_view payload;
  EXPECT_EQ(resilience::check_frame(line, payload), resilience::FrameCheck::kFramed) << line;
  return std::string(payload);
}

/// A canonical populated report: every optional branch of the writers has
/// content (shard timings, metrics in all three groups, trace counts), so
/// the shape covers the full schema, not a degenerate empty document.
profiling::RunReport canonical_report() {
  profiling::RunReport report;
  report.campaign = "golden";
  report.seed = 7;
  report.jobs = 2;
  report.shards_total = 4;
  report.shards_done = 3;
  report.shards_skipped = 1;
  report.shards_retried = 1;
  report.records = 96;
  report.elapsed_wall_ms = 1234.5;
  report.profile.record(profiling::Phase::kExecute, 50000, 800.0, 3);
  report.profile.record(profiling::Phase::kShardRun, 48000, 700.0, 3);
  report.timings.push_back({0, 16000, 250.0, 1, telemetry::span_id(0, 0, 0)});
  report.timings.push_back({2, 16000, 300.0, 2, telemetry::span_id(2, 0, 0)});
  report.spans_total = 12;
  report.spans_dropped = 1;
  telemetry::MetricsRegistry registry;
  registry.counter("cmd.act").add(100);
  registry.gauge("thermal.temp_c").set(85.0);
  registry.histogram("shard.wall_ms", 0.0, 1000.0, 8).observe(250.0);
  report.metrics = registry.snapshot();
  report.trace = {10, 8, 2};
  return report;
}

TEST(GoldenContract, RunReportSchemaV1) {
  std::ostringstream os;
  profiling::write_report_json(os, canonical_report(), /*include_wall=*/true);
  const auto diff = check_golden(golden("run_report_v1.shape"),
                                 shape_text(os.str(), "rh-run-report/v1"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, RunReportDeterministicProjection) {
  // The include_wall=false projection is its own contract: the determinism
  // tests byte-compare it, so silently gaining a wall-clock field would
  // break them machine-dependently. Pin it separately.
  std::ostringstream os;
  profiling::write_report_json(os, canonical_report(), /*include_wall=*/false);
  const auto diff = check_golden(golden("run_report_deterministic.shape"),
                                 shape_text(os.str(), "rh-run-report deterministic projection"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, MetricsSnapshotJson) {
  std::ostringstream os;
  canonical_report().metrics.write_json(os);
  const auto diff =
      check_golden(golden("metrics_snapshot.shape"), shape_text(os.str(), "metrics snapshot"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, CheckpointJournalV1) {
  // The journal is JSONL: pin the shape of each line kind — header,
  // annotated completion, bare completion, failure — as one document each.
  const std::string path = "golden_contract_journal.jsonl";
  std::remove(path.c_str());
  {
    campaign::JournalWriter writer(path, campaign::JournalHeader{7, 0xabcdefu, 4});
    core::RowRecord record;
    record.site = {0, 1, 2};
    record.physical_row = 17;
    record.hc_first[0] = 4096;  // cover the non-null branch of hc_first
    writer.append_shard(3, {record}, 812.5, 2);
    writer.append_shard(1, {record});  // pre-annotation byte format
    writer.append_failure(2, 3, "injected fault");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const char* kLabels[] = {"header", "shard-annotated", "shard-bare", "failure"};
  std::string actual;
  std::string line;
  for (const char* label : kLabels) {
    ASSERT_TRUE(std::getline(in, line)) << "journal is missing its " << label << " line";
    actual += std::string("== ") + label + "\n" + shape_text(unframe(line), label);
  }
  std::remove(path.c_str());
  const auto diff = check_golden(golden("checkpoint_journal_v1.shape"), actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, MetricsStreamV1) {
  // The live stream is JSONL like the journal: pin each line kind — header,
  // cycles sample, wall sample, final sample — as one document each.
  const std::string path = "golden_contract_stream.jsonl";
  std::remove(path.c_str());
  {
    telemetry::MetricsStreamHeader header;
    header.seed = 7;
    header.config_hash = 0xabcdefu;
    header.shards = 4;
    header.jobs = 2;
    header.cycle_cadence = 1 << 24;
    header.wall_cadence_ms = 200.0;
    telemetry::MetricsStreamWriter writer(path, header);
    writer.append(telemetry::format_cycles_sample(0, 1, 0, 1 << 24, {{"cmd.ACT", 96}}));
    writer.append(telemetry::format_wall_sample(210.5, {{"campaign.shards_done", 1}},
                                                {{180.0, 1, 2}, {0.0, 0, -1}}));
    writer.append(telemetry::format_final_sample(900.0, {{"campaign.shards_done", 4}}, 3, 0, 1,
                                                 4));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const char* kLabels[] = {"header", "cycles", "wall", "final"};
  std::string actual;
  std::string line;
  for (const char* label : kLabels) {
    ASSERT_TRUE(std::getline(in, line)) << "stream is missing its " << label << " line";
    actual += std::string("== ") + label + "\n" + shape_text(unframe(line), label);
  }
  std::remove(path.c_str());
  const auto diff = check_golden(golden("metrics_stream_v1.shape"), actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

/// A service fixture for the /healthz and /statz shapes: one admitted job
/// (so the tenants array has a row) on a never-started server (so every
/// value is deterministic-by-construction; the shape ignores values, but a
/// populated array pins its element shape where an empty one would not).
class ServeFixture {
public:
  ServeFixture() {
    serve::Server::Options options;
    options.data_dir = dir_.str();
    server_ = std::make_unique<serve::Server>(options);
    serve::HttpRequest req;
    req.method = "POST";
    req.target = "/jobs";
    req.body = serve::to_canonical_json(serve::CampaignConfig{});
    req.headers["x-tenant"] = "alice";
    EXPECT_EQ(server_->handle(req).status, 201);
  }
  [[nodiscard]] serve::Server& server() { return *server_; }

private:
  test::ScratchDir dir_;  // outlives the server, which writes into it
  std::unique_ptr<serve::Server> server_;
};

TEST(GoldenContract, ServeHealthzV1) {
  ServeFixture fixture;
  const auto diff = check_golden(golden("serve_healthz_v1.shape"),
                                 shape_text(fixture.server().healthz_json(), "rh-serve-healthz/v1"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, ServeStatzV1) {
  // The statz document carries two element-bearing arrays: per-rig rows
  // (idle pool, 2 rigs) and per-tenant rows (the fixture's one tenant).
  ServeFixture fixture;
  const auto diff = check_golden(golden("serve_statz_v1.shape"),
                                 shape_text(fixture.server().statz_json(), "rh-serve-statz/v1"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, AccessLogLineV1) {
  serve::AccessRecord record;
  record.method = "POST";
  record.path = "/jobs";
  record.tenant = "alice";
  record.outcome = "ok";
  record.status = 201;
  record.bytes = 321;
  record.wall_us = 412.5;
  const auto diff = check_golden(golden("access_log_v1.shape"),
                                 shape_text(serve::access_record_json(record), "rh-access-log/v1"));
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, PrometheusExpositionSample) {
  // /metricsz is text, not JSON, so the contract is the rendered bytes of a
  // fixed fixture: one counter, one gauge, one histogram (cumulative
  // buckets, +Inf, _sum, _count), and one labeled sample — every line form
  // the endpoint emits.
  telemetry::MetricsRegistry registry;
  registry.counter("serve.http_requests").add(4);
  registry.gauge("serve.jobs_active").set(1.0);
  auto& hist = registry.histogram("serve.queue_wait_ms", 0.0, 8.0, 4);
  hist.observe(1.0);
  hist.observe(3.0);
  hist.observe(100.0);  // clamps into the top bucket; _sum keeps 100
  std::ostringstream os;
  telemetry::write_prometheus(os, registry.snapshot());
  telemetry::write_prometheus_type(os, "serve_tenant_quota", "gauge");
  telemetry::write_prometheus_sample(os, "serve_tenant_quota", {{"tenant", "alice"}}, 4.0);
  const auto diff = check_golden(golden("prometheus_exposition_sample.golden"), os.str());
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(GoldenContract, MissingGoldenFileExplainsHowToCreateIt) {
  if (std::getenv("RH_UPDATE_GOLDEN") != nullptr) {
    GTEST_SKIP() << "update mode would create the intentionally-missing file";
  }
  const auto diff = check_golden(golden("does_not_exist.shape"), "/ object\n");
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("RH_UPDATE_GOLDEN"), std::string::npos);
}

TEST(GoldenContract, ShapeDetectsFieldRenameAddRemoveAndReorder) {
  const std::string base = shape_text(R"({"a":1,"b":"x","c":[{"d":true}]})", "base");
  EXPECT_NE(base, shape_text(R"({"a":1,"b":"x","c":[{"e":true}]})", "rename"));
  EXPECT_NE(base, shape_text(R"({"a":1,"b":"x","c":[{"d":true}],"z":0})", "add"));
  EXPECT_NE(base, shape_text(R"({"a":1,"c":[{"d":true}]})", "remove"));
  EXPECT_NE(base, shape_text(R"({"b":"x","a":1,"c":[{"d":true}]})", "reorder"));
  EXPECT_NE(base, shape_text(R"({"a":"1","b":"x","c":[{"d":true}]})", "type-change"));
  // Values alone never change the shape.
  EXPECT_EQ(base, shape_text(R"({"a":99,"b":"y","c":[{"d":false}]})", "values"));
}

}  // namespace
}  // namespace rh::verify
