// Satellite: the storage damage matrix against the readers and server boot.
//
// Started as header-only-file tests (a kill between the header fsync and
// the first shard leaves a header and nothing else; that is "0 of N
// complete", not corruption) and grew into the full matrix: torn tails,
// corrupt mid-file lines, truncated/destroyed headers, and orphaned .tmp
// files — each checked against the journal/stream readers and against a
// restarting rh_serve recovering its data directory.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/record_io.hpp"
#include "campaign/tail.hpp"
#include "common/error.hpp"
#include "scratch_dir.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"
#include "telemetry/stream.hpp"

namespace rh::campaign {
namespace {

TEST(HeaderOnly, JournalReaderSeesZeroOfN) {
  const test::ScratchDir dir;
  const std::string path = dir.file("header_only_test_journal.jsonl");
  const JournalHeader header{0xFEEDu, 0xD00Du, 18};
  { const JournalWriter writer(path, header); }  // header fsync, no shards

  const JournalReader reader(path);
  EXPECT_EQ(reader.header().seed, 0xFEEDu);
  EXPECT_EQ(reader.header().config_hash, 0xD00Du);
  EXPECT_EQ(reader.header().shard_count, 18u);
  EXPECT_TRUE(reader.shards().empty());
  EXPECT_TRUE(reader.outcomes().empty());
  EXPECT_GT(reader.intact_bytes(), 0u);
}

TEST(HeaderOnly, JournalSummaryRendersWithoutShardLines) {
  // rh_report --journal on a campaign killed before its first checkpoint.
  const test::ScratchDir dir;
  const std::string path = dir.file("header_only_test_summary.jsonl");
  { const JournalWriter writer(path, JournalHeader{1, 2, 18}); }

  const JournalReader reader(path);
  std::ostringstream os;
  render_journal_summary(os, path, reader);
  const std::string text = os.str();
  EXPECT_NE(text.find("0/18 complete"), std::string::npos) << text;
  EXPECT_NE(text.find("pending: 18 shards"), std::string::npos) << text;
  // No latency table: there are no wall-ms annotations to aggregate.
  EXPECT_EQ(text.find("p50"), std::string::npos) << text;
  EXPECT_NE(text.find("no per-shard wall-ms annotations"), std::string::npos) << text;
}

TEST(HeaderOnly, ResumeFromHeaderOnlyJournalKeepsTheHeader) {
  // A resume against a header-only journal must behave like a fresh start:
  // keep the header bytes, append from shard zero.
  const test::ScratchDir dir;
  const std::string path = dir.file("header_only_test_resume.jsonl");
  { const JournalWriter writer(path, JournalHeader{7, 8, 4}); }
  const JournalReader before(path);
  { const JournalWriter resumed(path, before); }
  const JournalReader after(path);
  EXPECT_EQ(after.header().seed, 7u);
  EXPECT_EQ(after.header().shard_count, 4u);
  EXPECT_TRUE(after.shards().empty());
}

TEST(HeaderOnly, MetricsStreamReaderSeesAnUnfinishedEmptyRun) {
  const test::ScratchDir dir;
  const std::string path = dir.file("header_only_test_stream.jsonl");
  telemetry::MetricsStreamHeader header;
  header.seed = 0xFEEDu;
  header.config_hash = 0xD00Du;
  header.shards = 18;
  header.jobs = 2;
  header.cycle_cadence = 1u << 20;
  header.wall_cadence_ms = 250.0;
  { const telemetry::MetricsStreamWriter writer(path, header); }

  const MetricsStreamData data = read_metrics_stream(path);
  EXPECT_TRUE(data.has_header);
  EXPECT_EQ(data.seed, 0xFEEDu);
  EXPECT_EQ(data.shards, 18u);
  EXPECT_EQ(data.jobs, 2u);
  EXPECT_EQ(data.cycles_samples, 0u);
  EXPECT_EQ(data.wall_samples, 0u);
  EXPECT_FALSE(data.finished);
  EXPECT_FALSE(data.torn);
  EXPECT_TRUE(data.counters.empty());
  EXPECT_TRUE(data.workers.empty());
}

TEST(HeaderOnly, TornHeaderTailIsTolerated) {
  // A kill can tear even the first sample line; everything intact before it
  // (here: just the header) must still parse.
  const test::ScratchDir dir;
  const std::string path = dir.file("header_only_test_torn.jsonl");
  {
    const telemetry::MetricsStreamWriter writer(path, telemetry::MetricsStreamHeader{});
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "{\"sample\":\"wall\",\"t_ms\":12.5,\"coun";
    std::fwrite(torn, 1, sizeof torn - 1, f);
    std::fclose(f);
  }
  const MetricsStreamData data = read_metrics_stream(path);
  EXPECT_TRUE(data.has_header);
  EXPECT_TRUE(data.torn);
  EXPECT_EQ(data.wall_samples, 0u);
  EXPECT_FALSE(data.finished);
}

TEST(DamageMatrix, TruncatedJournalHeaderIsFatal) {
  // A kill can tear even the header line. With no trusted identity line
  // the whole file is untrusted: the reader must refuse, and resume must
  // start over rather than guess.
  const test::ScratchDir dir;
  const std::string path = dir.file("damage_matrix_torn_header.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"kind\":\"rh-campaign-journal\",\"version\":2,\"se";  // no newline
  }
  EXPECT_THROW((void)JournalReader(path), common::ConfigError);
}

TEST(DamageMatrix, TruncatedStreamHeaderReadsAsTornAndEmpty) {
  // The stream is advisory telemetry: a torn header is a torn tail like
  // any other, not an error — there is just nothing to report yet.
  const test::ScratchDir dir;
  const std::string path = dir.file("damage_matrix_torn_stream_header.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"kind\":\"rh-metrics-stream\",\"vers";  // no newline
  }
  const MetricsStreamData data = read_metrics_stream(path);
  EXPECT_FALSE(data.has_header);
  EXPECT_TRUE(data.torn);
  EXPECT_EQ(data.cycles_samples, 0u);
}

TEST(DamageMatrix, TornJournalTailKeepsEveryIntactShard) {
  const test::ScratchDir dir;
  const std::string path = dir.file("damage_matrix_torn_tail.jsonl");
  {
    JournalWriter writer(path, JournalHeader{3, 4, 6});
    core::RowRecord record;
    record.site = {0, 0, 1};
    record.physical_row = 11;
    writer.append_shard(0, {record}, 9.0, 1);
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"shard\":1,\"reco";
  }
  const JournalReader reader(path);
  EXPECT_TRUE(reader.torn_tail());
  EXPECT_TRUE(reader.corrupt_lines().empty());
  EXPECT_EQ(reader.shards().size(), 1u);
}

TEST(DamageMatrix, CorruptMidFileJournalLineLeavesItsShardPending) {
  const test::ScratchDir dir;
  const std::string path = dir.file("damage_matrix_rot.jsonl");
  {
    JournalWriter writer(path, JournalHeader{3, 4, 6});
    core::RowRecord record;
    record.site = {0, 0, 1};
    record.physical_row = 11;
    writer.append_shard(0, {record}, 9.0, 1);
    writer.append_shard(1, {record}, 9.0, 1);
    writer.append_shard(2, {record}, 9.0, 1);
  }
  // Flip one byte in shard 1's line.
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  std::size_t start = content.find('\n') + 1;       // past the header
  start = content.find('\n', start) + 1;            // past shard 0
  content[start + 10] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }
  const JournalReader reader(path);
  ASSERT_EQ(reader.corrupt_lines().size(), 1u);
  EXPECT_EQ(reader.shards().count(0), 1u);
  EXPECT_EQ(reader.shards().count(1), 0u);
  EXPECT_EQ(reader.shards().count(2), 1u);
  EXPECT_FALSE(reader.torn_tail());
}

}  // namespace
}  // namespace rh::campaign

// ---------------------------------------------------------------------------
// The same matrix against a restarting server: boot recovery must absorb
// every lesion without crashing, re-run exactly what was lost, and converge
// to the same result bytes.
// ---------------------------------------------------------------------------

namespace rh::serve {
namespace {

CampaignConfig quick_config() {
  CampaignConfig config;
  config.label = "boot-recovery";
  config.channels = {0, 7};
  config.row_stride = 512;
  config.wcdp_by_ber = true;
  config.settle_thermal = false;
  config.max_rows_per_shard = 2;  // 18 shards
  return config;
}

HttpRequest request(const std::string& method, const std::string& target,
                    const std::string& body = "") {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  return req;
}

std::string wait_terminal(Server& server, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const HttpResponse resp = server.handle(request("GET", "/jobs/" + std::to_string(id)));
    EXPECT_EQ(resp.status, 200);
    const std::string state = campaign::parse_json(resp.body, "status").at("state").text;
    if (state != "queued" && state != "running") return state;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " still " << state;
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Runs one job to completion on `dir`, returning {id, results body}.
std::pair<std::uint64_t, std::string> run_clean_job(const std::string& dir) {
  Server::Options options;
  options.data_dir = dir;
  options.rigs = 1;
  Server server(options);
  server.start();
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
  EXPECT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = campaign::parse_json(created.body, "created").at("id").as_u64();
  EXPECT_EQ(wait_terminal(server, id), "done");
  const HttpResponse results =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
  EXPECT_EQ(results.status, 200);
  return {id, results.body};
}  // ~Server drains

/// The "shards" object of the job's run report.
campaign::JsonValue report_shards(Server& server, std::uint64_t id) {
  const HttpResponse report =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/report"));
  EXPECT_EQ(report.status, 200);
  return campaign::parse_json(report.body, "report").at("shards");
}

/// Marks the job's descriptor "running" so the next boot resumes it.
void reopen_descriptor(const std::string& dir, std::uint64_t id) {
  const std::string path = dir + "/job-" + std::to_string(id) + ".json";
  std::string text = read_file(path);
  const std::size_t at = text.find("\"state\":\"done\"");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, std::string("\"state\":\"done\"").size(), "\"state\":\"running\"");
  write_raw(path, text);
}

TEST(ServeBootRecovery, QuarantinesMidFileRotReRunsTheShardAndMatches) {
  const test::ScratchDir dir;
  const auto [id, clean_results] = run_clean_job(dir.str());
  ASSERT_FALSE(clean_results.empty());

  // The damage matrix, applied while the server is down: the descriptor
  // says the job is still running, one journaled shard line rots, a kill
  // tears the tail, and an interrupted atomic write leaves a .tmp orphan.
  reopen_descriptor(dir.str(), id);
  const std::string journal = dir.str() + "/job-" + std::to_string(id) + ".journal.jsonl";
  std::string text = read_file(journal);
  std::size_t start = text.find('\n') + 1;  // past the header
  start = text.find('\n', start) + 1;       // past the first shard line
  ASSERT_LT(start + 10, text.size());
  text[start + 10] ^= 0x01;                 // rot the second shard line
  text += "{\"shard\":99,\"rec";            // torn tail
  write_raw(journal, text);
  // The orphan rides on an id nobody owns: an orphan on a live job's
  // descriptor path would be legitimately consumed by that job's next
  // atomic rewrite, so it can't be asserted on after the resume.
  write_raw(dir.str() + "/job-777.json.tmp", "{\"half\":");

  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 1;
  Server server(options);
  server.start();  // must not throw, crash, or wedge on any of it
  EXPECT_EQ(wait_terminal(server, id), "done");

  const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
  const campaign::JsonValue doc = campaign::parse_json(status.body, "status");
  EXPECT_GT(report_shards(server, id).at("skipped").as_u64(), 0u)
      << "intact journal lines must be restored, not re-run";
  EXPECT_EQ(doc.at("shards").at("failed").as_u64(), 0u);

  const HttpResponse results =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
  EXPECT_EQ(results.body, clean_results)
      << "recovery from rot must converge to the clean bytes";
  EXPECT_TRUE(std::filesystem::exists(journal + ".quarantine"))
      << "the rotted line is preserved for the operator";
  EXPECT_TRUE(std::filesystem::exists(dir.str() + "/job-777.json.tmp"))
      << "boot recovery must not mistake an orphan tmp for a descriptor";
  const HttpResponse ghost = server.handle(request("GET", "/jobs/777"));
  EXPECT_EQ(ghost.status, 404) << "an orphan tmp must not materialize a job";
}

TEST(ServeBootRecovery, DestroyedJournalHeaderStartsOverAndStillFinishes) {
  const test::ScratchDir dir;
  const auto [id, clean_results] = run_clean_job(dir.str());

  reopen_descriptor(dir.str(), id);
  const std::string journal = dir.str() + "/job-" + std::to_string(id) + ".journal.jsonl";
  std::string text = read_file(journal);
  text[text.find('\n') / 2] ^= 0x01;  // destroy the identity line
  write_raw(journal, text);

  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 1;
  Server server(options);
  server.start();
  EXPECT_EQ(wait_terminal(server, id), "done");

  const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
  const campaign::JsonValue doc = campaign::parse_json(status.body, "status");
  EXPECT_EQ(doc.at("shards").at("cached").as_u64(), 0u)
      << "an untrusted journal contributes nothing: every shard re-runs";
  EXPECT_EQ(report_shards(server, id).at("skipped").as_u64(), 0u);
  const HttpResponse results =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
  EXPECT_EQ(results.body, clean_results);
}

TEST(ServeBootRecovery, RefusedJournalHeaderFailsTheJobAsStorage) {
  // The bench rule's service twin: one scripted ENOSPC at opportunity 0
  // refuses the job's journal header. The job is still admitted and runs,
  // but a job without a durable record must not claim success.
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 1;
  options.storage_plan.script.push_back({resilience::StorageFaultKind::kEnospc, 0});
  Server server(options);
  server.start();
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = campaign::parse_json(created.body, "created").at("id").as_u64();
  EXPECT_EQ(wait_terminal(server, id), "failed");

  const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
  const std::string error = campaign::parse_json(status.body, "status").at("error").text;
  EXPECT_EQ(error.rfind("storage:", 0), 0u) << error;
  const HttpResponse health = server.handle(request("GET", "/healthz"));
  EXPECT_NE(health.body.find("\"degraded\":true"), std::string::npos) << health.body;
}

TEST(ServeBootRecovery, OnlyResultCacheHitsReadCachedAcrossRestarts) {
  // A restart restores every job's journal; that is no cache hit. A job
  // the rigs simulated reads 0 cached after it, and a resubmission born
  // done from the cache keeps all its shards cached.
  const test::ScratchDir dir;
  const auto [simulated, clean_results] = run_clean_job(dir.str());
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 1;
  const auto expect_cached = [](Server& server, std::uint64_t id, std::uint64_t cached) {
    const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
    const campaign::JsonValue doc = campaign::parse_json(status.body, "status");
    EXPECT_EQ(doc.at("state").text, "done") << "job " << id;
    EXPECT_EQ(doc.at("shards").at("cached").as_u64(), cached) << "job " << id;
    EXPECT_EQ(doc.at("cache_hit").kind == campaign::JsonValue::Kind::kBool &&
                  doc.at("cache_hit").boolean,
              cached > 0)
        << "job " << id;
  };

  std::uint64_t resubmitted = 0;
  std::uint64_t total = 0;
  {
    Server server(options);
    server.start();  // the simulated job's journal warms the cache
    expect_cached(server, simulated, 0);
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(quick_config())));
    ASSERT_EQ(created.status, 201) << created.body;
    const campaign::JsonValue doc = campaign::parse_json(created.body, "created");
    resubmitted = doc.at("id").as_u64();
    total = doc.at("shards").at("total").as_u64();
    ASSERT_GT(total, 0u);
    expect_cached(server, resubmitted, total);
  }
  Server server(options);
  server.start();
  expect_cached(server, simulated, 0);
  expect_cached(server, resubmitted, total);
  const HttpResponse results =
      server.handle(request("GET", "/jobs/" + std::to_string(resubmitted) + "/results"));
  EXPECT_EQ(results.body, clean_results);
}

}  // namespace
}  // namespace rh::serve
