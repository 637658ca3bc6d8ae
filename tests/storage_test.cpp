// The storage durability plane, end to end: the deterministic disk-fault
// injector, CRC-32 line framing, the DurableFile / write_file_atomic
// primitives under every fault kind, journal damage classification and
// quarantine resume, campaign-level byte-identity under disk-fault storms,
// metrics-stream degradation, and rh_fsck's detect/repair contract.
#include "resilience/storage.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fsck.hpp"
#include "campaign/journal.hpp"
#include "campaign/tail.hpp"
#include "common/error.hpp"
#include "core/spatial.hpp"
#include "scratch_dir.hpp"
#include "telemetry/stream.hpp"

namespace rh::resilience {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A plan whose only fault is one scripted entry — exact placement.
StorageFaultPlan scripted(StorageFaultKind kind, std::uint64_t opportunity) {
  StorageFaultPlan plan;
  plan.script.push_back({kind, opportunity});
  return plan;
}

// ---------------------------------------------------------------------------
// The injector: determinism and scripting.
// ---------------------------------------------------------------------------

TEST(StorageInjector, SameSeedAndPlanReplayTheSameStorm) {
  StorageFaultPlan plan;
  plan.seed = 42;
  plan.set_storm_rates(0.3);

  const auto drive = [](StorageFaultPlan p) {
    StorageFaultInjector injector(std::move(p));
    for (int i = 0; i < 200; ++i) {
      for (std::size_t k = 0; k < kStorageFaultKindCount; ++k) {
        (void)injector.should_fire(static_cast<StorageFaultKind>(k));
      }
    }
    return injector.log_string();
  };

  const std::string first = drive(plan);
  EXPECT_EQ(first, drive(plan)) << "identical plans must tear identical bytes";
  EXPECT_FALSE(first.empty()) << "a 30% storm over 1000 opportunities fires";

  StorageFaultPlan reseeded = plan;
  reseeded.seed = 43;
  EXPECT_NE(first, drive(reseeded)) << "the seed must decorrelate storms";
}

TEST(StorageInjector, PerKindStreamsAreIndependent) {
  // Arming one kind must not shift when another kind fires: each kind
  // consumes its own opportunity counter.
  StorageFaultPlan torn_only;
  torn_only.seed = 7;
  torn_only.set_rate(StorageFaultKind::kTornLine, 0.5);

  StorageFaultPlan both = torn_only;
  both.set_rate(StorageFaultKind::kFsyncFail, 0.5);

  const auto torn_pattern = [](StorageFaultPlan p) {
    StorageFaultInjector injector(std::move(p));
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      (void)injector.should_fire(StorageFaultKind::kFsyncFail);
      pattern += injector.should_fire(StorageFaultKind::kTornLine) ? '1' : '0';
    }
    return pattern;
  };
  EXPECT_EQ(torn_pattern(torn_only), torn_pattern(both));
}

TEST(StorageInjector, ScriptedFaultFiresExactlyOnItsOpportunity) {
  StorageFaultInjector injector(scripted(StorageFaultKind::kTornLine, 2));
  EXPECT_FALSE(injector.should_fire(StorageFaultKind::kTornLine));
  EXPECT_FALSE(injector.should_fire(StorageFaultKind::kTornLine));
  EXPECT_TRUE(injector.should_fire(StorageFaultKind::kTornLine));
  EXPECT_FALSE(injector.should_fire(StorageFaultKind::kTornLine));
  EXPECT_EQ(injector.stats().injected, 1u);
  EXPECT_EQ(injector.stats().by_kind[static_cast<std::size_t>(StorageFaultKind::kTornLine)],
            1u);
}

// ---------------------------------------------------------------------------
// CRC framing.
// ---------------------------------------------------------------------------

TEST(CrcFrame, RoundTripsThePayload) {
  const std::string payload = R"({"shard":7,"records":[]})";
  const std::string framed = frame_line(payload);
  ASSERT_EQ(framed.size(), payload.size() + 9) << "'\\t' + 8 hex digits";
  std::string_view out;
  EXPECT_EQ(check_frame(framed, out), FrameCheck::kFramed);
  EXPECT_EQ(out, payload);
}

TEST(CrcFrame, BareV1LineIsUnframedNotCorrupt) {
  std::string_view out;
  EXPECT_EQ(check_frame(R"({"shard":1,"records":[]})", out), FrameCheck::kUnframed);
  EXPECT_EQ(out, R"({"shard":1,"records":[]})");
}

TEST(CrcFrame, EveryPayloadBitFlipIsDetected) {
  const std::string payload = R"({"sample":"cycles","shard":3,"cycle":16777216})";
  const std::string framed = frame_line(payload);
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::string damaged = framed;
    damaged[bit / 8] = static_cast<char>(static_cast<unsigned char>(damaged[bit / 8]) ^
                                         (1u << (bit % 8)));
    std::string_view out;
    EXPECT_EQ(check_frame(damaged, out), FrameCheck::kMismatch)
        << "flip of payload bit " << bit << " slipped through";
  }
}

// ---------------------------------------------------------------------------
// DurableFile under each fault kind.
// ---------------------------------------------------------------------------

TEST(DurableFileTest, FaultFreeLinesLandNewlineTerminated) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_plain.jsonl");
  {
    DurableFile file(path, "test file", /*truncate=*/true, nullptr);
    file.write_line("alpha");
    file.write_line("beta");
  }
  EXPECT_EQ(read_file(path), "alpha\nbeta\n");
}

TEST(DurableFileTest, EnospcThrowsBeforeAnythingLands) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_enospc.jsonl");
  StorageFaultInjector injector(scripted(StorageFaultKind::kEnospc, 0));
  DurableFile file(path, "test file", true, &injector);
  EXPECT_THROW(file.write_line("doomed"), common::StorageError);
  EXPECT_EQ(read_file(path), "") << "a refused write leaves no bytes";
}

TEST(DurableFileTest, ShortWriteThrowsWithOnlyAPrefixOnDisk) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_short.jsonl");
  StorageFaultInjector injector(scripted(StorageFaultKind::kShortWrite, 1));
  DurableFile file(path, "test file", true, &injector);
  file.write_line("intact");
  EXPECT_THROW(file.write_line("this line will be cut off"), common::StorageError);
  const std::string content = read_file(path);
  EXPECT_EQ(content.rfind("intact\n", 0), 0u);
  EXPECT_LT(content.size(), std::string("intact\nthis line will be cut off\n").size())
      << "a short write lands a strict prefix";
}

TEST(DurableFileTest, TornLineLandsAPrefixSilently) {
  // The defining property of a torn line: the writer believes it landed.
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_torn.jsonl");
  StorageFaultInjector injector(scripted(StorageFaultKind::kTornLine, 0));
  {
    DurableFile file(path, "test file", true, &injector);
    EXPECT_NO_THROW(file.write_line("silently torn"));
    EXPECT_NO_THROW(file.write_line("next"));
  }
  const std::string content = read_file(path);
  EXPECT_EQ(content.find("silently torn\n"), std::string::npos)
      << "the torn line must not be whole";
  // The next line fuses onto the torn prefix — exactly the mid-file
  // corruption shape the readers quarantine.
  EXPECT_NE(content.find("next\n"), std::string::npos);
}

TEST(DurableFileTest, BitCorruptLandsTheLineThenRotsIt) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_rot.jsonl");
  StorageFaultInjector injector(scripted(StorageFaultKind::kBitCorrupt, 0));
  const std::string line = "a line that will rot on the medium";
  {
    DurableFile file(path, "test file", true, &injector);
    EXPECT_NO_THROW(file.write_line(line));
  }
  const std::string content = read_file(path);
  ASSERT_EQ(content.size(), line.size() + 1) << "rot changes bits, not lengths";
  EXPECT_NE(content, line + "\n");
}

TEST(DurableFileTest, FsyncFailureThrowsAfterTheDataLanded) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_fsync.jsonl");
  StorageFaultInjector injector(scripted(StorageFaultKind::kFsyncFail, 0));
  DurableFile file(path, "test file", true, &injector);
  EXPECT_THROW(file.write_line("written but not durable"), common::StorageError);
  EXPECT_EQ(read_file(path), "written but not durable\n")
      << "the bytes are there; only the durability barrier failed";
}

// ---------------------------------------------------------------------------
// write_file_atomic.
// ---------------------------------------------------------------------------

TEST(AtomicWriteTest, ReplacesContentAndLeavesNoTmp) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_atomic.json");
  write_file_atomic(path, "{\"v\":1}\n", "test doc");
  write_file_atomic(path, "{\"v\":2}\n", "test doc");
  EXPECT_EQ(read_file(path), "{\"v\":2}\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicWriteTest, ShortWriteLeavesOldContentAndAnOrphanTmp) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_atomic_short.json");
  const std::string tmp = path + ".tmp";
  write_file_atomic(path, "{\"v\":1}\n", "test doc");
  StorageFaultInjector injector(scripted(StorageFaultKind::kShortWrite, 0));
  EXPECT_THROW(
      write_file_atomic(path, "{\"v\":2,\"pad\":\"xxxxxxxx\"}\n", "test doc", &injector),
      common::StorageError);
  EXPECT_EQ(read_file(path), "{\"v\":1}\n") << "the target must never be torn";
  EXPECT_TRUE(std::filesystem::exists(tmp)) << "the torn tmp is rh_fsck fodder";
}

TEST(AtomicWriteTest, EnospcLeavesTheTargetUntouched) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_atomic_enospc.json");
  write_file_atomic(path, "old\n", "test doc");
  StorageFaultInjector injector(scripted(StorageFaultKind::kEnospc, 0));
  EXPECT_THROW(write_file_atomic(path, "new\n", "test doc", &injector),
               common::StorageError);
  EXPECT_EQ(read_file(path), "old\n");
}

}  // namespace
}  // namespace rh::resilience

namespace rh::campaign {
namespace {

using resilience::StorageFaultKind;
using resilience::StorageFaultPlan;

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

core::RowRecord minimal_record(std::uint32_t row) {
  core::RowRecord record;
  record.site = {0, 0, 1};
  record.physical_row = row;
  return record;
}

/// Flips one byte in the middle of the `line_no`-th line (0-based) of a
/// JSONL file — the canonical mid-file bit-rot lesion.
void corrupt_line(const std::string& path, std::size_t line_no) {
  std::string content = read_file(path);
  std::size_t start = 0;
  for (std::size_t i = 0; i < line_no; ++i) start = content.find('\n', start) + 1;
  const std::size_t end = content.find('\n', start);
  ASSERT_NE(end, std::string::npos);
  content[start + (end - start) / 2] ^= 0x01;
  write_raw(path, content);
}

// ---------------------------------------------------------------------------
// Journal damage classification and quarantine resume.
// ---------------------------------------------------------------------------

TEST(JournalDamage, V1BareJournalStillReads) {
  // A journal written before CRC framing existed: bare payloads. The
  // acceptance contract: readers accept v1 forever.
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_v1.jsonl");
  write_raw(path,
            "{\"kind\":\"rh-campaign-journal\",\"version\":1,\"seed\":5,"
            "\"config_hash\":\"00000000000000aa\",\"shards\":4}\n"
            "{\"shard\":1,\"records\":[]}\n"
            "{\"shard\":2,\"attempts\":2,\"failed\":\"injected fault\"}\n");
  const JournalReader reader(path);
  EXPECT_EQ(reader.header().seed, 5u);
  EXPECT_EQ(reader.header().shard_count, 4u);
  EXPECT_EQ(reader.shards().count(1), 1u);
  EXPECT_EQ(reader.shards().count(2), 0u) << "a failure line never completes a shard";
  ASSERT_EQ(reader.outcomes().size(), 2u);
  EXPECT_TRUE(reader.corrupt_lines().empty());
  EXPECT_FALSE(reader.torn_tail());
}

TEST(JournalDamage, MixedV1PrefixWithV2AppendsReads) {
  // A v1 journal resumed by a v2 writer: framed lines after bare ones.
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_mixed.jsonl");
  write_raw(path,
            "{\"kind\":\"rh-campaign-journal\",\"version\":1,\"seed\":9,"
            "\"config_hash\":\"00000000000000bb\",\"shards\":4}\n"
            "{\"shard\":0,\"records\":[]}\n");
  {
    const JournalReader before(path);
    JournalWriter writer(path, before);
    writer.append_shard(1, {minimal_record(3)}, 10.0, 1);
  }
  const JournalReader reader(path);
  EXPECT_EQ(reader.shards().count(0), 1u);
  EXPECT_EQ(reader.shards().count(1), 1u);
  EXPECT_TRUE(reader.corrupt_lines().empty());
}

TEST(JournalDamage, TornTailIsIgnoredAndDroppedOnResume) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_torn_tail.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"shard\":1,\"rec";  // the kill mid-append
  }
  const JournalReader reader(path);
  EXPECT_TRUE(reader.torn_tail());
  EXPECT_EQ(reader.shards().size(), 1u);
  EXPECT_TRUE(reader.corrupt_lines().empty()) << "a torn tail is not corruption";

  // Resume truncates the tear; the next append must not fuse onto it.
  {
    JournalWriter writer(path, reader);
    writer.append_shard(1, {minimal_record(2)}, 5.0, 1);
  }
  const JournalReader after(path);
  EXPECT_FALSE(after.torn_tail());
  EXPECT_EQ(after.shards().size(), 2u);
  EXPECT_TRUE(after.corrupt_lines().empty());
}

TEST(JournalDamage, CorruptMidFileLineIsQuarantinedAndItsShardReRun) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_quarantinable.jsonl");
  const std::string sidecar = path + ".quarantine";
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
    writer.append_shard(1, {minimal_record(2)}, 5.0, 1);
    writer.append_shard(2, {minimal_record(3)}, 5.0, 1);
  }
  corrupt_line(path, 2);  // shard 1's line rots

  const JournalReader reader(path);
  ASSERT_EQ(reader.corrupt_lines().size(), 1u);
  EXPECT_EQ(reader.corrupt_lines()[0].line_no, 3u) << "1-based file position";
  EXPECT_EQ(reader.shards().count(0), 1u);
  EXPECT_EQ(reader.shards().count(1), 0u) << "the rotted shard must read as pending";
  EXPECT_EQ(reader.shards().count(2), 1u);

  // The quarantining resume ctor: sidecar gains the raw line, the journal
  // is compacted to header + intact lines, and the shard can be re-run.
  {
    JournalWriter writer(path, reader);
    writer.append_shard(1, {minimal_record(2)}, 5.0, 1);
  }
  EXPECT_NE(read_file(sidecar).find("\"shard\":1"), std::string::npos)
      << "the damaged raw line is preserved for the operator";
  const JournalReader repaired(path);
  EXPECT_TRUE(repaired.corrupt_lines().empty());
  EXPECT_EQ(repaired.shards().size(), 3u);
}

TEST(JournalDamage, DamagedHeaderIsFatal) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_bad_header.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
  }
  corrupt_line(path, 0);
  EXPECT_THROW((void)JournalReader(path), common::ConfigError)
      << "nothing below a damaged identity line can be trusted";
}

// ---------------------------------------------------------------------------
// Campaign-level properties: byte-identity under disk-fault storms.
// ---------------------------------------------------------------------------

SweepSpec quick_sweep() {
  core::SurveyConfig survey;
  survey.channels = {0, 7};
  survey.row_stride = 512;
  survey.wcdp_by_ber = true;
  SweepSpec spec = survey_sweep(hbm::DeviceConfig{}, survey, /*max_rows_per_shard=*/2);
  spec.settle_thermal = false;
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
    EXPECT_EQ(a[i].site.bank, b[i].site.bank) << "record " << i;
    EXPECT_EQ(a[i].physical_row, b[i].physical_row) << "record " << i;
    for (std::size_t p = 0; p < core::kAllPatterns.size(); ++p) {
      EXPECT_EQ(a[i].ber[p].bit_errors, b[i].ber[p].bit_errors) << "record " << i;
      EXPECT_EQ(a[i].hc_first[p], b[i].hc_first[p]) << "record " << i;
    }
  }
}

TEST(StorageStorm, CampaignResultsAreByteIdenticalUnderDiskFaults) {
  const SweepSpec spec = quick_sweep();
  const test::ScratchDir dir;
  const std::string journal = dir.file("storage_test_storm.jsonl");
  const std::string sidecar = journal + ".quarantine";
  const std::string stream = dir.file("storage_test_storm_stream.jsonl");

  Campaign clean(quiet_config());
  const CampaignResult baseline = clean.run(spec);
  EXPECT_EQ(baseline.storage_errors, 0u);

  CampaignConfig stormy = quiet_config();
  stormy.checkpoint_path = journal;
  stormy.metrics_stream_path = stream;
  stormy.storage_fault_plan.seed = 99;
  stormy.storage_fault_plan.set_storm_rates(0.5);
  Campaign storm(stormy);
  const CampaignResult damaged = storm.run(spec);

  // The acceptance bar: every injected fault leaves the results
  // byte-identical — durability degrades, correctness does not.
  expect_records_equal(baseline.flat(), damaged.flat());
  EXPECT_GT(damaged.storage_errors, 0u) << "a 50% storm must have been felt";
  EXPECT_FALSE(damaged.storage_error.empty());
}

TEST(StorageStorm, RefusedHeadersLeaveTheRunWithoutJournalOrStream) {
  // One scripted ENOSPC at opportunity 0, copied into both derived plans:
  // the journal header and the stream header are each refused. Neither
  // costs a shard; both are counted, and nothing lands in the journal.
  const SweepSpec spec = quick_sweep();
  const test::ScratchDir dir;
  const std::string journal = dir.file("storage_test_refused.jsonl");

  Campaign clean(quiet_config());
  const CampaignResult baseline = clean.run(spec);

  CampaignConfig refused = quiet_config();
  refused.checkpoint_path = journal;
  refused.metrics_stream_path = dir.file("storage_test_refused_stream.jsonl");
  refused.storage_fault_plan.script.push_back({StorageFaultKind::kEnospc, 0});
  Campaign campaign(refused);
  const CampaignResult result = campaign.run(spec);

  expect_records_equal(baseline.flat(), result.flat());
  EXPECT_EQ(result.storage_errors, 2u) << result.storage_error;
  EXPECT_EQ(read_file(journal), "") << "a refused header leaves no shard line behind";
}

TEST(StorageStorm, ResumeAfterMidFileRotReRunsExactlyTheDamagedShards) {
  const SweepSpec spec = quick_sweep();
  ASSERT_GT(spec.shards.size(), 4u);
  const test::ScratchDir dir;
  const std::string journal = dir.file("storage_test_rot_resume.jsonl");
  const std::string sidecar = journal + ".quarantine";

  CampaignConfig full = quiet_config();
  full.checkpoint_path = journal;
  Campaign first(full);
  const CampaignResult complete = first.run(spec);

  // Rot two mid-file shard lines, then resume: the campaign must
  // quarantine them, re-run exactly those shards, and converge to the
  // same bytes.
  corrupt_line(journal, 2);
  corrupt_line(journal, 4);

  CampaignConfig again = full;
  again.resume = true;
  Campaign second(again);
  const CampaignResult resumed = second.run(spec);
  EXPECT_EQ(resumed.shards_skipped, spec.shards.size() - 2)
      << "every intact shard is honoured; only the rotted ones re-run";
  expect_records_equal(complete.flat(), resumed.flat());
  EXPECT_TRUE(std::filesystem::exists(sidecar));

  const JournalReader reader(journal);
  EXPECT_TRUE(reader.corrupt_lines().empty()) << "the resumed journal is whole again";
  EXPECT_EQ(reader.shards().size(), spec.shards.size());
}

// ---------------------------------------------------------------------------
// Metrics-stream degradation: telemetry loss never fails a run.
// ---------------------------------------------------------------------------

TEST(StreamDegrade, WriterGoesDarkAfterTheFirstStorageError) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_degrade.jsonl");
  resilience::StorageFaultInjector injector(
      resilience::StorageFaultPlan{0, {}, {{StorageFaultKind::kEnospc, 1}}});
  telemetry::MetricsStreamWriter writer(path, telemetry::MetricsStreamHeader{},
                                        &injector);
  EXPECT_FALSE(writer.degraded());
  writer.append(telemetry::format_cycles_sample(0, 1, 0, 10, {}));  // fires
  EXPECT_TRUE(writer.degraded());
  EXPECT_FALSE(writer.storage_error().empty());
  // Degraded appends are silent no-ops — no throw, no further I/O.
  writer.append(telemetry::format_cycles_sample(0, 1, 1, 20, {}));
  const MetricsStreamData data = read_metrics_stream(path);
  EXPECT_TRUE(data.has_header);
  EXPECT_EQ(data.cycles_samples, 0u);
}

TEST(StreamDegrade, CorruptMidStreamSampleIsSkippedNotFatal) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_stream_rot.jsonl");
  {
    telemetry::MetricsStreamWriter writer(path, telemetry::MetricsStreamHeader{});
    writer.append(telemetry::format_cycles_sample(0, 1, 0, 10, {}));
    writer.append(telemetry::format_cycles_sample(0, 1, 1, 20, {}));
  }
  corrupt_line(path, 1);
  const MetricsStreamData data = read_metrics_stream(path);
  EXPECT_EQ(data.corrupt_lines, 1u);
  EXPECT_EQ(data.cycles_samples, 1u);
  EXPECT_FALSE(data.torn);
}

// ---------------------------------------------------------------------------
// rh_fsck: detect every lesion, repair what resume would repair.
// ---------------------------------------------------------------------------

/// Builds a data dir with one of every lesion rh_fsck knows, returning the
/// expected verdict per file name.
std::map<std::string, FsckStatus> build_damaged_dir(const std::string& dir) {
  std::map<std::string, FsckStatus> expected;

  {  // clean journal
    JournalWriter writer(dir + "/job-1.journal.jsonl", JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
  }
  expected["job-1.journal.jsonl"] = FsckStatus::kOk;

  {  // torn journal tail
    JournalWriter writer(dir + "/job-2.journal.jsonl", JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
    std::ofstream out(dir + "/job-2.journal.jsonl", std::ios::app | std::ios::binary);
    out << "{\"shard\":1,\"rec";
  }
  expected["job-2.journal.jsonl"] = FsckStatus::kTorn;

  {  // corrupt mid-file journal line
    JournalWriter writer(dir + "/job-3.journal.jsonl", JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
    writer.append_shard(1, {minimal_record(2)}, 5.0, 1);
  }
  corrupt_line(dir + "/job-3.journal.jsonl", 1);
  expected["job-3.journal.jsonl"] = FsckStatus::kCorrupt;

  {  // destroyed journal header: unrepairable
    JournalWriter writer(dir + "/job-4.journal.jsonl", JournalHeader{1, 2, 4});
  }
  corrupt_line(dir + "/job-4.journal.jsonl", 0);
  expected["job-4.journal.jsonl"] = FsckStatus::kCorrupt;

  {  // clean stream
    telemetry::MetricsStreamWriter writer(dir + "/job-1.stream.jsonl",
                                          telemetry::MetricsStreamHeader{});
    writer.append(telemetry::format_cycles_sample(0, 1, 0, 10, {}));
  }
  expected["job-1.stream.jsonl"] = FsckStatus::kOk;

  // orphaned atomic-write tmp
  write_raw(dir + "/job-5.json.tmp", "{\"config\":");
  expected["job-5.json.tmp"] = FsckStatus::kOrphanTmp;

  // corrupt whole-file descriptor: unrepairable
  write_raw(dir + "/job-6.json", "{\"schema\":\"rh-serve-job/v1\",\"id\":6,");
  expected["job-6.json"] = FsckStatus::kCorrupt;

  return expected;
}

TEST(Fsck, DetectsEveryInjectedLesion) {
  const test::ScratchDir dir;
  const auto expected = build_damaged_dir(dir.str());

  const std::vector<FsckVerdict> verdicts = fsck_scan(dir.str());
  ASSERT_EQ(verdicts.size(), expected.size());
  for (const FsckVerdict& v : verdicts) {
    const std::string name = std::filesystem::path(v.path).filename().string();
    ASSERT_EQ(expected.count(name), 1u) << name;
    EXPECT_EQ(v.status, expected.at(name)) << name << ": " << v.detail;
  }

  // The two whole-document lesions and the destroyed header are beyond
  // line-level repair; everything else is repairable.
  for (const FsckVerdict& v : verdicts) {
    const std::string name = std::filesystem::path(v.path).filename().string();
    if (name == "job-4.journal.jsonl" || name == "job-6.json") {
      EXPECT_FALSE(v.repairable) << name;
    } else if (v.status != FsckStatus::kOk) {
      EXPECT_TRUE(v.repairable) << name << ": " << v.detail;
    }
  }
}

TEST(Fsck, RepairRestoresEveryRepairableFile) {
  const test::ScratchDir dir;
  build_damaged_dir(dir.str());

  for (const FsckVerdict& v : fsck_scan(dir.str())) {
    if (v.status == FsckStatus::kOk || !v.repairable) continue;
    EXPECT_FALSE(fsck_repair(v).empty()) << v.path;
  }

  // Post-repair: the torn journal reads whole, the quarantined journal
  // reads whole (minus the rotted shard), the orphan tmp is gone, and a
  // re-scan finds only the two unrepairable files still damaged.
  const JournalReader torn(dir.str() + "/job-2.journal.jsonl");
  EXPECT_FALSE(torn.torn_tail());
  const JournalReader rotted(dir.str() + "/job-3.journal.jsonl");
  EXPECT_TRUE(rotted.corrupt_lines().empty());
  EXPECT_EQ(rotted.shards().count(0), 0u) << "the rotted shard stays pending, not invented";
  EXPECT_EQ(rotted.shards().count(1), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.str() + "/job-3.journal.jsonl.quarantine"));
  EXPECT_FALSE(std::filesystem::exists(dir.str() + "/job-5.json.tmp"));

  std::size_t damaged = 0;
  for (const FsckVerdict& v : fsck_scan(dir.str())) {
    if (v.status != FsckStatus::kOk) {
      ++damaged;
      EXPECT_FALSE(v.repairable) << v.path << " should have been repaired already";
    }
  }
  EXPECT_EQ(damaged, 2u) << "only the destroyed header and the corrupt descriptor remain";
}

TEST(Fsck, RepairingAnUnrepairableVerdictThrows) {
  const test::ScratchDir dir;
  write_raw(dir.str() + "/job-1.json", "not json at all");
  const std::vector<FsckVerdict> verdicts = fsck_scan(dir.str());
  ASSERT_EQ(verdicts.size(), 1u);
  ASSERT_FALSE(verdicts[0].repairable);
  EXPECT_THROW((void)fsck_repair(verdicts[0]), common::ConfigError);
}

TEST(Fsck, ReportNamesEveryFileAndTalliesTheDamage) {
  const test::ScratchDir dir;
  build_damaged_dir(dir.str());
  const std::vector<FsckVerdict> verdicts = fsck_scan(dir.str());
  std::ostringstream os;
  render_fsck_report(os, verdicts);
  const std::string text = os.str();
  for (const FsckVerdict& v : verdicts) {
    EXPECT_NE(text.find(v.path), std::string::npos) << v.path;
  }
  EXPECT_NE(text.find("summary:"), std::string::npos);
  EXPECT_NE(text.find("1 torn"), std::string::npos) << text;
  EXPECT_NE(text.find("3 corrupt (2 unrepairable)"), std::string::npos) << text;
}

/// A file's damage as its own reader sees it.
struct ReaderView {
  bool fatal = false;                     ///< the reader throws
  std::vector<std::size_t> corrupt_lines; ///< journals: 1-based line numbers
  std::size_t corrupt_count = 0;          ///< streams report a count only
  bool torn = false;
};

ReaderView reader_view(const FsckVerdict& v) {
  ReaderView view;
  try {
    if (v.type == FsckFileType::kJournal) {
      const JournalReader reader(v.path);
      for (const CorruptLine& line : reader.corrupt_lines()) {
        view.corrupt_lines.push_back(line.line_no);
      }
      view.corrupt_count = view.corrupt_lines.size();
      view.torn = reader.torn_tail();
    } else {
      const MetricsStreamData data = read_metrics_stream(v.path);
      view.corrupt_count = data.corrupt_lines;
      view.torn = data.torn;
    }
  } catch (const common::ConfigError&) {
    view.fatal = true;
  }
  return view;
}

TEST(Fsck, VerdictsAgreeWithTheReaders) {
  const test::ScratchDir dir;
  const test::ScratchDir resumed("resumed");
  build_damaged_dir(dir.str());

  const std::string journal_v1 =
      "{\"kind\":\"rh-campaign-journal\",\"version\":1,\"seed\":5,"
      "\"config_hash\":\"00000000000000aa\",\"shards\":2}\n";
  const std::string stream_v1 =
      "{\"kind\":\"rh-metrics-stream\",\"version\":1,\"seed\":5,"
      "\"config_hash\":\"00000000000000aa\",\"shards\":2,\"jobs\":1,"
      "\"cycle_cadence\":16,\"wall_cadence_ms\":200.000}\n";
  std::string unterminated_journal;
  {
    JournalWriter writer(dir.str() + "/job-8.journal.jsonl", JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
  }
  std::string unterminated_stream;
  {
    telemetry::MetricsStreamWriter writer(dir.str() + "/job-8.stream.jsonl",
                                          telemetry::MetricsStreamHeader{});
    writer.append(telemetry::format_cycles_sample(0, 1, 0, 10, {}));
  }
  unterminated_journal = read_file(dir.str() + "/job-8.journal.jsonl");
  unterminated_journal.pop_back();  // intact, but its '\n' never landed
  unterminated_stream = read_file(dir.str() + "/job-8.stream.jsonl");
  unterminated_stream.pop_back();

  // Beyond build_damaged_dir's lesions: a field only one side used to
  // check, in a journal and in a stream; a final line that parses but has
  // no newline; and a torn lone stream header.
  const std::vector<std::pair<std::string, std::string>> lesions = {
      {"job-7.journal.jsonl",
       journal_v1 + "{\"shard\":0,\"attempts\":\"x\",\"wall_ms\":1.0,\"records\":[]}\n" +
           "{\"shard\":1,\"records\":[]}\n"},
      {"job-7.stream.jsonl",
       stream_v1 +
           "{\"sample\":\"cycles\",\"shard\":0,\"attempt\":1,\"cycle\":16,\"deltas\":{}}\n" +
           "{\"sample\":\"final\",\"t_ms\":5.000,\"counters\":{},"
           "\"shards\":{\"done\":2,\"failed\":0,\"skipped\":0,\"total\":2}}\n"},
      {"job-8.journal.jsonl", unterminated_journal},
      {"job-8.stream.jsonl", unterminated_stream},
      {"job-9.stream.jsonl", "{\"kind\":\"rh-metrics-stream\",\"vers"},
  };
  for (const auto& [name, bytes] : lesions) write_raw(dir.str() + "/" + name, bytes);

  std::size_t checked = 0;
  for (const FsckVerdict& v : fsck_scan(dir.str())) {
    if (v.type != FsckFileType::kJournal && v.type != FsckFileType::kStream) continue;
    const std::string name = std::filesystem::path(v.path).filename().string();
    ++checked;
    const ReaderView view = reader_view(v);
    std::vector<std::size_t> issue_lines;
    for (const FsckIssue& issue : v.issues) issue_lines.push_back(issue.line_no);
    if (view.fatal) {
      EXPECT_EQ(v.status, FsckStatus::kCorrupt) << name << ": " << v.detail;
      EXPECT_FALSE(v.repairable) << name;
      continue;
    }
    if (v.type == FsckFileType::kJournal) {
      EXPECT_EQ(issue_lines, view.corrupt_lines) << name;
    } else {
      EXPECT_EQ(issue_lines.size(), view.corrupt_count) << name;
    }
    const FsckStatus expected = view.corrupt_count > 0 ? FsckStatus::kCorrupt
                                : view.torn            ? FsckStatus::kTorn
                                                       : FsckStatus::kOk;
    EXPECT_EQ(v.status, expected) << name << ": " << v.detail;
    EXPECT_EQ(v.torn_tail, view.torn) << name;
    if (name.rfind("job-7.", 0) == 0) {
      EXPECT_EQ(issue_lines, std::vector<std::size_t>{2}) << name;
    }

    // The same repair on both paths: fsck --repair and a resuming writer.
    if (v.type != FsckFileType::kJournal || v.status == FsckStatus::kOk) continue;
    ASSERT_TRUE(v.repairable) << name;
    const std::string copy = resumed.str() + "/" + name;
    std::filesystem::copy_file(v.path, copy);
    { const JournalWriter writer(copy, JournalReader(copy)); }
    EXPECT_FALSE(fsck_repair(v).empty()) << name;
    EXPECT_EQ(read_file(v.path), read_file(copy)) << name;
    EXPECT_EQ(read_file(v.path + ".quarantine"), read_file(copy + ".quarantine")) << name;
  }
  EXPECT_EQ(checked, 10u) << "every journal and stream in the dir was compared";
}

TEST(JournalDamage, ResumeAfterAnUnterminatedIntactLineStartsANewLine) {
  const test::ScratchDir dir;
  const std::string path = dir.file("storage_test_unterminated.jsonl");
  {
    JournalWriter writer(path, JournalHeader{1, 2, 4});
    writer.append_shard(0, {minimal_record(1)}, 5.0, 1);
  }
  std::string content = read_file(path);
  content.pop_back();  // the write was cut just before its '\n'
  write_raw(path, content);
  {
    const JournalReader reader(path);
    EXPECT_FALSE(reader.torn_tail());
    EXPECT_EQ(reader.shards().count(0), 1u) << "a final line that parses is intact";
    JournalWriter writer(path, reader);
    writer.append_shard(1, {minimal_record(2)}, 5.0, 1);
  }
  const JournalReader after(path);
  EXPECT_FALSE(after.torn_tail());
  EXPECT_TRUE(after.corrupt_lines().empty());
  EXPECT_EQ(after.shards().size(), 2u) << "the append must not fuse onto the unterminated line";
}

}  // namespace
}  // namespace rh::campaign
