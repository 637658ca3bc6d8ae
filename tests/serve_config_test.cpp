#include "serve/config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "campaign/journal.hpp"
#include "common/error.hpp"
#include "scratch_dir.hpp"
#include "serve/cache.hpp"

namespace rh::serve {
namespace {

/// A deliberately non-default config exercising every field kind.
CampaignConfig sample_config() {
  CampaignConfig config;
  config.kind = "survey";
  config.label = "sample \"quoted\"";
  config.seed = 12345;
  config.scramble = "xor-fold";
  config.trr_enabled = false;
  config.trr_period = 19;
  config.temperature_c = 62.5;
  config.settle_thermal = false;
  config.channels = {0, 7};
  config.pseudo_channel = 1;
  config.bank = 3;
  config.region_rows = 1024;
  config.row_stride = 512;
  config.wcdp_by_ber = true;
  config.ber_hammers = 4096;
  config.max_hammers = 8192;
  config.wcdp_tolerance = 512;
  config.surround_rows = 4;
  config.enforce_retention_bound = false;
  config.aggressor_on_time = 2;
  config.hammer_counts = {1000, 2000};
  config.onset_rows = 3;
  config.onset_row_begin = 100;
  config.onset_row_stride = 7;
  config.onset_pattern = 2;
  config.max_rows_per_shard = 2;
  config.fault_rate = 0.25;
  config.fault_seed = 99;
  return config;
}

TEST(ServeConfig, CanonicalJsonIsAFixedPoint) {
  const CampaignConfig config = sample_config();
  const std::string once = to_canonical_json(config);
  const CampaignConfig reparsed = config_from_json(once, "test");
  EXPECT_EQ(to_canonical_json(reparsed), once);
  EXPECT_EQ(config_hash(reparsed), config_hash(config));
}

TEST(ServeConfig, EmptyObjectIsTheDefaultJob) {
  const CampaignConfig parsed = config_from_json("{}", "test");
  EXPECT_EQ(to_canonical_json(parsed), to_canonical_json(CampaignConfig{}));
  EXPECT_EQ(config_hash(parsed), config_hash(CampaignConfig{}));
}

TEST(ServeConfig, HashIgnoresMemberOrder) {
  // Same fields, scrambled member order, eccentric whitespace: the
  // canonical form (and therefore the hash) must not notice.
  const std::string a = R"({"seed": 777, "kind": "onset", "hammer_counts": [4096, 8192]})";
  const std::string b =
      "{\n  \"hammer_counts\":[4096,8192],\n  \"kind\":\"onset\",\n  \"seed\":777\n}";
  const CampaignConfig ca = config_from_json(a, "a");
  const CampaignConfig cb = config_from_json(b, "b");
  EXPECT_EQ(to_canonical_json(ca), to_canonical_json(cb));
  EXPECT_EQ(config_hash(ca), config_hash(cb));
}

TEST(ServeConfig, LabelAndFaultPlanDoNotChangeTheHash) {
  CampaignConfig a = sample_config();
  CampaignConfig b = sample_config();
  b.label = "different label";
  b.fault_rate = 0.0;
  b.fault_seed = 1;
  EXPECT_EQ(config_hash(a), config_hash(b));
  // ... but they do change the canonical JSON (they are real fields).
  EXPECT_NE(to_canonical_json(a), to_canonical_json(b));
}

TEST(ServeConfig, EveryScienceKnobChangesTheHash) {
  const std::uint64_t base = config_hash(sample_config());
  const auto expect_differs = [&](auto mutate, const char* what) {
    CampaignConfig c = sample_config();
    mutate(c);
    EXPECT_NE(config_hash(c), base) << what;
  };
  expect_differs([](CampaignConfig& c) { c.seed = 1; }, "seed");
  expect_differs([](CampaignConfig& c) { c.scramble = "identity"; }, "scramble");
  expect_differs([](CampaignConfig& c) { c.temperature_c = 85.0; }, "temperature");
  expect_differs([](CampaignConfig& c) { c.settle_thermal = true; }, "settle_thermal");
  expect_differs([](CampaignConfig& c) { c.channels = {0}; }, "channels");
  expect_differs([](CampaignConfig& c) { c.row_stride = 256; }, "row_stride");
  expect_differs([](CampaignConfig& c) { c.ber_hammers = 2048; }, "ber_hammers");
  expect_differs([](CampaignConfig& c) { c.max_hammers = 16384; }, "max_hammers");
  expect_differs([](CampaignConfig& c) { c.wcdp_tolerance = 64; }, "wcdp_tolerance");
  expect_differs([](CampaignConfig& c) { c.surround_rows = 2; }, "surround_rows");
  expect_differs([](CampaignConfig& c) { c.max_rows_per_shard = 1; }, "max_rows_per_shard");
}

TEST(ServeConfig, UnknownKeysAreRejected) {
  EXPECT_THROW(config_from_json(R"({"sede": 1})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"rigs": 4})", "test"), common::ConfigError);
}

TEST(ServeConfig, DomainValidation) {
  EXPECT_THROW(config_from_json(R"({"kind": "sweep"})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"scramble": "rot13"})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"channels": []})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"channels": [8]})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"fault_rate": 1.5})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"temperature_c": -4})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"row_stride": 0})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json(R"({"region_rows": 8193})", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json("[1,2,3]", "test"), common::ConfigError);
  EXPECT_THROW(config_from_json("not json", "test"), common::ConfigError);
}

TEST(ServeConfig, HashMatchesTheJournalHeader) {
  // The service's one-hash-everywhere property: the hash the HTTP API
  // reports is literally the hash a checkpoint journal for the lowered
  // sweep records in its header.
  const CampaignConfig config = sample_config();
  const campaign::SweepSpec spec = to_sweep_spec(config);
  EXPECT_EQ(config_hash(config), campaign::sweep_config_hash(spec));

  const test::ScratchDir dir;

  const std::string path = dir.file("serve_config_test_journal.jsonl");
  const campaign::JournalHeader header{spec.device.fault.seed, config_hash(config),
                                       static_cast<std::uint64_t>(spec.shards.size())};
  { const campaign::JournalWriter writer(path, header); }
  const campaign::JournalReader reader(path);
  EXPECT_EQ(reader.header().config_hash, config_hash(config));
  EXPECT_EQ(reader.header().seed, config.seed);
}

TEST(ServeConfig, GoldenHashIsPinned) {
  // The default config's hash is part of the service's wire contract —
  // cache keys and journal headers embed it. If this value moves, every
  // cached result and every resumable journal in the field is invalidated:
  // bump the schema tag alongside any intentional change.
  EXPECT_EQ(config_hash_hex(CampaignConfig{}), "67696404998d6a14");
}

TEST(ServeConfig, OnsetPlanMatchesAblationHammerCount) {
  CampaignConfig config;
  config.kind = "onset";
  config.channels = {2, 5};
  config.hammer_counts = {1000, 2000};
  config.onset_rows = 3;
  const campaign::SweepSpec spec = to_sweep_spec(config);
  // Count-major, channel-minor — the ablation_hammer_count plan.
  ASSERT_EQ(spec.shards.size(), 4u);
  EXPECT_EQ(spec.shards[0].hammers, 1000u);
  EXPECT_EQ(spec.shards[0].site.channel, 2u);
  EXPECT_EQ(spec.shards[1].hammers, 1000u);
  EXPECT_EQ(spec.shards[1].site.channel, 5u);
  EXPECT_EQ(spec.shards[2].hammers, 2000u);
  EXPECT_EQ(spec.shards[3].hammers, 2000u);
  for (std::size_t i = 0; i < spec.shards.size(); ++i) {
    EXPECT_EQ(spec.shards[i].index, i);
    EXPECT_EQ(spec.shards[i].mode, core::ShardMode::kSinglePattern);
    EXPECT_EQ(spec.shards[i].row_begin, config.onset_row_begin);
  }
}

TEST(ServeCache, ShardKeyIgnoresPlanPosition) {
  // The same physical work reached from two different shard plans (e.g. a
  // subset sweep and a superset sweep) must share a cache entry; only the
  // plan position (index) may differ.
  const CampaignConfig config = sample_config();
  const campaign::SweepSpec spec = to_sweep_spec(config);
  ASSERT_GE(spec.shards.size(), 2u);
  const std::string prefix = sweep_cache_prefix(spec);
  core::ShardSpec moved = spec.shards[0];
  moved.index = 17;
  EXPECT_EQ(shard_cache_key(prefix, moved), shard_cache_key(prefix, spec.shards[0]));
  EXPECT_NE(shard_cache_key(prefix, spec.shards[0]), shard_cache_key(prefix, spec.shards[1]));
}

TEST(ServeCache, PrefixCoversSweepParametersNotThePlan) {
  CampaignConfig a = sample_config();
  CampaignConfig b = sample_config();
  b.max_rows_per_shard = 1;  // different decomposition, same physics fields
  const campaign::SweepSpec sa = to_sweep_spec(a);
  const campaign::SweepSpec sb = to_sweep_spec(b);
  EXPECT_NE(campaign::sweep_config_hash(sa), campaign::sweep_config_hash(sb));
  EXPECT_EQ(sweep_cache_prefix(sa), sweep_cache_prefix(sb));
}

TEST(ServeCache, CountsHitsAndMissesAndKeepsFirstWrite) {
  ResultCache cache;
  std::vector<core::RowRecord> out;
  EXPECT_FALSE(cache.lookup(42, out));
  EXPECT_EQ(cache.misses(), 1u);

  std::vector<core::RowRecord> records(3);
  records[0].physical_row = 7;
  cache.insert(42, records);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(cache.lookup(42, out));
  EXPECT_EQ(cache.hits(), 1u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].physical_row, 7u);

  std::vector<core::RowRecord> other(1);
  cache.insert(42, other);  // first write wins
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_TRUE(cache.lookup(42, out));
  EXPECT_EQ(out.size(), 3u);
}

}  // namespace
}  // namespace rh::serve
