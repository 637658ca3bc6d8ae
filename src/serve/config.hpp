// The serializable campaign-job description the service accepts over HTTP.
//
// serve::CampaignConfig is the *science* half of a job — device seed and
// geometry knobs, TRR, survey/onset sweep shape, characterizer parameters,
// and the optional fault-storm environment — in one flat struct with a
// canonical JSON form. The *scheduling* half (rigs, retries, queue limits)
// belongs to the server, never to the job: two tenants submitting the same
// physics must produce the same bytes regardless of how the pool was sized.
//
// Canonical form and hashing:
//   * to_canonical_json emits members in alphabetical key order with
//     round-trip-exact doubles (format_double_exact), so any two configs
//     that parse equal serialize identically, byte for byte.
//   * config_hash(cfg) is NOT a hash of the JSON text. The config is first
//     lowered to the campaign::SweepSpec it denotes (to_sweep_spec) and
//     hashed with campaign::sweep_config_hash — the same FNV-1a fingerprint
//     the checkpoint-journal header records. One hash therefore names the
//     sweep everywhere: the HTTP API, the journal on disk, the metrics
//     stream header, and the result cache. Fields that cannot change the
//     measured bytes (label, fault plan) are excluded by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/record_io.hpp"
#include "core/shard.hpp"
#include "core/spatial.hpp"
#include "hbm/device.hpp"
#include "resilience/fault.hpp"

namespace rh::serve {

/// One submittable unit of campaign work. Defaults describe the paper's
/// fig3/fig4-style full-methodology survey on the calibrated device.
struct CampaignConfig {
  /// Sweep family: "survey" (core::plan_survey_shards over channels and
  /// regions) or "onset" (core::plan_onset_shards, the planner
  /// ablation_hammer_count runs).
  std::string kind = "survey";
  /// Report label (rh-run-report/v1 `campaign` field). Not hashed.
  std::string label = "survey";

  // --- device ----------------------------------------------------------
  std::uint64_t seed = 0x5AFA2123;  ///< fault-model seed (the calibrated chip)
  std::string scramble = "pair-swap";  ///< identity | pair-swap | xor-fold
  bool trr_enabled = true;
  std::uint32_t trr_period = 17;
  double temperature_c = 85.0;
  bool settle_thermal = true;

  // --- survey shape (kind == "survey") ---------------------------------
  std::vector<std::uint32_t> channels{0, 1, 2, 3, 4, 5, 6, 7};
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;
  std::uint32_t region_rows = 3072;
  std::uint32_t row_stride = 96;
  bool wcdp_by_ber = false;

  // --- characterizer ---------------------------------------------------
  std::uint64_t ber_hammers = 262'144;
  std::uint64_t max_hammers = 262'144;
  std::uint64_t wcdp_tolerance = 2'048;
  std::uint32_t surround_rows = 8;
  bool enforce_retention_bound = true;
  std::uint64_t aggressor_on_time = 0;

  // --- onset shape (kind == "onset") -----------------------------------
  /// One kSinglePattern shard per (hammer count, channel); the defaults are
  /// core::OnsetConfig's (channels, pseudo_channel and bank above apply).
  std::vector<std::uint64_t> hammer_counts = core::OnsetConfig{}.hammer_counts;
  std::uint32_t onset_rows = core::OnsetConfig{}.rows;
  std::uint32_t onset_row_begin = core::OnsetConfig{}.row_begin;
  std::uint32_t onset_row_stride = core::OnsetConfig{}.row_stride;
  std::uint32_t onset_pattern = core::OnsetConfig{}.pattern;

  // --- scheduling granularity + fault environment ----------------------
  /// Checkpoint/retry granularity of the shard plan (survey kind).
  std::uint32_t max_rows_per_shard = 64;
  /// Transport-fault storm rate per opportunity, [0, 1]. Not hashed: the
  /// resilience plane guarantees results are byte-identical under faults.
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0x57084;
};

/// Canonical JSON: one object, alphabetical keys, exact doubles, plus a
/// "schema":"rh-campaign-config/v1" tag. parse -> emit is a fixed point.
[[nodiscard]] std::string to_canonical_json(const CampaignConfig& config);

/// Parses a config from JSON text (any member order). Unknown keys and
/// out-of-domain values throw common::ConfigError; absent keys keep their
/// defaults, so `{}` is the default survey job.
[[nodiscard]] CampaignConfig config_from_json(const std::string& text, const std::string& what);

/// Same, from an already-parsed JSON object (e.g. the "config" member of a
/// persisted job descriptor).
[[nodiscard]] CampaignConfig config_from_json(const campaign::JsonValue& doc,
                                              const std::string& what);

/// The device this config describes (paper part + seed/scramble/TRR knobs).
[[nodiscard]] hbm::DeviceConfig to_device_config(const CampaignConfig& config);

/// Lowers the config to the exact sweep the campaign engine runs. The same
/// config always produces the same spec (shard plan included).
[[nodiscard]] campaign::SweepSpec to_sweep_spec(const CampaignConfig& config);

/// The config's fault-storm plan (enabled() == false when fault_rate is 0).
[[nodiscard]] resilience::FaultPlan to_fault_plan(const CampaignConfig& config);

/// The stable identity of this config's sweep — identical to the
/// config_hash the checkpoint journal and metrics stream headers record.
[[nodiscard]] std::uint64_t config_hash(const CampaignConfig& config);

/// `config_hash` rendered the way journal headers and the HTTP API print
/// it: 16 lowercase hex digits.
[[nodiscard]] std::string config_hash_hex(const CampaignConfig& config);

}  // namespace rh::serve
