#include "serve/config.hpp"

#include <cinttypes>
#include <limits>

#include "campaign/journal.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/data_patterns.hpp"
#include "core/shard.hpp"
#include "telemetry/metrics.hpp"

namespace rh::serve {

namespace {

using campaign::JsonValue;

hbm::ScrambleKind scramble_from_string(const std::string& name) {
  if (name == "identity") return hbm::ScrambleKind::kIdentity;
  if (name == "pair-swap") return hbm::ScrambleKind::kPairSwap;
  if (name == "xor-fold") return hbm::ScrambleKind::kXorFold;
  throw common::ConfigError("campaign config: unknown scramble \"" + name +
                            "\" (expected identity, pair-swap, or xor-fold)");
}

void append_u64_array(std::string& out, const char* key,
                      const std::vector<std::uint64_t>& values) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

std::uint64_t member_u64(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kNumber) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" must be a number");
  }
  return v.as_u64();
}

std::uint32_t member_u32(const JsonValue& v, const char* key) {
  const std::uint64_t u = member_u64(v, key);
  if (u > std::numeric_limits<std::uint32_t>::max()) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" is out of range");
  }
  return static_cast<std::uint32_t>(u);
}

bool member_bool(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kBool) {
    throw common::ConfigError(std::string("campaign config: \"") + key +
                              "\" must be true or false");
  }
  return v.boolean;
}

double member_double(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kNumber) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" must be a number");
  }
  return v.as_double();
}

std::string member_string(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kString) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" must be a string");
  }
  return v.text;
}

template <typename T>
std::vector<T> member_array(const JsonValue& v, const char* key) {
  if (v.kind != JsonValue::Kind::kArray) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" must be an array");
  }
  std::vector<T> out;
  out.reserve(v.items.size());
  for (const JsonValue& item : v.items) {
    out.push_back(static_cast<T>(member_u64(item, key)));
  }
  return out;
}

void require_positive(std::uint64_t value, const char* key) {
  if (value == 0) {
    throw common::ConfigError(std::string("campaign config: \"") + key + "\" must be >= 1");
  }
}

void validate(const CampaignConfig& c) {
  if (c.kind != "survey" && c.kind != "onset") {
    throw common::ConfigError("campaign config: unknown kind \"" + c.kind +
                              "\" (expected survey or onset)");
  }
  scramble_from_string(c.scramble);  // throws on an unknown name
  require_positive(c.trr_period, "trr_period");
  const hbm::Geometry geometry;  // the paper part's fixed floorplan
  if (c.channels.empty()) {
    throw common::ConfigError("campaign config: \"channels\" must not be empty");
  }
  for (const std::uint32_t ch : c.channels) {
    if (ch >= geometry.channels) {
      throw common::ConfigError("campaign config: channel " + std::to_string(ch) +
                                " out of range (device has " +
                                std::to_string(geometry.channels) + " channels)");
    }
  }
  if (c.pseudo_channel >= geometry.pseudo_channels_per_channel ||
      c.bank >= geometry.banks_per_pseudo_channel) {
    throw common::ConfigError("campaign config: pseudo_channel/bank out of range");
  }
  require_positive(c.region_rows, "region_rows");
  if (c.region_rows > geometry.rows_per_bank / 2) {
    throw common::ConfigError("campaign config: \"region_rows\" must be at most " +
                              std::to_string(geometry.rows_per_bank / 2) + " (half a bank)");
  }
  require_positive(c.row_stride, "row_stride");
  require_positive(c.ber_hammers, "ber_hammers");
  require_positive(c.max_hammers, "max_hammers");
  require_positive(c.wcdp_tolerance, "wcdp_tolerance");
  require_positive(c.max_rows_per_shard, "max_rows_per_shard");
  if (c.hammer_counts.empty()) {
    throw common::ConfigError("campaign config: \"hammer_counts\" must not be empty");
  }
  for (const std::uint64_t h : c.hammer_counts) require_positive(h, "hammer_counts");
  require_positive(c.onset_rows, "onset_rows");
  require_positive(c.onset_row_stride, "onset_row_stride");
  // The onset sweep's last row, onset_row_begin + (onset_rows - 1) *
  // onset_row_stride, must be in the bank.
  if (c.onset_row_begin + std::uint64_t{c.onset_rows - 1} * c.onset_row_stride >=
      geometry.rows_per_bank) {
    throw common::ConfigError(
        "campaign config: \"onset_row_begin\" + (\"onset_rows\" - 1) * \"onset_row_stride\" "
        "must be below " + std::to_string(geometry.rows_per_bank) + " (rows per bank)");
  }
  if (c.onset_pattern >= core::kAllPatterns.size()) {
    throw common::ConfigError("campaign config: \"onset_pattern\" out of range (have " +
                              std::to_string(core::kAllPatterns.size()) + " patterns)");
  }
  if (!(c.fault_rate >= 0.0 && c.fault_rate <= 1.0)) {
    throw common::ConfigError("campaign config: \"fault_rate\" must be in [0, 1]");
  }
  if (!(c.temperature_c > 0.0 && c.temperature_c < 200.0)) {
    throw common::ConfigError("campaign config: \"temperature_c\" out of range");
  }
}

}  // namespace

std::string to_canonical_json(const CampaignConfig& c) {
  using campaign::format_double_exact;
  std::string out = "{";
  out += "\"aggressor_on_time\":" + std::to_string(c.aggressor_on_time);
  out += ",\"bank\":" + std::to_string(c.bank);
  out += ",\"ber_hammers\":" + std::to_string(c.ber_hammers);
  out += ",";
  append_u64_array(out, "channels",
                   std::vector<std::uint64_t>(c.channels.begin(), c.channels.end()));
  out += ",\"enforce_retention_bound\":";
  out += c.enforce_retention_bound ? "true" : "false";
  out += ",\"fault_rate\":" + format_double_exact(c.fault_rate);
  out += ",\"fault_seed\":" + std::to_string(c.fault_seed);
  out += ",";
  append_u64_array(out, "hammer_counts", c.hammer_counts);
  out += ",\"kind\":\"" + c.kind + "\"";
  out += ",\"label\":\"" + telemetry::json_escape(c.label) + "\"";
  out += ",\"max_hammers\":" + std::to_string(c.max_hammers);
  out += ",\"max_rows_per_shard\":" + std::to_string(c.max_rows_per_shard);
  out += ",\"onset_pattern\":" + std::to_string(c.onset_pattern);
  out += ",\"onset_row_begin\":" + std::to_string(c.onset_row_begin);
  out += ",\"onset_row_stride\":" + std::to_string(c.onset_row_stride);
  out += ",\"onset_rows\":" + std::to_string(c.onset_rows);
  out += ",\"pseudo_channel\":" + std::to_string(c.pseudo_channel);
  out += ",\"region_rows\":" + std::to_string(c.region_rows);
  out += ",\"row_stride\":" + std::to_string(c.row_stride);
  out += ",\"schema\":\"rh-campaign-config/v1\"";
  out += ",\"scramble\":\"" + c.scramble + "\"";
  out += ",\"seed\":" + std::to_string(c.seed);
  out += ",\"settle_thermal\":";
  out += c.settle_thermal ? "true" : "false";
  out += ",\"surround_rows\":" + std::to_string(c.surround_rows);
  out += ",\"temperature_c\":" + format_double_exact(c.temperature_c);
  out += ",\"trr_enabled\":";
  out += c.trr_enabled ? "true" : "false";
  out += ",\"trr_period\":" + std::to_string(c.trr_period);
  out += ",\"wcdp_by_ber\":";
  out += c.wcdp_by_ber ? "true" : "false";
  out += ",\"wcdp_tolerance\":" + std::to_string(c.wcdp_tolerance);
  out += "}";
  return out;
}

CampaignConfig config_from_json(const std::string& text, const std::string& what) {
  return config_from_json(campaign::parse_json(text, what), what);
}

CampaignConfig config_from_json(const JsonValue& doc, const std::string& what) {
  if (doc.kind != JsonValue::Kind::kObject) {
    throw common::ConfigError("campaign config: " + what + " is not a JSON object");
  }
  CampaignConfig c;
  for (const auto& [key, value] : doc.members) {
    if (key == "aggressor_on_time") c.aggressor_on_time = member_u64(value, "aggressor_on_time");
    else if (key == "bank") c.bank = member_u32(value, "bank");
    else if (key == "ber_hammers") c.ber_hammers = member_u64(value, "ber_hammers");
    else if (key == "channels") c.channels = member_array<std::uint32_t>(value, "channels");
    else if (key == "enforce_retention_bound")
      c.enforce_retention_bound = member_bool(value, "enforce_retention_bound");
    else if (key == "fault_rate") c.fault_rate = member_double(value, "fault_rate");
    else if (key == "fault_seed") c.fault_seed = member_u64(value, "fault_seed");
    else if (key == "hammer_counts")
      c.hammer_counts = member_array<std::uint64_t>(value, "hammer_counts");
    else if (key == "kind") c.kind = member_string(value, "kind");
    else if (key == "label") c.label = member_string(value, "label");
    else if (key == "max_hammers") c.max_hammers = member_u64(value, "max_hammers");
    else if (key == "max_rows_per_shard")
      c.max_rows_per_shard = member_u32(value, "max_rows_per_shard");
    else if (key == "onset_pattern") c.onset_pattern = member_u32(value, "onset_pattern");
    else if (key == "onset_row_begin") c.onset_row_begin = member_u32(value, "onset_row_begin");
    else if (key == "onset_row_stride") c.onset_row_stride = member_u32(value, "onset_row_stride");
    else if (key == "onset_rows") c.onset_rows = member_u32(value, "onset_rows");
    else if (key == "pseudo_channel") c.pseudo_channel = member_u32(value, "pseudo_channel");
    else if (key == "region_rows") c.region_rows = member_u32(value, "region_rows");
    else if (key == "row_stride") c.row_stride = member_u32(value, "row_stride");
    else if (key == "schema") {
      if (member_string(value, "schema") != "rh-campaign-config/v1") {
        throw common::ConfigError("campaign config: unsupported schema \"" + value.text + "\"");
      }
    } else if (key == "scramble") c.scramble = member_string(value, "scramble");
    else if (key == "seed") c.seed = member_u64(value, "seed");
    else if (key == "settle_thermal") c.settle_thermal = member_bool(value, "settle_thermal");
    else if (key == "surround_rows") c.surround_rows = member_u32(value, "surround_rows");
    else if (key == "temperature_c") c.temperature_c = member_double(value, "temperature_c");
    else if (key == "trr_enabled") c.trr_enabled = member_bool(value, "trr_enabled");
    else if (key == "trr_period") c.trr_period = member_u32(value, "trr_period");
    else if (key == "wcdp_by_ber") c.wcdp_by_ber = member_bool(value, "wcdp_by_ber");
    else if (key == "wcdp_tolerance") c.wcdp_tolerance = member_u64(value, "wcdp_tolerance");
    else {
      // Strict: a typo'd knob silently keeping its default would hash (and
      // cache) as a job the tenant did not ask for.
      throw common::ConfigError("campaign config: unknown key \"" + key + "\" in " + what);
    }
  }
  validate(c);
  return c;
}

hbm::DeviceConfig to_device_config(const CampaignConfig& c) {
  hbm::DeviceConfig device;
  device.fault.seed = c.seed;
  device.scramble = scramble_from_string(c.scramble);
  device.trr.enabled = c.trr_enabled;
  device.trr.period = c.trr_period;
  return device;
}

campaign::SweepSpec to_sweep_spec(const CampaignConfig& c) {
  validate(c);
  campaign::SweepSpec spec;
  spec.device = to_device_config(c);
  spec.temperature_c = c.temperature_c;
  spec.settle_thermal = c.settle_thermal;
  core::CharacterizerConfig& chr = spec.characterizer;
  chr.ber_hammers = c.ber_hammers;
  chr.max_hammers = c.max_hammers;
  chr.wcdp_tolerance = c.wcdp_tolerance;
  chr.surround_rows = c.surround_rows;
  chr.enforce_retention_bound = c.enforce_retention_bound;
  chr.aggressor_on_time = c.aggressor_on_time;

  if (c.kind == "onset") {
    core::OnsetConfig onset;
    onset.channels = c.channels;
    onset.pseudo_channel = c.pseudo_channel;
    onset.bank = c.bank;
    onset.hammer_counts = c.hammer_counts;
    onset.rows = c.onset_rows;
    onset.row_begin = c.onset_row_begin;
    onset.row_stride = c.onset_row_stride;
    onset.pattern = c.onset_pattern;
    spec.shards = core::plan_onset_shards(onset);
    return spec;
  }
  core::SurveyConfig survey;
  survey.channels = c.channels;
  survey.pseudo_channel = c.pseudo_channel;
  survey.bank = c.bank;
  survey.region_rows = c.region_rows;
  survey.row_stride = c.row_stride;
  survey.wcdp_by_ber = c.wcdp_by_ber;
  spec.shards = core::plan_survey_shards(survey, spec.device.geometry, c.max_rows_per_shard);
  return spec;
}

resilience::FaultPlan to_fault_plan(const CampaignConfig& c) {
  resilience::FaultPlan plan;
  plan.seed = c.fault_seed;
  if (c.fault_rate > 0.0) plan.set_storm_rates(c.fault_rate);
  return plan;
}

std::uint64_t config_hash(const CampaignConfig& c) {
  return campaign::sweep_config_hash(to_sweep_spec(c));
}

std::string config_hash_hex(const CampaignConfig& c) {
  return common::hash_hex(config_hash(c));
}

}  // namespace rh::serve
