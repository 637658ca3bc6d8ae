#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/ascii_plot.hpp"
#include "common/assert.hpp"
#include "hbm/timing.hpp"
#include "telemetry/span.hpp"

namespace rh::telemetry {

namespace {

/// Bounds on the retained domain event streams (oldest kept; the
/// corresponding counters keep exact totals past the bound).
constexpr std::size_t kMaxTrrEvents = 1 << 16;
constexpr std::size_t kMaxFlipEvents = 1 << 16;
/// The interface-clock period, for trace timestamps (HBM2: 1.667 ns).
constexpr double kNsPerCycle = static_cast<double>(hbm::kCyclePicoseconds) / 1000.0;

std::string lane_label(std::uint32_t channel, std::uint32_t pc) {
  return "ch" + std::to_string(channel) + ".pc" + std::to_string(pc);
}

std::string counter_name(TraceCommand c) {
  return "cmd." + std::string(to_string(c));
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config), trace_(config.trace_capacity) {
  RH_EXPECTS(config_.channels > 0 && config_.pseudo_channels > 0 && config_.banks > 0);
  bank_acts_.assign(static_cast<std::size_t>(config_.channels) * config_.pseudo_channels *
                        config_.banks,
                    0);
  for (std::size_t i = 0; i < kTraceCommandCount; ++i) {
    cmd_counters_[i] = &registry_.counter(counter_name(static_cast<TraceCommand>(i)));
  }
  trr_proprietary_ = &registry_.counter("trr.proprietary_triggers");
  trr_documented_ = &registry_.counter("trr.documented_triggers");
  flip_rowhammer_bits_ = &registry_.counter("flip.rowhammer_bits");
  flip_retention_bits_ = &registry_.counter("flip.retention_bits");
  flip_events_counter_ = &registry_.counter("flip.events");
  flip_size_hist_ = &registry_.histogram("flip.bits_per_event", 0.0, 64.0, 16);
  ref_pointers_.reserve(static_cast<std::size_t>(config_.channels) * config_.pseudo_channels);
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    for (std::uint32_t pc = 0; pc < config_.pseudo_channels; ++pc) {
      ref_pointers_.push_back(&registry_.gauge("ref.pointer." + lane_label(ch, pc)));
    }
  }
}

std::size_t Telemetry::heat_index(std::uint32_t channel, std::uint32_t pseudo_channel,
                                  std::uint32_t bank) const {
  RH_EXPECTS(channel < config_.channels && pseudo_channel < config_.pseudo_channels &&
             bank < config_.banks);
  return (static_cast<std::size_t>(channel) * config_.pseudo_channels + pseudo_channel) *
             config_.banks +
         bank;
}

void Telemetry::on_command(TraceCommand cmd, std::uint64_t cycle, std::uint32_t channel,
                           std::uint32_t pseudo_channel, std::uint32_t bank, std::uint32_t row,
                           std::uint32_t arg) {
  cmd_counters_[static_cast<std::size_t>(cmd)]->add();
  if (cmd == TraceCommand::kAct) ++bank_acts_[heat_index(channel, pseudo_channel, bank)];
  if (config_.trace_enabled) {
    trace_.push({cycle, row, arg, static_cast<std::uint8_t>(channel),
                 static_cast<std::uint8_t>(pseudo_channel), static_cast<std::uint8_t>(bank), cmd});
  }
}

void Telemetry::on_hammer(std::uint64_t end_cycle, std::uint32_t channel,
                          std::uint32_t pseudo_channel, std::uint32_t bank, std::uint32_t row,
                          std::uint64_t acts) {
  cmd_counters_[static_cast<std::size_t>(TraceCommand::kAct)]->add(acts);
  bank_acts_[heat_index(channel, pseudo_channel, bank)] += acts;
  if (config_.trace_enabled) {
    trace_.push({end_cycle, row, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                     acts, 0xffffffffULL)),
                 static_cast<std::uint8_t>(channel), static_cast<std::uint8_t>(pseudo_channel),
                 static_cast<std::uint8_t>(bank), TraceCommand::kHammer});
  }
}

void Telemetry::on_trr_trigger(std::uint64_t cycle, std::uint32_t channel,
                               std::uint32_t pseudo_channel, std::uint32_t bank,
                               std::uint32_t logical_row, bool documented) {
  (documented ? trr_documented_ : trr_proprietary_)->add();
  if (trr_events_.size() < kMaxTrrEvents) {
    trr_events_.push_back({cycle, logical_row, static_cast<std::uint8_t>(channel),
                           static_cast<std::uint8_t>(pseudo_channel),
                           static_cast<std::uint8_t>(bank), documented});
  }
  if (config_.trace_enabled) {
    trace_.push({cycle, logical_row, documented ? 1u : 0u, static_cast<std::uint8_t>(channel),
                 static_cast<std::uint8_t>(pseudo_channel), static_cast<std::uint8_t>(bank),
                 TraceCommand::kTrrTrigger});
  }
}

void Telemetry::on_bit_flips(std::uint64_t cycle, std::uint32_t channel,
                             std::uint32_t pseudo_channel, std::uint32_t bank,
                             std::uint32_t physical_row, std::uint32_t rowhammer_bits,
                             std::uint32_t retention_bits, double disturbance) {
  flip_rowhammer_bits_->add(rowhammer_bits);
  flip_retention_bits_->add(retention_bits);
  flip_events_counter_->add();
  flip_size_hist_->observe(static_cast<double>(rowhammer_bits + retention_bits));
  if (flip_events_.size() < kMaxFlipEvents) {
    flip_events_.push_back({cycle, physical_row, rowhammer_bits, retention_bits, disturbance,
                            static_cast<std::uint8_t>(channel),
                            static_cast<std::uint8_t>(pseudo_channel),
                            static_cast<std::uint8_t>(bank)});
  }
  if (config_.trace_enabled) {
    trace_.push({cycle, physical_row, rowhammer_bits + retention_bits,
                 static_cast<std::uint8_t>(channel), static_cast<std::uint8_t>(pseudo_channel),
                 static_cast<std::uint8_t>(bank), TraceCommand::kBitFlip});
  }
}

void Telemetry::on_refresh_pointer(std::uint32_t channel, std::uint32_t pseudo_channel,
                                   std::uint32_t pointer) {
  const std::size_t lane = static_cast<std::size_t>(channel) * config_.pseudo_channels +
                           pseudo_channel;
  RH_EXPECTS(lane < ref_pointers_.size());
  ref_pointers_[lane]->set(static_cast<double>(pointer));
}

std::uint64_t Telemetry::bank_act_count(std::uint32_t channel, std::uint32_t pseudo_channel,
                                        std::uint32_t bank) const {
  return bank_acts_[heat_index(channel, pseudo_channel, bank)];
}

std::uint64_t Telemetry::total_acts() const {
  std::uint64_t sum = 0;
  for (const auto v : bank_acts_) sum += v;
  return sum;
}

MetricsSnapshot Telemetry::snapshot() const {
  MetricsSnapshot snap = registry_.snapshot();
  // Synthesize the drop counter into its sorted position: the registry
  // itself stays untouched (snapshot() is const and hot paths must not
  // allocate a counter per export).
  SnapshotEntry entry;
  entry.name = "telemetry.trace_dropped";
  entry.kind = MetricKind::kCounter;
  entry.value = static_cast<double>(trace_dropped_total());
  const auto pos = std::lower_bound(
      snap.entries.begin(), snap.entries.end(), entry,
      [](const SnapshotEntry& a, const SnapshotEntry& b) { return a.name < b.name; });
  snap.entries.insert(pos, std::move(entry));
  return snap;
}

void Telemetry::write_metrics_json(std::ostream& os) const {
  os << "{\"metrics\":";
  snapshot().write_json(os);
  os << ",\"bank_act_heatmap\":{\"channels\":" << config_.channels
     << ",\"pseudo_channels\":" << config_.pseudo_channels << ",\"banks\":" << config_.banks
     << ",\"counts\":[";
  for (std::size_t i = 0; i < bank_acts_.size(); ++i) {
    if (i != 0) os << ',';
    os << bank_acts_[i];
  }
  os << "]},\"trace\":{\"recorded\":" << trace_.total_recorded()
     << ",\"retained\":" << trace_.size() << ",\"dropped\":" << trace_dropped_total()
     << "},\"events\":{\"trr\":" << trr_events_.size() << ",\"flip\":" << flip_events_.size()
     << "}}";
}

void Telemetry::write_chrome_trace(std::ostream& os, const SpanSheet* spans) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  write_chrome_trace_events(os, trace_.in_order(), kNsPerCycle, first);
  if (spans != nullptr) write_chrome_span_events(os, spans->spans(), first);
  os << "]}";
}

void Telemetry::render_act_heatmap(std::ostream& os) const {
  std::vector<std::vector<double>> grid;
  std::vector<std::string> labels;
  grid.reserve(static_cast<std::size_t>(config_.channels) * config_.pseudo_channels);
  for (std::uint32_t ch = 0; ch < config_.channels; ++ch) {
    for (std::uint32_t pc = 0; pc < config_.pseudo_channels; ++pc) {
      std::vector<double> lane(config_.banks);
      for (std::uint32_t b = 0; b < config_.banks; ++b) {
        lane[b] = static_cast<double>(bank_act_count(ch, pc, b));
      }
      grid.push_back(std::move(lane));
      labels.push_back(lane_label(ch, pc));
    }
  }
  common::render_heatmap(os, grid, labels, "per-bank ACT counts (columns = banks)");
}

void Telemetry::absorb(const Telemetry& other) {
  RH_EXPECTS(other.config_.channels == config_.channels &&
             other.config_.pseudo_channels == config_.pseudo_channels &&
             other.config_.banks == config_.banks);
  registry_.merge_from(other.registry_);
  for (std::size_t i = 0; i < bank_acts_.size(); ++i) bank_acts_[i] += other.bank_acts_[i];
  for (const auto& e : other.trr_events_) {
    if (trr_events_.size() >= kMaxTrrEvents) break;
    trr_events_.push_back(e);
  }
  for (const auto& e : other.flip_events_) {
    if (flip_events_.size() >= kMaxFlipEvents) break;
    flip_events_.push_back(e);
  }
  if (config_.trace_enabled) {
    for (const auto& e : other.trace_.in_order()) trace_.push(e);
  }
  // Events the absorbed sink had already lost stay lost; carry the count so
  // the aggregate's trace accounting covers the whole fleet.
  absorbed_dropped_ += other.trace_dropped_total();
}

void Telemetry::reset() {
  registry_.reset();
  trace_.clear();
  absorbed_dropped_ = 0;
  trr_events_.clear();
  flip_events_.clear();
  std::fill(bank_acts_.begin(), bank_acts_.end(), 0);
}

}  // namespace rh::telemetry
