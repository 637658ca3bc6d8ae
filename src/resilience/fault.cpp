#include "resilience/fault.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "resilience/storage.hpp"

namespace rh::resilience {

template <typename Kind>
void FaultPlanOf<Kind>::set_storm_rates(double rate) {
  for (std::size_t k = 0; k < rates.size(); ++k) {
    if (FaultTraits<Kind>::in_storm(static_cast<Kind>(k))) rates[k] = rate;
  }
}

template <typename Kind>
bool FaultPlanOf<Kind>::enabled() const {
  if (!script.empty()) return true;
  for (const double rate : rates) {
    if (rate > 0.0) return true;
  }
  return false;
}

template <typename Kind>
FaultSchedule<Kind>::FaultSchedule(Plan plan) : plan_(std::move(plan)) {
  for (const double rate : plan_.rates) {
    RH_EXPECTS(rate >= 0.0 && rate <= 1.0);
  }
}

template <typename Kind>
bool FaultSchedule<Kind>::should_fire(Kind kind) {
  const auto k = static_cast<std::size_t>(kind);
  const std::uint64_t opportunity = opportunities_[k]++;

  bool fire = false;
  for (const ScriptedFaultOf<Kind>& scripted : plan_.script) {
    if (scripted.kind == kind && scripted.opportunity == opportunity) {
      fire = true;
      break;
    }
  }
  if (!fire && plan_.rates[k] > 0.0) {
    // Counter-based: kind k's stream is untouched by other kinds' draws.
    const std::uint64_t h =
        common::hash_coords(plan_.seed, FaultTraits<Kind>::kFireTag, k, opportunity);
    fire = common::to_unit_double(h) < plan_.rates[k];
  }
  if (fire) {
    log_.push_back({stats_.injected, kind, opportunity, FaultResolution::kPending, ""});
    ++stats_.injected;
    ++stats_.by_kind[k];
  }
  return fire;
}

template <typename Kind>
std::uint64_t FaultSchedule<Kind>::shape() {
  return common::hash_coords(plan_.seed, FaultTraits<Kind>::kShapeTag, shape_counter_++);
}

template <typename Kind>
void FaultSchedule<Kind>::resolve(Kind kind, FaultResolution resolution,
                                  const std::string& detail) {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->kind == kind && it->resolution == FaultResolution::kPending) {
      it->resolution = resolution;
      it->detail = detail;
      return;
    }
  }
  // A resolution with no pending injection is a host bookkeeping bug.
  RH_EXPECTS(false);
}

template <typename Kind>
void FaultSchedule<Kind>::note_recovered(Kind kind, const std::string& detail) {
  ++stats_.recovered;
  resolve(kind, FaultResolution::kRecovered, detail);
}

template <typename Kind>
void FaultSchedule<Kind>::note_aborted(Kind kind, const std::string& detail) {
  ++stats_.aborted;
  resolve(kind, FaultResolution::kAborted, detail);
}

template <typename Kind>
std::string FaultSchedule<Kind>::log_string() const {
  std::string out;
  for (const Record& record : log_) {
    out += std::to_string(record.sequence) + ' ';
    out += to_string(record.kind);
    out += '@' + std::to_string(record.opportunity);
    switch (record.resolution) {
      case FaultResolution::kPending: out += " pending"; break;
      case FaultResolution::kRecovered: out += " recovered"; break;
      case FaultResolution::kAborted: out += " aborted"; break;
    }
    if (!record.detail.empty()) out += " [" + record.detail + ']';
    out += '\n';
  }
  return out;
}

template <typename Kind>
std::unique_ptr<FaultSchedule<Kind>> arm(const FaultPlanOf<Kind>& plan, std::uint64_t seed) {
  if (!plan.enabled()) return nullptr;
  FaultPlanOf<Kind> seeded = plan;
  seeded.seed = seed;
  return std::make_unique<FaultSchedule<Kind>>(std::move(seeded));
}

// The two planes.
template struct FaultPlanOf<FaultKind>;
template class FaultSchedule<FaultKind>;
template std::unique_ptr<FaultSchedule<FaultKind>> arm(const FaultPlanOf<FaultKind>&,
                                                       std::uint64_t);
template struct FaultPlanOf<StorageFaultKind>;
template class FaultSchedule<StorageFaultKind>;
template std::unique_ptr<FaultSchedule<StorageFaultKind>> arm(
    const FaultPlanOf<StorageFaultKind>&, std::uint64_t);

}  // namespace rh::resilience
