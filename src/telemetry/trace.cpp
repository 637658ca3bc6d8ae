#include "telemetry/trace.hpp"

#include <ostream>
#include <set>

#include "common/assert.hpp"
#include "telemetry/metrics.hpp"

namespace rh::telemetry {

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  RH_EXPECTS(capacity > 0);
  buffer_.reserve(capacity);
}

void TraceRing::push(const CommandEvent& e) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(e);
  } else {
    buffer_[static_cast<std::size_t>(total_ % capacity_)] = e;
  }
  ++total_;
}

std::size_t TraceRing::size() const { return buffer_.size(); }

std::uint64_t TraceRing::dropped() const { return total_ - buffer_.size(); }

std::vector<CommandEvent> TraceRing::in_order() const {
  std::vector<CommandEvent> out;
  out.reserve(buffer_.size());
  if (total_ <= capacity_) {
    out = buffer_;
  } else {
    const auto head = static_cast<std::size_t>(total_ % capacity_);
    out.insert(out.end(), buffer_.begin() + static_cast<std::ptrdiff_t>(head), buffer_.end());
    out.insert(out.end(), buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

void TraceRing::clear() {
  buffer_.clear();
  total_ = 0;
}

void write_chrome_trace_events(std::ostream& os, const std::vector<CommandEvent>& events,
                               double ns_per_cycle, bool& first) {
  // Label the lanes: one "process" per channel, one "thread" per pseudo
  // channel, so Perfetto shows "channel 3 / pc 1" instead of bare ids.
  std::set<std::pair<std::uint8_t, std::uint8_t>> lanes;
  for (const auto& e : events) lanes.insert({e.channel, e.pseudo_channel});
  std::set<std::uint8_t> channels;
  for (const auto& [ch, pc] : lanes) channels.insert(ch);
  for (const auto ch : channels) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << static_cast<unsigned>(ch)
       << ",\"args\":{\"name\":\"channel " << static_cast<unsigned>(ch) << "\"}}";
  }
  for (const auto& [ch, pc] : lanes) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << static_cast<unsigned>(ch)
       << ",\"tid\":" << static_cast<unsigned>(pc) << ",\"args\":{\"name\":\"pseudo channel "
       << static_cast<unsigned>(pc) << "\"}}";
    first = false;
  }

  const double us_per_cycle = ns_per_cycle / 1000.0;
  for (const auto& e : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << to_string(e.command) << "\",\"cat\":\"dram\",\"ph\":\"X\",\"ts\":"
       << static_cast<double>(e.cycle) * us_per_cycle << ",\"dur\":" << us_per_cycle
       << ",\"pid\":" << static_cast<unsigned>(e.channel)
       << ",\"tid\":" << static_cast<unsigned>(e.pseudo_channel) << ",\"args\":{\"bank\":"
       << static_cast<unsigned>(e.bank) << ",\"row\":" << e.row << ",\"arg\":" << e.arg << "}}";
  }
}

}  // namespace rh::telemetry
