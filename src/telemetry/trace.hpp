// Command-level tracing: a bounded ring buffer of per-pseudo-channel
// {cycle, command, bank, row} events, exportable as Chrome trace-event JSON
// so command timelines render directly in chrome://tracing / Perfetto.
//
// The ring is the paper-infrastructure analogue of DRAM Bender's visibility
// into the exact command stream a test emits: the device records the last N
// commands with zero allocation per event; older events are overwritten and
// accounted as dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace rh::telemetry {

/// Command vocabulary of the trace stream. Superset of the HBM2 command set:
/// includes the executor's HAMMER macro-ops (one event per batch, count in
/// `arg`) and domain markers for TRR triggers and bit-flip materializations.
enum class TraceCommand : std::uint8_t {
  kAct = 0,
  kPre,
  kPreA,
  kRd,
  kWr,
  kRef,
  kMrs,
  kSrEnter,
  kSrExit,
  kHammer,
  kTrrTrigger,
  kBitFlip,
  kFault,     ///< an injected/detected infrastructure fault (arg = FaultKind)
  kRecovery,  ///< the matching recovery or abort (arg = FaultKind)
};

inline constexpr std::size_t kTraceCommandCount = 14;

[[nodiscard]] constexpr std::string_view to_string(TraceCommand c) {
  switch (c) {
    case TraceCommand::kAct: return "ACT";
    case TraceCommand::kPre: return "PRE";
    case TraceCommand::kPreA: return "PREA";
    case TraceCommand::kRd: return "RD";
    case TraceCommand::kWr: return "WR";
    case TraceCommand::kRef: return "REF";
    case TraceCommand::kMrs: return "MRS";
    case TraceCommand::kSrEnter: return "SRE";
    case TraceCommand::kSrExit: return "SRX";
    case TraceCommand::kHammer: return "HAMMER";
    case TraceCommand::kTrrTrigger: return "TRR";
    case TraceCommand::kBitFlip: return "FLIP";
    case TraceCommand::kFault: return "FAULT";
    case TraceCommand::kRecovery: return "RECOVERY";
  }
  return "?";
}

/// One traced command. 24 bytes; the ring stores these by value.
struct CommandEvent {
  std::uint64_t cycle = 0;
  std::uint32_t row = 0;  ///< row operand (0 for row-less commands)
  std::uint32_t arg = 0;  ///< command-specific payload (hammer count, MRS value, flip bits)
  std::uint8_t channel = 0;
  std::uint8_t pseudo_channel = 0;
  std::uint8_t bank = 0;
  TraceCommand command = TraceCommand::kAct;
};

/// Fixed-capacity overwrite-oldest ring of CommandEvents.
class TraceRing {
public:
  explicit TraceRing(std::size_t capacity);

  void push(const CommandEvent& e);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const;
  /// Events pushed over the ring's lifetime.
  [[nodiscard]] std::uint64_t total_recorded() const { return total_; }
  /// Events overwritten before export.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<CommandEvent> in_order() const;
  void clear();

private:
  std::vector<CommandEvent> buffer_;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;
};

/// Writes `events` as Chrome trace-event slices into an already-open
/// traceEvents array. Each command becomes a complete ("X") slice: pid =
/// channel, tid = pseudo channel, ts/dur in microseconds (`ns_per_cycle`
/// converts the cycle counter), args = {bank, row, arg}. Process/thread
/// metadata events label the channel/pseudo-channel lanes for the Perfetto
/// UI. `first` tracks comma state so further writers (e.g. span events)
/// can append to the same array.
void write_chrome_trace_events(std::ostream& os, const std::vector<CommandEvent>& events,
                               double ns_per_cycle, bool& first);

}  // namespace rh::telemetry
