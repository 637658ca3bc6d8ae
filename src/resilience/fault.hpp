// The fault schedule both infrastructure fault planes run on, and the
// transport plane's kinds.
//
// The paper's measurements come from a physical rig — DRAM Bender over PCIe,
// a PID-driven heater — where transfers drop, readback FIFOs return garbage,
// and the thermal plant wanders mid-experiment; a multi-hour campaign also
// writes through a disk that can fill, tear or rot. Two fault planes inject
// those failure modes so the recovery code can be exercised and
// regression-tested under reproducible chaos:
//   transport (FaultKind, below) — the transport/thermal/executor layers,
//     recovered by bender::BenderHost and retried by the campaign;
//   storage (StorageFaultKind, storage.hpp) — the durable files' write path.
// Both run on one FaultSchedule<Kind>: the plan, the firing decisions, the
// shape() stream, the injection log and the stats. A plane supplies only its
// kind enum and names, a FaultTraits specialization, and what its faults do
// (bender/transport.hpp and bender/host.cpp; resilience/storage.cpp).
//
// Determinism contract: the fault stream is a pure function of
// (plan.seed, plan). Whether the i-th *opportunity* of fault kind k fires is
//   hash(seed, fire tag, k, i) < rate[k]      (rate-driven faults)
// or an exact match against the scripted schedule — never a draw from a
// shared sequential RNG — so interleaving opportunities of different kinds
// does not perturb each other, and two runs of the same workload against
// the same (seed, plan) observe byte-identical fault/recovery event logs.
// Each plane hashes under its own tags, so planes armed off one seed draw
// decorrelated streams.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rh::resilience {

/// What a fault plane declares about its kind enum (values 0..kCount-1):
///   kCount       the number of kinds;
///   kFireTag     the hash tag of the firing decisions;
///   kShapeTag    the hash tag of the shape() stream;
///   in_storm(k)  whether FaultPlanOf::set_storm_rates arms kind k.
template <typename Kind>
struct FaultTraits;

/// One scripted fault: fire `kind` on its `opportunity`-th opportunity
/// (0-based, counted per kind). Scripted entries fire regardless of rates,
/// which gives tests exact control over failure placement.
template <typename Kind>
struct ScriptedFaultOf {
  Kind kind{};
  std::uint64_t opportunity = 0;
};

/// The reproducible description of a fault campaign: seed, per-kind rates
/// and an explicit script. (seed, plan) => identical stream.
template <typename Kind>
struct FaultPlanOf {
  std::uint64_t seed = 0;
  /// Per-kind probability that one opportunity fires (indexed by Kind).
  std::array<double, FaultTraits<Kind>::kCount> rates{};
  /// Exact schedule, honoured in addition to the rates.
  std::vector<ScriptedFaultOf<Kind>> script;

  void set_rate(Kind kind, double rate) { rates[static_cast<std::size_t>(kind)] = rate; }
  /// Arms every kind the plane's storm takes (FaultTraits::in_storm) at
  /// `rate` — the fault-storm configuration.
  void set_storm_rates(double rate);
  /// True when any rate is non-zero or the script is non-empty.
  [[nodiscard]] bool enabled() const;
};

/// How an injected fault was eventually resolved by the layer that hit it.
enum class FaultResolution : std::uint8_t {
  kPending = 0,  ///< injected, resolution not (or never) reported
  kRecovered,    ///< detected and healed (retry / re-drain / re-settle)
  kAborted,      ///< detected but the recovery budget ran out
};

/// One entry of the fault/recovery event log.
template <typename Kind>
struct FaultRecordOf {
  std::uint64_t sequence = 0;     ///< global injection order
  Kind kind{};
  std::uint64_t opportunity = 0;  ///< per-kind opportunity index that fired
  FaultResolution resolution = FaultResolution::kPending;
  std::string detail;             ///< recovery-site note ("retry 2/4", ...)
};

/// Drives one fault stream and records it.
///
/// Thread-compatibility: a schedule belongs to exactly one owner (a worker
/// rig's host, or one durable file family's writer); it is not internally
/// synchronized.
template <typename Kind>
class FaultSchedule {
public:
  using Plan = FaultPlanOf<Kind>;
  using Record = FaultRecordOf<Kind>;
  static constexpr std::size_t kKinds = FaultTraits<Kind>::kCount;

  explicit FaultSchedule(Plan plan);

  /// Consumes one opportunity of `kind`; true when the fault fires (the
  /// injection is appended to the log before returning).
  [[nodiscard]] bool should_fire(Kind kind);

  /// Deterministic fault-shaping randomness (which bits corrupt, excursion
  /// sign, how many bytes of a short write land): a counter-based hash
  /// stream independent of the firing decisions.
  [[nodiscard]] std::uint64_t shape();

  /// Marks the most recent unresolved injection of `kind`. The host calls
  /// these at its recovery sites; the pair (injection, resolution) is what
  /// the determinism tests compare across runs. A disk fault is never
  /// resolved here: the writer's caller sees it as a StorageError.
  void note_recovered(Kind kind, const std::string& detail);
  void note_aborted(Kind kind, const std::string& detail);

  struct Stats {
    std::uint64_t injected = 0;
    std::uint64_t recovered = 0;
    std::uint64_t aborted = 0;
    std::array<std::uint64_t, kKinds> by_kind{};
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Record>& log() const { return log_; }

  /// Canonical one-line-per-event rendering of the log
  /// ("3 upload-timeout@7 recovered [retry 1/4]") — the string the
  /// determinism contract is asserted on.
  [[nodiscard]] std::string log_string() const;

private:
  void resolve(Kind kind, FaultResolution resolution, const std::string& detail);

  Plan plan_;
  std::array<std::uint64_t, kKinds> opportunities_{};
  std::uint64_t shape_counter_ = 0;
  std::vector<Record> log_;
  Stats stats_;
};

/// The schedule of `plan` drawn under `seed` in place of plan.seed, or null
/// when the plan is disabled. Every owner arms its stream through here: the
/// plan describes the failure environment, the seed (which the owner
/// derives) decorrelates the streams drawn from it.
template <typename Kind>
[[nodiscard]] std::unique_ptr<FaultSchedule<Kind>> arm(const FaultPlanOf<Kind>& plan,
                                                       std::uint64_t seed);

// ---------------------------------------------------------------------------
// The transport plane.
// ---------------------------------------------------------------------------

/// Everything the transport plane knows how to break, layer by layer.
enum class FaultKind : std::uint8_t {
  kUploadTimeout = 0,   ///< host->FPGA DMA never completes (watchdog fires)
  kUploadDrop,          ///< upload transmitted but the completion ack is lost
  kReadbackCorrupt,     ///< FIFO drain delivered with flipped payload bits
  kReadbackShortRead,   ///< FIFO drain ends early; a strict prefix arrives
  kExecutorStall,       ///< FPGA never starts the program (doorbell lost)
  kThermalExcursion,    ///< chip temperature jumps out of the control band
  kThermalDrift,        ///< thermal plant's ambient shifts (persistent bias)
};

inline constexpr std::size_t kFaultKindCount = 7;

[[nodiscard]] constexpr std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kUploadTimeout: return "upload-timeout";
    case FaultKind::kUploadDrop: return "upload-drop";
    case FaultKind::kReadbackCorrupt: return "readback-corrupt";
    case FaultKind::kReadbackShortRead: return "readback-short-read";
    case FaultKind::kExecutorStall: return "executor-stall";
    case FaultKind::kThermalExcursion: return "thermal-excursion";
    case FaultKind::kThermalDrift: return "thermal-drift";
  }
  return "?";
}

template <>
struct FaultTraits<FaultKind> {
  static constexpr std::size_t kCount = kFaultKindCount;
  static constexpr std::uint64_t kFireTag = 0xFA017u;
  static constexpr std::uint64_t kShapeTag = 0x5AAFEu;
  /// A storm arms the PCIe-layer faults: the ones whose recovery provably
  /// leaves the device timeline untouched, so campaign results stay
  /// byte-identical.
  static constexpr bool in_storm(FaultKind kind) {
    return kind != FaultKind::kThermalExcursion && kind != FaultKind::kThermalDrift;
  }
};

using ScriptedFault = ScriptedFaultOf<FaultKind>;
using FaultPlan = FaultPlanOf<FaultKind>;
using FaultRecord = FaultRecordOf<FaultKind>;
using FaultInjector = FaultSchedule<FaultKind>;

}  // namespace rh::resilience
