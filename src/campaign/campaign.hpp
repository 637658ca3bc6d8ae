// The experiment-campaign runner: shards a characterization sweep across a
// pool of rigs and merges the results deterministically.
//
// Why this is sound: the fault model is a pure function of (seed, bank,
// row, bit) — there is no sequential RNG in the device — and every per-row
// test re-initializes its own neighbourhood with refresh (and therefore
// TRR) disabled. So *each rig constructs its own BenderHost from the
// same DeviceConfig* and runs disjoint shards on it, and the merged result
// (ordered by shard index) is bitwise-identical to running every shard in
// order on one host, regardless of how shards were scheduled. `--jobs=8`
// and `--jobs=1` produce byte-identical tables; the determinism test pins
// this.
//
// Robustness:
//   * checkpoint/resume — completed shards stream to a JSONL journal
//     (journal.hpp) whose fsync'd header binds it to the exact sweep
//     config; a resumed campaign skips journaled shards and refuses a
//     mismatched journal,
//   * failure isolation — a shard that throws a common::TransientError
//     (transport exhaustion, thermal upset) is retried on a freshly built
//     host; a fatal error (bad program, bad config) skips the retry budget
//     entirely; either way the failure is reported at the end without
//     killing the rest of the campaign,
//   * fault injection — CampaignConfig::fault_plan arms a per-rig fault
//     schedule (resilience::arm) so the whole recovery stack can be
//     storm-tested (bench/ablation_fault_storm asserts byte-identical
//     results under a 5 % transport-fault rate); the schedules' stats are
//     the run's one resilience.* count,
//   * progress — a live progress/ETA line fed from campaign.* counters in
//     the telemetry metrics registry,
//   * observability — each rig's host gets its own telemetry sink, all
//     absorbed into the caller's aggregate sink (the bench's session) so
//     --metrics-json / --heatmap cover the whole fleet.
//
// Who owns what: the per-shard work (rig bring-up, attempts, spans,
// sampler, retry/fatal split, outcome bookkeeping, wall samples), the
// per-run state and the run's journal and metrics stream (headers, disk-
// fault injectors, resume, close) live in the shard-execution core,
// ShardRun (shard_runner.hpp); the rigs, their deques and their
// attachments live in RigPool (rig_pool.hpp), the pool the campaign
// service runs too. Campaign::run submits its sweep as one job on a pool
// of `jobs` rigs, waits for it and keeps the finished run; it owns only
// the fault-stream seeds, --resume's refusal of a foreign journal,
// progress, and the fail-on-shard-error policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bender/host.hpp"
#include "common/engine.hpp"
#include "common/error.hpp"
#include "core/shard.hpp"
#include "core/spatial.hpp"
#include "hbm/device.hpp"
#include "profiling/report.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "resilience/storage.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::campaign {

/// How a campaign executes (scheduling/robustness knobs; the science lives
/// in SweepSpec). The bench flags --jobs / --checkpoint / --resume map
/// one-to-one onto the first three fields.
struct CampaignConfig {
  /// Rigs in the pool, each owning a private BenderHost clone.
  unsigned jobs = 1;
  /// JSONL results journal; empty disables checkpointing.
  std::string checkpoint_path;
  /// Resume from checkpoint_path, skipping journaled shards. Requires the
  /// journal to exist and match this sweep's config hash.
  bool resume = false;
  /// Re-runs granted to a shard failing with a common::TransientError, each
  /// on a freshly constructed host. Fatal (non-transient) errors are
  /// isolated immediately — retrying a malformed program cannot help.
  unsigned retries = 1;
  /// Throw CampaignError after the campaign drains if any shard still
  /// failed. Benches keep this on (partial sweeps must not masquerade as
  /// results); tests of failure isolation turn it off.
  bool fail_on_shard_error = true;
  /// Live progress/ETA line on std::cerr.
  bool progress = true;
  /// Infrastructure fault injection (disabled unless a rate is set or the
  /// script is non-empty). Each worker rig arms its own schedule of the
  /// plan (resilience::arm) under a seed derived from (fault_plan.seed, rig
  /// serial), so the plan describes the fleet-wide failure environment;
  /// because every transport recovery is wall-clock-only, merged results
  /// stay byte-identical to a fault-free run.
  resilience::FaultPlan fault_plan;
  /// Per-host transport retry/backoff policy, applied to every worker rig.
  resilience::RetryPolicy retry_policy;
  /// Disk fault injection for the durable outputs (journal + metrics
  /// stream), disabled unless a rate is set or the script is non-empty.
  /// The journal and the stream each arm their own schedule of the plan
  /// under a seed derived from storage_fault_plan.seed. A storage
  /// fault never fails the campaign: journaling/streaming degrade (counted
  /// in CampaignResult::storage_errors) and the science continues — results
  /// stay byte-identical to a fault-free run.
  resilience::StorageFaultPlan storage_fault_plan;
  /// Live metrics time-series (rh-metrics-stream/v1 JSONL, see
  /// telemetry/stream.hpp); empty disables streaming. Written alongside the
  /// checkpoint journal so tools/rh_tail can follow a running campaign.
  std::string metrics_stream_path;
  /// Device cycles between cycles-cadence samples within one shard attempt
  /// (the deterministic per-worker series). ~28 ms of device time. Wall
  /// samples come at every shard claim and commit, not on a cadence.
  std::uint64_t stream_cycle_cadence = 1ull << 24;
  /// Program engine for every worker host (see common/engine.hpp). Both
  /// engines produce byte-identical results, journals, and metrics streams
  /// at the same seed, so the choice is *not* part of the sweep fingerprint
  /// — a checkpoint written by one engine resumes under the other.
  common::EngineKind engine = common::EngineKind::kFast;
  /// Planted fast-path bug for differential-rig sensitivity tests
  /// (kNone in production; ignored when engine == kInterp).
  common::PlantedBug engine_bug = common::PlantedBug::kNone;
};

/// Everything that defines the physics of one sweep: the device (fault seed
/// included), the operating temperature, the measurement parameters, and
/// the deterministic shard plan. Hashed into the journal header.
struct SweepSpec {
  hbm::DeviceConfig device;
  double temperature_c = 85.0;
  /// Settle the thermal rig's PID loop (what the benches do) instead of
  /// pinning the chip temperature directly (faster; used by tests).
  bool settle_thermal = true;
  core::CharacterizerConfig characterizer;
  std::vector<core::ShardSpec> shards;
};

/// SweepSpec for a row survey: `device`, `survey`'s characterizer and
/// core::plan_survey_shards(survey, ...).
[[nodiscard]] SweepSpec survey_sweep(hbm::DeviceConfig device, const core::SurveyConfig& survey,
                                     std::uint32_t max_rows_per_shard = 64);

/// Canonical fingerprint of a sweep (the string that is FNV-1a hashed into
/// the journal header). Stable across runs and platforms.
[[nodiscard]] std::string sweep_fingerprint(const SweepSpec& spec);
[[nodiscard]] std::uint64_t sweep_config_hash(const SweepSpec& spec);

struct ShardFailure {
  std::uint64_t shard = 0;
  std::string what;
};

struct CampaignResult {
  /// Per-shard records, indexed by shard (empty for failed shards).
  std::vector<std::vector<core::RowRecord>> per_shard;
  std::vector<ShardFailure> failures;
  std::uint64_t shards_run = 0;      ///< executed this run
  std::uint64_t shards_skipped = 0;  ///< restored from the journal
  std::uint64_t shards_retried = 0;  ///< extra attempts granted

  /// Cost accounting for every shard executed this run (skipped/failed
  /// shards absent), sorted by shard index. device_cycles and attempts are
  /// deterministic; wall_ms is real host time.
  std::vector<profiling::ShardTiming> timings;
  /// Whole-campaign host wall clock (journal restore through the last
  /// rig's retirement).
  double elapsed_wall_ms = 0.0;
  /// Rigs actually used (after clamping to pending shards).
  unsigned jobs = 1;

  /// Durable-output write failures survived (journal dropped mid-run,
  /// stream gone dark, ...). Results are still complete and correct when
  /// this is nonzero — only checkpoint/telemetry coverage was lost.
  std::uint64_t storage_errors = 0;
  /// First storage failure's message ("" when storage_errors == 0).
  std::string storage_error;

  /// Records of all shards concatenated in shard order — the deterministic
  /// merge the benches consume (identical for any number of rigs).
  [[nodiscard]] std::vector<core::RowRecord> flat() const;
};

/// A campaign failed to produce a complete result set.
class CampaignError : public common::Error {
public:
  using common::Error::Error;
};

/// Builds a worker's private host from the sweep spec.
using HostFactory = std::function<std::unique_ptr<bender::BenderHost>(const SweepSpec&)>;

/// The default HostFactory: BenderHost(spec.device) brought to
/// spec.temperature_c (PID-settled, or pinned when !spec.settle_thermal).
[[nodiscard]] std::unique_ptr<bender::BenderHost> make_default_host(const SweepSpec& spec);

class ShardRun;

class Campaign {
public:
  /// `aggregate` (may be null) receives every worker's telemetry after the
  /// run plus the campaign.* counters (a bench passes its session sink).
  explicit Campaign(CampaignConfig config, telemetry::Telemetry* aggregate = nullptr);
  ~Campaign();

  /// Overrides worker host construction, make_default_host by default
  /// (population studies build variant devices; tests inject failures).
  void set_host_factory(HostFactory factory) { factory_ = std::move(factory); }

  /// Runs the sweep to completion. Throws common::ConfigError on journal
  /// mismatch and CampaignError per config.fail_on_shard_error.
  CampaignResult run(const SweepSpec& spec);

  /// The last run, kept whole except for the result run() returned. Its
  /// spec reference dangles once the caller's spec is gone, so only its
  /// state is read: the three accessors below and build_report.
  [[nodiscard]] const ShardRun& last_run() const;

  /// The last run's campaign.*/resilience.* counters
  /// (shards_total/done/skipped/failed/retried/fatal, records, injected...).
  [[nodiscard]] const telemetry::MetricsRegistry& metrics() const;

  /// The last run's fleet phase profile: every worker's campaign-level
  /// phases (rig_build / shard_run / checkpoint / idle) plus every retired
  /// host's host-level phases.
  [[nodiscard]] const profiling::Profile& profile() const;

  /// The last run's span forest (campaign -> shard -> attempt -> host
  /// phase -> fault/recovery marks), already merged across workers and in
  /// canonical order.
  [[nodiscard]] const telemetry::SpanSheet& spans() const;

private:
  CampaignConfig config_;
  telemetry::Telemetry* aggregate_;
  HostFactory factory_;
  std::unique_ptr<ShardRun> run_;  ///< the last run, null before the first
};

/// Joins a finished campaign into one RunReport: the fleet profile, the
/// campaign.*/resilience.* counters, per-shard timings, and — when `sink`
/// (the session aggregate the workers reported into) is non-null —
/// the full fleet metrics snapshot and trace-ring accounting. With a null
/// sink the report still carries the campaign's own counters; cmd.*-derived
/// throughput is simply absent.
[[nodiscard]] profiling::RunReport build_report(const std::string& label, const SweepSpec& spec,
                                                const Campaign& campaign,
                                                const CampaignResult& result,
                                                const telemetry::Telemetry* sink = nullptr);

/// Same join, straight from a finished ShardRun (its own result). What the
/// campaign service's jobs report through.
[[nodiscard]] profiling::RunReport build_report(const std::string& label, const SweepSpec& spec,
                                                const ShardRun& run,
                                                const telemetry::Telemetry* sink = nullptr);

}  // namespace rh::campaign
