// One tenant-submitted campaign job and its on-disk footprint.
//
// A Job is the service's wrapper around one campaign::ShardRun, the
// shard-execution core Campaign::run drives too: the run owns the result,
// counters, profile, span sheet, journal, metrics stream and worker status,
// and executes and books every shard, so a job's deterministic report is
// byte-identical to running its config through the bench CLI path. The
// job adds only what the service owns: admission identity (id, tenant,
// config, paths), lifecycle state, cache accounting, rig attachment, and
// the per-job storage fault injectors. Job::mutex is the run state's
// guard (see the locking note in shard_runner.hpp).
//
// On-disk footprint, all under the server's data dir and all named by id:
//   job-<id>.json           descriptor (tenant, state, canonical config) —
//                           what restart recovery replays
//   job-<id>.journal.jsonl  the campaign checkpoint journal (the results)
//   job-<id>.stream.jsonl   rh-metrics-stream/v1 (GET /jobs/<id>/stream)
//   job-<id>.report.json    rh-run-report/v1, written at finalize
//   job-<id>.report.det.json  the deterministic projection of the same
//
// The journal doubles as the job's durable result set: resume restores it,
// the cache warms from it, and GET /jobs/<id>/results flattens it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "campaign/shard_runner.hpp"
#include "resilience/storage.hpp"
#include "serve/config.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::serve {

enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState state);
[[nodiscard]] JobState job_state_from_string(const std::string& text);

/// True for states the scheduler still owes work to.
[[nodiscard]] inline bool job_state_active(JobState s) {
  return s == JobState::kQueued || s == JobState::kRunning;
}

struct Job {
  // --- immutable after admission --------------------------------------
  std::uint64_t id = 0;
  std::string tenant = "anonymous";
  CampaignConfig config;
  campaign::SweepSpec spec;   ///< to_sweep_spec(config), computed once
  std::uint64_t hash = 0;     ///< config_hash(config) == the journal header's
  std::string cache_prefix;   ///< sweep_cache_prefix(spec)
  std::string journal_path;
  std::string stream_path;
  std::string report_path;
  std::string det_report_path;
  std::string meta_path;

  // --- mutable, guarded by `mutex` (cancel is an atomic flag so the
  //     scheduler can observe it without the lock) -----------------------
  std::mutex mutex;
  JobState state = JobState::kQueued;
  std::atomic<bool> cancel{false};
  std::string error;  ///< first fatal failure / finalize error, for the API

  std::size_t remaining = 0;     ///< shards not yet completed or failed
  std::uint64_t shards_cached = 0;  ///< answered from the result cache
  unsigned rigs_attached = 0;    ///< rigs currently holding this job's state
  bool finalized = false;

  std::unique_ptr<telemetry::Telemetry> aggregate;  ///< fleet cmd.* sink
  /// Per-job storage fault injectors (null unless the server was started
  /// with a storage fault plan), one independent stream per durable output
  /// so a journal fault never moves a stream fault.
  std::unique_ptr<resilience::StorageFaultInjector> journal_injector;
  std::unique_ptr<resilience::StorageFaultInjector> stream_injector;
  std::unique_ptr<resilience::StorageFaultInjector> meta_injector;
  /// The run state, one worker slot per scheduler rig. A storage failure
  /// that drops its journal (run->journal_lost) fails the job at finalize.
  std::unique_ptr<campaign::ShardRun> run;
};

/// Completes a job whose last shard has retired: finishes the run (sorts,
/// roots the span forest, final stream sample, aggregate merge), builds
/// the rh-run-report/v1 pair, and writes both report files. Caller holds
/// job.mutex; state must still be active.
void finalize_job(Job& job);

/// One-line JSON descriptor for GET /jobs/<id> (and the jobs list).
[[nodiscard]] std::string job_status_json(Job& job);

/// Persisted job-<id>.json descriptor (canonical config embedded; the error
/// too, so a job failed before a restart still says why).
[[nodiscard]] std::string job_meta_json(Job& job);

}  // namespace rh::serve
