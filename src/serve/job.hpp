// One tenant-submitted campaign job and its on-disk footprint.
//
// A Job is the service's job on the campaign rig pool: a campaign::PoolJob,
// the type Campaign::run submits too, whose campaign::ShardRun owns the
// result, counters, profile, span sheet, worker status, and the journal
// and metrics stream with their disk-fault injectors, and executes and
// books every shard, so a job's deterministic report is byte-identical to
// running its config through the bench CLI path. The pool job also
// carries the pool's bookkeeping (mutex, remaining shards, attached rigs,
// finalized, cancel). The job adds only what the service owns: admission
// identity (id, tenant, config, paths), lifecycle state, cache accounting,
// and the descriptor's fault injector. PoolJob::mutex guards the run state
// and every mutable field below (see the locking note in shard_runner.hpp).
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

#include <cstdint>
#include <memory>
#include <string>

#include "campaign/rig_pool.hpp"
#include "resilience/storage.hpp"
#include "serve/config.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::serve {

enum class JobState : std::uint8_t { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState state);
[[nodiscard]] JobState job_state_from_string(const std::string& text);

/// True for states the rig pool still owes work to.
[[nodiscard]] inline bool job_state_active(JobState s) {
  return s == JobState::kQueued || s == JobState::kRunning;
}

struct Job : campaign::PoolJob {
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

  // --- mutable, guarded by `mutex` ------------------------------------
  JobState state = JobState::kQueued;
  std::string error;  ///< first fatal failure / finalize error, for the API
  std::uint64_t shards_cached = 0;  ///< answered from the result cache

  std::unique_ptr<telemetry::Telemetry> aggregate;  ///< fleet cmd.* sink
  /// The descriptor's storage fault injector (null unless the server was
  /// started with a storage fault plan); the run holds the journal's and
  /// the stream's, and the report files draw from the journal's.
  std::unique_ptr<resilience::StorageFaultInjector> meta_injector;
  // `run` (PoolJob) has one worker slot per rig. A storage failure that
  // drops its journal (run->journal_lost) fails the job at finalize.
};

/// Completes a job the rig pool just finalized (its last shard committed,
/// its last rig retired): finishes the run (sorts, roots the span forest,
/// final stream sample, aggregate merge), builds the rh-run-report/v1
/// pair, writes both report files and sets the terminal state. Caller
/// holds job.mutex; state must still be active.
void finalize_job(Job& job);

/// One-line JSON descriptor for GET /jobs/<id> (and the jobs list).
[[nodiscard]] std::string job_status_json(Job& job);

/// Persisted job-<id>.json descriptor (canonical config embedded; the error
/// too, so a job failed before a restart still says why, and the cached
/// shard count, so a job the cache answered still reads cache_hit).
[[nodiscard]] std::string job_meta_json(Job& job);

}  // namespace rh::serve
