// The shard-execution core of the campaign rig pool (rig_pool.hpp), which
// both campaign runners use: Campaign::run (the bench CLI path: one sweep
// as one job on a pool of --jobs rigs) and the campaign service (many jobs
// on one pool of --rigs). Every shard of either runs through this one code
// path, which is why a service job's deterministic report, journal and
// cycles series are byte-identical to the bench path's on the same sweep.
//
// A ShardRun owns one sweep run's state: its CampaignResult, the
// campaign.*/resilience.* counter set, the fleet profile, the span sheet,
// per-worker status, the span epoch and the rig serial that decorrelates
// per-rig fault streams. It is the one owner of the run's journal and
// metrics stream: their headers, their disk-fault injectors, resume, the
// drop on a StorageError, and the close. It owns the one wall-sample rule
// too: claim() and commit() each append one wall sample, so a shard in
// flight is named in the stream from its claim on, and a hung shard leaves
// the stream quiet. The runners own only what differs between them:
//   Campaign::run   fault-stream seeds, refusing a foreign journal on
//                   --resume, progress, fail-on-error;
//   serve::Job      fault-stream seeds, admission (cache hits; restart
//                   resume, which starts a foreign journal over), the result
//                   cache, flight-recorder events, serve.* histograms, and
//                   finalize (report files, job state).
//
// Locking: the run state has no lock of its own. The runner guards it
// with one mutex (PoolJob::mutex) and holds it for every member function
// except execute() and retire(), which run on a rig thread without it and
// take it only where they touch shared state. While rigs run, nothing
// replaces the stream or `epoch` and nobody but the claiming rig touches a
// claimed shard's `done` entry, so those reads need no lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "core/characterizer.hpp"
#include "profiling/profile.hpp"
#include "resilience/fault.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/stream.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::campaign {

/// Host wall milliseconds since `start`.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// One worker's private measurement stack: a host clone, its telemetry
/// sink, its fault injector (under fault injection), and a characterizer
/// bound to all three. Built on a worker's first attempt and rebuilt from
/// scratch after a failed one (the old host's state is suspect).
struct WorkerRig {
  std::unique_ptr<bender::BenderHost> host;
  std::unique_ptr<telemetry::Telemetry> sink;
  std::unique_ptr<resilience::FaultInjector> injector;
  std::unique_ptr<core::Characterizer> characterizer;
};

/// Live status of one worker slot (one rig of the pool): the `workers`
/// array of each wall sample.
struct WorkerStatus {
  double busy_ms = 0.0;    ///< completed-shard wall time (in-flight added at read)
  std::uint64_t done = 0;  ///< shards this worker finished
  std::int64_t shard = -1; ///< shard in flight, -1 when idle
  std::chrono::steady_clock::time_point claim;  ///< when `shard` was claimed
};

/// What all attempts at one shard came to.
struct ExecutedShard {
  std::vector<core::RowRecord> records;  ///< the measurements (ok only)
  std::string error;                     ///< the last attempt's failure
  bool ok = false;
  bool fatal = false;         ///< deterministic failure: no retry was spent
  unsigned attempts = 0;
  double wall_ms = 0.0;       ///< all attempts, incl. rig rebuilds
  std::uint64_t cycles = 0;   ///< measurement cycles (deterministic)
};

class ShardRun {
public:
  /// Starts a run of `spec`, which must outlive every call but the
  /// metrics/profile/spans reads of a finished run. Of `config`, the run
  /// uses the execution knobs (retries, fault_plan, retry_policy, engine,
  /// engine_bug, stream_cycle_cadence) and the durable outputs
  /// (checkpoint_path, metrics_stream_path, storage_fault_plan). `aggregate`
  /// (may be null) absorbs every retired rig's telemetry and, at finish(),
  /// the run's counters. Registers the counter set and sets the span epoch
  /// to now.
  ShardRun(const SweepSpec& spec, CampaignConfig config, HostFactory factory,
           telemetry::Telemetry* aggregate);

  ShardRun(const ShardRun&) = delete;
  ShardRun& operator=(const ShardRun&) = delete;

  CampaignResult result;
  std::vector<char> done;               ///< per shard: restored or committed
  telemetry::MetricsRegistry metrics;   ///< campaign.*/resilience.* counters
  profiling::Profile profile;           ///< fleet profile
  telemetry::SpanSheet spans;
  std::vector<WorkerStatus> workers;    ///< one slot per worker; size the pool
  std::chrono::steady_clock::time_point epoch;  ///< span and sample clock base
  /// A storage failure dropped the journal: results are no longer durable.
  bool journal_lost = false;

  /// Arms disk-fault injection on the journal and the stream when
  /// config.storage_fault_plan is enabled: each draws the plan under its
  /// own seed, which the runner derives.
  void seed_storage_faults(std::uint64_t journal_seed, std::uint64_t stream_seed);
  /// The journal's fault injector (null when unarmed).
  [[nodiscard]] resilience::StorageFaultInjector* journal_injector() const {
    return journal_injector_.get();
  }

  /// Restores a shard measured before this run (journal resume, result
  /// cache): counted as skipped, never executed.
  void restore(std::uint64_t shard, std::vector<core::RowRecord> records);
  /// Restores every in-range shard `reader` holds, once its header is this
  /// sweep's; a foreign one throws common::ConfigError, restoring nothing.
  void restore(const JournalReader& reader);
  /// Shards neither restored nor committed.
  [[nodiscard]] std::size_t pending() const;
  /// Counts a survived durable-output failure; the first message is kept.
  void note_storage_error(const std::string& what);

  /// Opens the journal at config.checkpoint_path (none when empty): fresh,
  /// header first, or after quarantine-compacting the journal `resumed`
  /// read. A StorageError leaves the run without one: counted, and
  /// journal_lost.
  void open_journal(const JournalReader* resumed = nullptr);
  /// Opens the metrics stream at config.metrics_stream_path (none when
  /// empty); size `workers` first, the header names them. A header that
  /// cannot land leaves the run streamless (counted), never failed:
  /// telemetry is advisory.
  void open_stream();
  /// Runs one journal write. A storage failure drops the journal (results
  /// stay in memory), is counted, and its message returned; "" on success.
  std::string append_journal(const std::function<void(JournalWriter&)>& write);
  /// Closes the journal and the stream; their destructors flush, so both
  /// files are complete documents from here on. No rig may be attached.
  void close_outputs();

  /// Marks `shard` in flight on worker slot `worker` and appends a wall
  /// sample.
  void claim(std::size_t worker, std::uint64_t shard);
  /// Books a finished shard: counters, result, timings, journal line, and
  /// the worker slot's status, then appends a wall sample. The journal
  /// write is timed as a checkpoint phase into `worker_profile`. Returns
  /// append_journal's message.
  std::string commit(std::size_t worker, std::uint64_t shard, ExecutedShard outcome,
                     profiling::Profile& worker_profile);
  /// Completes the run: sorts failures and timings, roots the span forest
  /// and sorts it canonically, appends the final stream sample, merges the
  /// counters into the aggregate sink, and closes both outputs.
  void finish();

  /// Runs every attempt at `shard` on `rig` (building it when empty): the
  /// shard/attempt spans into `sheet`, the cycles sampler, the transient
  /// (retry on a fresh rig) vs fatal (isolate now) split, and the rig_build
  /// and shard_run phases into `worker_profile`. `on_retry` sees the error
  /// that cost each retry. Called without `lock`.
  ExecutedShard execute(WorkerRig& rig, std::uint64_t shard, std::mutex& lock,
                        profiling::Profile& worker_profile, telemetry::SpanSheet& sheet,
                        const std::function<void(const std::string&)>& on_retry = {});
  /// Tears `rig` down, first absorbing its host profile, its telemetry
  /// sink and its fault-injector stats under `lock`. Called without it.
  void retire(WorkerRig& rig, std::mutex& lock);

private:
  void build(WorkerRig& rig);
  /// Appends the next wall sample to `stream`, if any: counter deltas since
  /// the previous one plus per-worker utilization.
  void append_wall_sample();

  const SweepSpec& spec_;
  CampaignConfig config_;
  HostFactory factory_;
  telemetry::Telemetry* aggregate_;
  JournalHeader header_;  ///< the sweep's identity, in both file headers
  std::unique_ptr<resilience::StorageFaultInjector> journal_injector_;
  std::unique_ptr<resilience::StorageFaultInjector> stream_injector_;
  std::unique_ptr<JournalWriter> journal_;
  std::unique_ptr<telemetry::MetricsStreamWriter> stream_;
  std::atomic<std::uint64_t> rig_serial_{0};
  telemetry::CounterValues last_wall_;  ///< counter values at the last wall sample
};

}  // namespace rh::campaign
