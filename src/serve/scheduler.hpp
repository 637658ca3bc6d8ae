// The work-stealing rig pool: a fixed set of simulated rigs multiplexed
// over every admitted job's shards.
//
// Topology: one deque of (job, shard) tasks per rig under a single pool
// lock (a handful of rigs, millisecond-to-minute tasks — contention is
// nil; the deques exist for placement, not for lock-freedom). enqueue()
// deals a job's pending shards round-robin across the deques; a rig pops
// its own deque from the front and, when empty, steals from the back of a
// peer's, so one giant job spreads over all rigs yet a small job landing
// later still starts immediately on whichever rig frees up first.
//
// Execution of one task is campaign::ShardRun::execute + commit, the same
// shard core Campaign::run drives, on the job's run state under the job's
// mutex; the scheduler adds only the serve work around it (claim, result
// cache insert, flight-recorder retry and storage events, serve.*
// histograms, and the job's remaining count). Where Campaign keeps a
// worker's rig, profile and span sheet for the lifetime of one run, a rig
// keeps them per *attachment*: the stretch of consecutive tasks it runs
// for one job. Switching jobs (or going idle) retires the attachment,
// folding the rig's host profile, telemetry sink, span sheet, and
// fault-injector stats into the job's run under the job's mutex. A job
// finalizes when its last shard has completed AND its last rig has
// retired, so nothing is ever absorbed twice and nothing is missing.
//
// Drain: stop() lets in-flight tasks finish (and journal), then joins the
// rig threads. Unfinished jobs keep their journals; restart recovery
// re-enqueues exactly the missing shards.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/shard_runner.hpp"
#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "serve/observe.hpp"

namespace rh::serve {

class Scheduler {
public:
  struct Options {
    unsigned rigs = 2;       ///< pool size (worker threads / simulated rigs)
    /// Optional service observability hooks (owned by the server, must
    /// outlive the scheduler). When set, the pool observes queue-wait,
    /// steal-wait, and shard-execution histograms and records steal /
    /// retry / storage-error events in the flight recorder.
    ServiceMetrics* metrics = nullptr;
    FlightRecorder* flightrec = nullptr;
  };

  /// One rig's lifetime accounting, as reported by /statz. `busy_ms`
  /// includes the in-flight task's elapsed time; `shard`/`job` describe the
  /// current claim (-1/0 when idle).
  struct RigStatus {
    double busy_ms = 0.0;
    std::uint64_t done = 0;
    std::uint64_t steals = 0;
    std::int64_t shard = -1;
    std::uint64_t job = 0;
  };

  Scheduler(Options options, ResultCache& cache);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Fires (outside every lock) each time a job reaches a terminal state.
  void set_on_finalized(std::function<void(const std::shared_ptr<Job>&)> cb);

  /// Starts the rig threads. Call once, before the first enqueue.
  void start();

  /// Queues every not-yet-done shard of `job`. The job must already be
  /// prepared (journal/stream writers open, counters registered, cached
  /// shards marked done). A job whose shards are all done is finalized
  /// inline, never queued.
  void enqueue(const std::shared_ptr<Job>& job);

  /// Graceful drain: finish (and journal) in-flight tasks, then stop.
  /// Queued-but-unstarted tasks are abandoned (their jobs resume on
  /// restart). Idempotent.
  void stop();

  /// Tasks queued but not yet claimed by a rig.
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] unsigned rigs() const { return options_.rigs; }
  /// Shards actually simulated (cache-served shards never reach a rig).
  [[nodiscard]] std::uint64_t shards_run() const { return shards_run_.load(); }
  /// Shards a rig stole from a peer's deque.
  [[nodiscard]] std::uint64_t shards_stolen() const { return shards_stolen_.load(); }
  /// Per-rig accounting snapshot, one entry per rig in pool order.
  [[nodiscard]] std::vector<RigStatus> rig_status() const;

private:
  struct Task {
    std::shared_ptr<Job> job;
    std::uint64_t shard = 0;
    /// When the task entered a deque — queue-wait is measured to the claim.
    std::chrono::steady_clock::time_point enqueued;
    bool stolen = false;  ///< set by pop_task when claimed from a peer
  };

  /// The mutable side of RigStatus (busy_ms without the in-flight task),
  /// guarded by the pool mutex_ (updated at the claim/completion points
  /// where rig_loop already holds it).
  struct RigStats : RigStatus {
    std::chrono::steady_clock::time_point claim;  ///< when `shard` was claimed
  };

  /// One rig's per-attachment state (see file comment).
  struct Rig {
    std::shared_ptr<Job> job;  ///< current attachment, null when detached
    campaign::WorkerRig hardware;
    profiling::Profile profile;   ///< campaign-level phases this attachment
    telemetry::SpanSheet sheet;   ///< spans this attachment
  };

  void rig_loop(unsigned rig_index);
  bool pop_task(unsigned rig_index, Task& task);  ///< pool lock held
  void attach(Rig& rig, const std::shared_ptr<Job>& job);
  void retire(Rig& rig);          ///< end the attachment; may finalize the job
  void run_task(unsigned rig_index, Rig& rig, const Task& task);
  void finalize_if_complete(const std::shared_ptr<Job>& job);

  Options options_;
  ResultCache& cache_;
  std::atomic<std::uint64_t> shards_run_{0};
  std::atomic<std::uint64_t> shards_stolen_{0};
  std::function<void(const std::shared_ptr<Job>&)> on_finalized_;

  mutable std::mutex mutex_;  ///< guards deques_ + stop_ + rig_stats_
  std::condition_variable cv_;
  std::vector<std::deque<Task>> deques_;
  std::vector<RigStats> rig_stats_;
  std::size_t next_deque_ = 0;  ///< round-robin dealing cursor
  bool stop_ = false;
  std::vector<std::thread> rigs_;
};

}  // namespace rh::serve
