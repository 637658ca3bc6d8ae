// The work-stealing rig pool both campaign runners use: Campaign::run
// submits its one sweep as one job on a pool of --jobs rigs, and the
// campaign service multiplexes every admitted job over one pool of --rigs.
// A rig is one host driving one board; the pool is the only place rigs
// are threads.
//
// Topology: one deque of (job, shard) tasks per rig under a single pool
// lock (a handful of rigs, millisecond-to-minute tasks — contention is
// nil; the deques exist for placement, not for lock-freedom). enqueue()
// deals a job's pending shards round-robin across the deques; a rig pops
// its own deque from the front and, when empty, steals from the back of a
// peer's, so one giant job spreads over all rigs yet a small job landing
// later still starts immediately on whichever rig frees up first.
//
// Execution of one task is ShardRun::claim, execute and commit on the
// job's run under the job's mutex — the one shard core, so both runners
// book a shard identically. A rig keeps its WorkerRig, profile and span
// sheet per *attachment*: the stretch of consecutive tasks it runs for one
// job. Switching jobs, going idle or stopping retires the attachment: the
// rig records what of the attachment no phase claimed as `idle`, then
// folds its host profile, telemetry sink, span sheet and fault-injector
// stats into the job's run under the job's mutex. A job finalizes when its
// last shard is committed AND its last rig has retired, so nothing is ever
// absorbed twice and nothing is missing.
//
// The pool knows nothing of who submitted a job. What the runners do
// around a shard (progress, the result cache, job state, report files)
// comes in through PoolHooks; the service's instrumentation through an
// optional PoolObserver.
//
// Drain: stop() drops the queued tasks under the pool lock, so each rig
// finishes (and journals) only the shard it holds, retires, and exits.
// The jobs stay active and unfinalized: queued work waits for the next
// start, which resumes each job from its journal.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/shard_runner.hpp"

namespace rh::campaign {

/// One job on the pool: a sweep run and the pool's bookkeeping for it.
/// Everything but `cancel` is guarded by `mutex`, which is also the run's
/// guard (see the locking note in shard_runner.hpp). The service's job
/// type derives from it.
struct PoolJob {
  std::unique_ptr<ShardRun> run;
  std::mutex mutex;
  std::size_t remaining = 0;   ///< shards not yet committed
  unsigned rigs_attached = 0;  ///< rigs currently holding this job's state
  bool finalized = false;      ///< set just before PoolHooks::finalize
  /// Stops the job: no further claims and no finalize; the last rig out
  /// closes the run's writers. An atomic flag, so a rig can check it
  /// without the lock.
  std::atomic<bool> cancel{false};
};

/// What the pool calls where the runners differ. Each may be empty.
struct PoolHooks {
  /// Under the job's mutex, right after ShardRun::commit booked `shard`:
  /// `ok` when it measured, `dropped` is commit's storage message.
  std::function<void(PoolJob&, std::uint64_t shard, bool ok, const std::string& dropped)>
      committed;
  /// Under the job's mutex, once: the last shard is committed, the last rig
  /// has retired, and `finalized` was just set.
  std::function<void(PoolJob&)> finalize;
  /// Outside every lock, right after `finalize`.
  std::function<void(const std::shared_ptr<PoolJob>&)> finalized;
};

/// The pool's scheduling events, for instrumentation. Called outside every
/// lock.
class PoolObserver {
public:
  virtual ~PoolObserver() = default;
  /// Rig `rig` took `shard` of `job` off a deque after `wait_ms` queued;
  /// `stolen` when it came off a peer's deque. Every popped task is
  /// claimed, a cancelled job's too.
  virtual void claimed(PoolJob& job, unsigned rig, std::uint64_t shard, double wait_ms,
                       bool stolen) = 0;
  /// An attempt at `shard` failed transiently with `error`; it runs again.
  virtual void retried(PoolJob& job, std::uint64_t shard, const std::string& error) = 0;
  /// Every attempt at a shard took `wall_ms` in all.
  virtual void executed(double wall_ms) = 0;
};

class RigPool {
public:
  /// One rig's lifetime accounting, as reported by /statz. `busy_ms`
  /// includes the in-flight task's elapsed time; `shard`/`job` describe the
  /// current claim (-1 and null when idle).
  struct RigStatus {
    double busy_ms = 0.0;
    std::uint64_t done = 0;
    std::uint64_t steals = 0;
    std::int64_t shard = -1;
    std::shared_ptr<const PoolJob> job;
  };

  /// `observer` may be null and must outlive the pool.
  RigPool(unsigned rigs, PoolHooks hooks, PoolObserver* observer = nullptr);
  ~RigPool();

  RigPool(const RigPool&) = delete;
  RigPool& operator=(const RigPool&) = delete;

  /// Starts the rig threads. Call once.
  void start();

  /// Queues every not-yet-done shard of `job`, whose run must be ready
  /// (writers open, restored shards marked done) and whose `remaining`
  /// counts the shards it queues. A job with nothing left to run is
  /// finalized inline, never queued.
  void enqueue(const std::shared_ptr<PoolJob>& job);

  /// Drain: drop every queued task, let each rig finish (and journal) the
  /// shard it holds, then join the rigs. Idempotent.
  void stop();

  /// Tasks queued but not yet claimed by a rig.
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] unsigned rigs() const { return static_cast<unsigned>(deques_.size()); }
  /// Shards measured (cache-served and restored shards never reach a rig).
  [[nodiscard]] std::uint64_t shards_run() const { return shards_run_.load(); }
  /// Shards a rig stole from a peer's deque.
  [[nodiscard]] std::uint64_t shards_stolen() const { return shards_stolen_.load(); }
  /// Per-rig accounting snapshot, one entry per rig in pool order.
  [[nodiscard]] std::vector<RigStatus> rig_status() const;

private:
  struct Task {
    std::shared_ptr<PoolJob> job;
    std::uint64_t shard = 0;
    /// When the task entered a deque — queue-wait is measured to the claim.
    std::chrono::steady_clock::time_point enqueued;
    bool stolen = false;  ///< set by pop_task when claimed from a peer
  };

  /// The mutable side of RigStatus (busy_ms without the in-flight task),
  /// guarded by the pool mutex_.
  struct RigStats : RigStatus {
    std::chrono::steady_clock::time_point claim;  ///< when `shard` was claimed
  };

  /// One rig's per-attachment state (see file comment).
  struct Rig {
    std::shared_ptr<PoolJob> job;  ///< current attachment, null when detached
    std::chrono::steady_clock::time_point attached;
    WorkerRig hardware;
    profiling::Profile profile;  ///< campaign-level phases this attachment
    telemetry::SpanSheet sheet;  ///< spans this attachment
  };

  void rig_loop(unsigned rig_index);
  bool pop_task(unsigned rig_index, Task& task);  ///< pool lock held
  void attach(Rig& rig, const std::shared_ptr<PoolJob>& job);
  void retire(Rig& rig);  ///< end the attachment; may finalize the job
  /// Runs one task; true when it committed the job's last shard.
  bool run_task(unsigned rig_index, Rig& rig, const Task& task);
  void finalize_if_complete(const std::shared_ptr<PoolJob>& job);

  PoolHooks hooks_;
  PoolObserver* observer_;
  std::atomic<std::uint64_t> shards_run_{0};
  std::atomic<std::uint64_t> shards_stolen_{0};

  mutable std::mutex mutex_;  ///< guards deques_ + stop_ + rig_stats_
  std::condition_variable cv_;
  std::vector<std::deque<Task>> deques_;
  std::vector<RigStats> rig_stats_;
  std::size_t next_deque_ = 0;  ///< round-robin dealing cursor
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rh::campaign
