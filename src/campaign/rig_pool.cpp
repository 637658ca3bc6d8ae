#include "campaign/rig_pool.hpp"

#include <algorithm>

namespace rh::campaign {

RigPool::RigPool(unsigned rigs, PoolHooks hooks, PoolObserver* observer)
    : hooks_(std::move(hooks)), observer_(observer) {
  deques_.resize(std::max(1u, rigs));
  rig_stats_.resize(deques_.size());
}

RigPool::~RigPool() { stop(); }

void RigPool::start() {
  threads_.reserve(deques_.size());
  for (unsigned r = 0; r < deques_.size(); ++r) {
    threads_.emplace_back([this, r] { rig_loop(r); });
  }
}

void RigPool::enqueue(const std::shared_ptr<PoolJob>& job) {
  std::vector<std::uint64_t> pending;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    const std::vector<char>& done = job->run->done;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i] == 0) pending.push_back(i);
    }
  }
  if (pending.empty()) {
    // Fully restored: there is nothing for a rig to do, so the enqueue
    // itself completes the job.
    finalize_if_complete(job);
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t shard : pending) {
      deques_[next_deque_].push_back(Task{job, shard, now, /*stolen=*/false});
      next_deque_ = (next_deque_ + 1) % deques_.size();
    }
  }
  cv_.notify_all();
}

void RigPool::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
    // Queued work waits for the next start: each rig finishes only the
    // shard it holds, and the jobs stay active for a restart to resume.
    for (auto& dq : deques_) dq.clear();
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::size_t RigPool::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const auto& dq : deques_) depth += dq.size();
  return depth;
}

std::vector<RigPool::RigStatus> RigPool::rig_status() const {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RigStatus> out;
  out.reserve(rig_stats_.size());
  for (const RigStats& s : rig_stats_) {
    out.push_back(s);  // the RigStatus part, plus the in-flight task below
    if (s.shard >= 0) {
      out.back().busy_ms += std::chrono::duration<double, std::milli>(now - s.claim).count();
    }
  }
  return out;
}

bool RigPool::pop_task(unsigned rig_index, Task& task) {
  auto& own = deques_[rig_index];
  if (!own.empty()) {
    task = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of a peer's deque: the owner works the front, so
  // thief and owner only collide when one task is left.
  for (std::size_t k = 1; k < deques_.size(); ++k) {
    auto& victim = deques_[(rig_index + k) % deques_.size()];
    if (!victim.empty()) {
      task = std::move(victim.back());
      victim.pop_back();
      task.stolen = true;
      shards_stolen_.fetch_add(1);
      rig_stats_[rig_index].steals += 1;
      return true;
    }
  }
  return false;
}

void RigPool::rig_loop(unsigned rig_index) {
  Rig rig;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Task task;
    while (!pop_task(rig_index, task)) {
      if (stop_) {
        lock.unlock();
        retire(rig);
        return;
      }
      if (rig.job != nullptr) {
        // Going idle ends the attachment — the job must not wait for this
        // rig's next claim to fold in state and finalize.
        lock.unlock();
        retire(rig);
        lock.lock();
        continue;  // something may have been enqueued while retiring
      }
      cv_.wait(lock);
    }
    // Claim accounting while the pool lock is still held: the wait the task
    // just finished is the queue-wait (and, for a stolen task, also the
    // steal-wait — "how stale was the work the thief rescued").
    const auto claim = std::chrono::steady_clock::now();
    const double wait_ms =
        std::chrono::duration<double, std::milli>(claim - task.enqueued).count();
    rig_stats_[rig_index].shard = static_cast<std::int64_t>(task.shard);
    rig_stats_[rig_index].job = task.job;
    rig_stats_[rig_index].claim = claim;
    lock.unlock();
    if (observer_ != nullptr) {
      observer_->claimed(*task.job, rig_index, task.shard, wait_ms, task.stolen);
    }
    bool finished = false;
    if (!task.job->cancel.load(std::memory_order_relaxed)) {
      if (rig.job != task.job) {
        retire(rig);
        attach(rig, task.job);
      }
      finished = run_task(rig_index, rig, task);
    }
    lock.lock();
    rig_stats_[rig_index].busy_ms += ms_since(claim);
    rig_stats_[rig_index].done += 1;
    rig_stats_[rig_index].shard = -1;
    rig_stats_[rig_index].job = nullptr;
    if (finished) {
      // The last shard retires the rig at once, after its claim is booked:
      // finalize must not wait for this rig to go idle or switch jobs, and
      // what the finalize hooks read of rig_status() counts this shard.
      lock.unlock();
      retire(rig);
      lock.lock();
    }
  }
}

void RigPool::attach(Rig& rig, const std::shared_ptr<PoolJob>& job) {
  rig.job = job;
  rig.attached = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(job->mutex);
  ++job->rigs_attached;
}

void RigPool::retire(Rig& rig) {
  if (rig.job == nullptr) return;
  const std::shared_ptr<PoolJob> job = std::move(rig.job);
  ShardRun& run = *job->run;
  run.retire(rig.hardware, job->mutex);
  // Queue waits and scheduling gaps: whatever of the attachment no phase
  // claims.
  const double busy_ms = rig.profile.stat(profiling::Phase::kRigBuild).wall_ms +
                         rig.profile.stat(profiling::Phase::kShardRun).wall_ms +
                         rig.profile.stat(profiling::Phase::kCheckpoint).wall_ms;
  rig.profile.record(profiling::Phase::kIdle, 0,
                     std::max(0.0, ms_since(rig.attached) - busy_ms));
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    run.profile.merge_from(rig.profile);
    run.spans.merge_from(rig.sheet);
    --job->rigs_attached;
    if (job->rigs_attached == 0 && job->cancel.load(std::memory_order_relaxed) &&
        !job->finalized) {
      // Cancelled while rigs were in flight: the canceller left the writers
      // open (this rig's sampler may have been appending) — the last rig
      // out closes them, completing the on-disk record.
      run.close_outputs();
    }
  }
  rig = Rig{};
  finalize_if_complete(job);
}

void RigPool::finalize_if_complete(const std::shared_ptr<PoolJob>& job) {
  bool finalized_now = false;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->remaining == 0 && job->rigs_attached == 0 &&
        !job->cancel.load(std::memory_order_relaxed) && !job->finalized) {
      job->finalized = true;
      if (hooks_.finalize) hooks_.finalize(*job);
      finalized_now = true;
    }
  }
  if (finalized_now && hooks_.finalized) hooks_.finalized(job);
}

bool RigPool::run_task(unsigned rig_index, Rig& rig, const Task& task) {
  PoolJob& job = *task.job;
  ShardRun& run = *job.run;
  const std::uint64_t i = task.shard;
  {
    const std::lock_guard<std::mutex> lock(job.mutex);
    if (run.done[i] != 0 || job.cancel.load(std::memory_order_relaxed)) return false;
    run.claim(rig_index, i);
  }

  const auto on_retry = [&](const std::string& error) {
    if (observer_ != nullptr) observer_->retried(job, i, error);
  };
  ExecutedShard outcome =
      run.execute(rig.hardware, i, job.mutex, rig.profile, rig.sheet, on_retry);
  if (observer_ != nullptr) observer_->executed(outcome.wall_ms);

  const std::lock_guard<std::mutex> lock(job.mutex);
  const bool ok = outcome.ok;
  if (ok) shards_run_.fetch_add(1);
  // A journal that dies here must not unwind and kill the rig thread:
  // the run drops it, keeps results in memory and returns the reason.
  const std::string dropped = run.commit(rig_index, i, std::move(outcome), rig.profile);
  if (hooks_.committed) hooks_.committed(job, i, ok, dropped);
  return --job.remaining == 0;
}

}  // namespace rh::campaign
