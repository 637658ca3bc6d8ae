#include "serve/scheduler.hpp"

#include <algorithm>

namespace rh::serve {

Scheduler::Scheduler(Options options, ResultCache& cache)
    : options_(std::move(options)), cache_(cache) {
  options_.rigs = std::max(1u, options_.rigs);
  deques_.resize(options_.rigs);
  rig_stats_.resize(options_.rigs);
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::set_on_finalized(std::function<void(const std::shared_ptr<Job>&)> cb) {
  on_finalized_ = std::move(cb);
}

void Scheduler::start() {
  rigs_.reserve(options_.rigs);
  for (unsigned r = 0; r < options_.rigs; ++r) {
    rigs_.emplace_back([this, r] { rig_loop(r); });
  }
}

void Scheduler::enqueue(const std::shared_ptr<Job>& job) {
  std::vector<std::uint64_t> pending;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    const std::vector<char>& done = job->run->done;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i] == 0) pending.push_back(i);
    }
  }
  if (pending.empty()) {
    // Fully cache-served (or resumed complete): there is nothing for a rig
    // to do, so the enqueue itself completes the job.
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

void Scheduler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : rigs_) t.join();
  rigs_.clear();
}

std::size_t Scheduler::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t depth = 0;
  for (const auto& dq : deques_) depth += dq.size();
  return depth;
}

std::vector<Scheduler::RigStatus> Scheduler::rig_status() const {
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

bool Scheduler::pop_task(unsigned rig_index, Task& task) {
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

void Scheduler::rig_loop(unsigned rig_index) {
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
    rig_stats_[rig_index].job = task.job->id;
    rig_stats_[rig_index].claim = claim;
    lock.unlock();
    if (options_.metrics != nullptr) {
      options_.metrics->observe("serve.queue_wait_ms", wait_ms);
      if (task.stolen) options_.metrics->observe("serve.steal_wait_ms", wait_ms);
    }
    if (task.stolen && options_.flightrec != nullptr) {
      options_.flightrec->record(ServiceEventKind::kSteal, task.job->id, task.job->tenant,
                                 "rig " + std::to_string(rig_index) + " stole shard " +
                                     std::to_string(task.shard));
    }
    if (!task.job->cancel.load(std::memory_order_relaxed)) {
      if (rig.job != task.job) {
        retire(rig);
        attach(rig, task.job);
      }
      run_task(rig_index, rig, task);
    }
    lock.lock();
    rig_stats_[rig_index].busy_ms +=
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - claim)
            .count();
    rig_stats_[rig_index].done += 1;
    rig_stats_[rig_index].shard = -1;
    rig_stats_[rig_index].job = 0;
  }
}

void Scheduler::attach(Rig& rig, const std::shared_ptr<Job>& job) {
  rig.job = job;
  const std::lock_guard<std::mutex> lock(job->mutex);
  ++job->rigs_attached;
}

void Scheduler::retire(Rig& rig) {
  if (rig.job == nullptr) return;
  const std::shared_ptr<Job> job = std::move(rig.job);
  campaign::ShardRun& run = *job->run;
  run.retire(rig.hardware, job->mutex);
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    run.profile.merge_from(rig.profile);
    run.spans.merge_from(rig.sheet);
    --job->rigs_attached;
    if (job->rigs_attached == 0 && !job_state_active(job->state) && !job->finalized) {
      // Cancelled while rigs were in flight: cancel_job left the writers
      // open (this rig's sampler may have been appending) — the last rig
      // out closes them, completing the on-disk record.
      run.journal.reset();
      run.stream.reset();
    }
  }
  rig = Rig{};
  finalize_if_complete(job);
}

void Scheduler::finalize_if_complete(const std::shared_ptr<Job>& job) {
  bool finalized_now = false;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (job->remaining == 0 && job->rigs_attached == 0 && job_state_active(job->state) &&
        !job->finalized) {
      finalize_job(*job);
      finalized_now = true;
    }
  }
  if (finalized_now && on_finalized_) on_finalized_(job);
}

void Scheduler::run_task(unsigned rig_index, Rig& rig, const Task& task) {
  Job& job = *task.job;
  campaign::ShardRun& run = *job.run;
  const std::uint64_t i = task.shard;
  {
    const std::lock_guard<std::mutex> lock(job.mutex);
    if (run.done[i] != 0 || !job_state_active(job.state)) return;
    job.state = JobState::kRunning;
    run.claim(rig_index, i);
  }

  const auto on_retry = [&](const std::string& error) {
    if (options_.flightrec != nullptr) {
      options_.flightrec->record(ServiceEventKind::kRetry, job.id, job.tenant,
                                 "shard " + std::to_string(i) + ": " + error);
    }
  };
  campaign::ExecutedShard outcome =
      run.execute(rig.hardware, i, job.mutex, rig.profile, rig.sheet, on_retry);
  if (options_.metrics != nullptr) {
    options_.metrics->observe("serve.shard_exec_ms", outcome.wall_ms);
  }

  bool finished = false;
  {
    const std::lock_guard<std::mutex> lock(job.mutex);
    if (outcome.ok) {
      cache_.insert(shard_cache_key(job.cache_prefix, job.spec.shards[i]), outcome.records);
      shards_run_.fetch_add(1);
    }
    // A journal that dies here must not unwind and kill the rig thread:
    // the run drops it and keeps results in memory, and finalize marks the
    // job failed with the storage reason.
    const std::string dropped = run.commit(rig_index, i, std::move(outcome), rig.profile);
    if (!dropped.empty() && options_.flightrec != nullptr) {
      options_.flightrec->record(ServiceEventKind::kStorageError, job.id, job.tenant, dropped);
    }
    --job.remaining;
    finished = job.remaining == 0;
    // Wall samples come at shard completions here, not on a timer.
    if (run.stream != nullptr) run.stream->append(run.wall_sample());
  }
  // The last shard retires the rig immediately: finalize must not wait for
  // this rig to go idle or switch jobs.
  if (finished) retire(rig);
}

}  // namespace rh::serve
