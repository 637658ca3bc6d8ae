#include "campaign/shard_runner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/row_map.hpp"
#include "core/shard.hpp"

namespace rh::campaign {

namespace {

// Per-shard end-to-end wall time (all attempts, incl. rig rebuilds). The
// name carries "wall_ms" on purpose: the deterministic report projection
// filters metrics by that suffix.
telemetry::FixedHistogram& shard_wall_histogram(telemetry::MetricsRegistry& metrics) {
  return metrics.histogram("campaign.shard_wall_ms", 0.0, 60000.0, 120);
}

}  // namespace

ShardRun::ShardRun(const SweepSpec& spec, CampaignConfig config, HostFactory factory,
                   telemetry::Telemetry* aggregate)
    : done(spec.shards.size(), 0),
      epoch(std::chrono::steady_clock::now()),
      spec_(spec),
      config_(std::move(config)),
      factory_(std::move(factory)),
      aggregate_(aggregate),
      header_{spec.device.fault.seed, sweep_config_hash(spec), spec.shards.size()} {
  config_.stream_cycle_cadence = std::max<std::uint64_t>(1, config_.stream_cycle_cadence);
  result.per_shard.resize(spec.shards.size());
  // The deterministic report serializes every registered metric and the
  // final stream sample every registered counter, zeros included.
  for (const char* name :
       {"campaign.shards_total", "campaign.shards_done", "campaign.shards_skipped",
        "campaign.shards_failed", "campaign.shards_retried", "campaign.shards_fatal",
        "campaign.records", "resilience.injected", "resilience.recovered",
        "resilience.aborted"}) {
    metrics.counter(name);
  }
  shard_wall_histogram(metrics);
  metrics.counter("campaign.shards_total").add(spec.shards.size());
}

void ShardRun::seed_storage_faults(std::uint64_t journal_seed, std::uint64_t stream_seed) {
  journal_injector_ = resilience::arm(config_.storage_fault_plan, journal_seed);
  stream_injector_ = resilience::arm(config_.storage_fault_plan, stream_seed);
}

void ShardRun::restore(std::uint64_t shard, std::vector<core::RowRecord> records) {
  metrics.counter("campaign.records").add(records.size());
  metrics.counter("campaign.shards_skipped").add();
  result.per_shard[shard] = std::move(records);
  done[shard] = 1;
  ++result.shards_skipped;
}

void ShardRun::restore(const JournalReader& reader) {
  reader.require_matches(header_);
  for (const auto& [index, records] : reader.shards()) {
    if (index < done.size()) restore(index, records);  // out-of-range lines are ignored
  }
}

std::size_t ShardRun::pending() const {
  return static_cast<std::size_t>(std::count(done.begin(), done.end(), char{0}));
}

void ShardRun::note_storage_error(const std::string& what) {
  ++result.storage_errors;
  if (result.storage_error.empty()) result.storage_error = what;
}

void ShardRun::open_journal(const JournalReader* resumed) {
  if (config_.checkpoint_path.empty()) return;
  try {
    journal_ = resumed != nullptr
                   ? std::make_unique<JournalWriter>(config_.checkpoint_path, *resumed,
                                                     journal_injector_.get())
                   : std::make_unique<JournalWriter>(config_.checkpoint_path, header_,
                                                     journal_injector_.get());
  } catch (const common::StorageError& e) {
    // Checkpointing is lost, the sweep still runs; a run that can never
    // be durable never claims it was.
    journal_lost = true;
    note_storage_error(e.what());
  }
}

void ShardRun::open_stream() {
  if (config_.metrics_stream_path.empty()) return;
  // Wall samples come at shard claims and commits, so the header's wall
  // cadence is 0.
  const telemetry::MetricsStreamHeader header{header_.seed, header_.config_hash,
                                              header_.shard_count,
                                              static_cast<unsigned>(workers.size()),
                                              config_.stream_cycle_cadence, 0.0};
  try {
    stream_ = std::make_unique<telemetry::MetricsStreamWriter>(
        config_.metrics_stream_path, header, stream_injector_.get());
  } catch (const common::StorageError& e) {
    note_storage_error(e.what());
  }
}

std::string ShardRun::append_journal(const std::function<void(JournalWriter&)>& write) {
  if (journal_ == nullptr) return "";
  try {
    write(*journal_);
  } catch (const common::StorageError& e) {
    // A storage failure is never worth a shard: drop the journal, remember
    // why, keep measuring.
    journal_.reset();
    journal_lost = true;
    note_storage_error(e.what());
    return e.what();
  }
  return "";
}

void ShardRun::close_outputs() {
  journal_.reset();
  stream_.reset();
}

void ShardRun::claim(std::size_t worker, std::uint64_t shard) {
  workers[worker].shard = static_cast<std::int64_t>(shard);
  workers[worker].claim = std::chrono::steady_clock::now();
  append_wall_sample();
}

std::string ShardRun::commit(std::size_t worker, std::uint64_t shard, ExecutedShard outcome,
                             profiling::Profile& worker_profile) {
  std::string dropped;
  if (outcome.fatal) metrics.counter("campaign.shards_fatal").add();
  if (outcome.ok) {
    dropped = append_journal([&](JournalWriter& j) {
      const profiling::LayerScope scope(worker_profile, profiling::Phase::kCheckpoint);
      j.append_shard(shard, outcome.records, outcome.wall_ms, outcome.attempts);
    });
    metrics.counter("campaign.records").add(outcome.records.size());
    result.per_shard[shard] = std::move(outcome.records);
    result.timings.push_back({shard, outcome.cycles, outcome.wall_ms, outcome.attempts,
                              telemetry::span_id(shard, 0, 0)});
    shard_wall_histogram(metrics).observe(outcome.wall_ms);
    ++result.shards_run;
    metrics.counter("campaign.shards_done").add();
  } else {
    dropped = append_journal(
        [&](JournalWriter& j) { j.append_failure(shard, outcome.attempts, outcome.error); });
    result.failures.push_back({shard, std::move(outcome.error)});
    metrics.counter("campaign.shards_failed").add();
  }
  WorkerStatus& status = workers[worker];
  status.busy_ms += ms_since(status.claim);
  ++status.done;
  status.shard = -1;
  done[shard] = 1;
  append_wall_sample();
  return dropped;
}

void ShardRun::append_wall_sample() {
  if (stream_ == nullptr) return;
  const telemetry::CounterValues now_values = telemetry::counter_values(metrics);
  telemetry::CounterValues deltas;
  for (const auto& [name, value] : now_values) {
    const auto it = last_wall_.find(name);
    const std::uint64_t before = it != last_wall_.end() ? it->second : 0;
    if (value > before) deltas[name] = value - before;
  }
  last_wall_ = now_values;
  std::vector<telemetry::StreamWorkerStatus> samples;
  samples.reserve(workers.size());
  const auto now = std::chrono::steady_clock::now();
  for (const WorkerStatus& s : workers) {
    telemetry::StreamWorkerStatus w;
    w.busy_ms = s.busy_ms;
    if (s.shard >= 0) {
      w.busy_ms += std::chrono::duration<double, std::milli>(now - s.claim).count();
    }
    w.done = s.done;
    w.shard = s.shard;
    samples.push_back(w);
  }
  stream_->append(telemetry::format_wall_sample(ms_since(epoch), deltas, samples));
}

void ShardRun::finish() {
  std::sort(result.failures.begin(), result.failures.end(),
            [](const ShardFailure& a, const ShardFailure& b) { return a.shard < b.shard; });
  // Workers push timings in completion order; shard order is the canonical
  // (and deterministic) presentation.
  std::sort(result.timings.begin(), result.timings.end(),
            [](const profiling::ShardTiming& a, const profiling::ShardTiming& b) {
              return a.shard < b.shard;
            });
  result.elapsed_wall_ms = ms_since(epoch);
  result.jobs = static_cast<unsigned>(std::max<std::size_t>(1, workers.size()));

  // Root the span forest and settle it into canonical order: the campaign
  // span's cycle extent is the fleet's total measurement cycles.
  telemetry::Span root;
  root.id = telemetry::kCampaignSpanId;
  root.parent = 0;
  root.kind = telemetry::Layer::kCampaign;
  for (const auto& t : result.timings) root.end_cycle += t.device_cycles;
  root.end_wall_ms = result.elapsed_wall_ms;
  spans.add(root);
  spans.sort_canonical();

  if (stream_ != nullptr) {
    stream_->append(telemetry::format_final_sample(
        ms_since(epoch), telemetry::counter_values(metrics),
        metrics.counter("campaign.shards_done").value(),
        metrics.counter("campaign.shards_failed").value(),
        metrics.counter("campaign.shards_skipped").value(),
        metrics.counter("campaign.shards_total").value()));
    // The stream going dark is advisory-telemetry loss: counted, never
    // grounds to fail the run.
    if (stream_->degraded()) note_storage_error(stream_->storage_error());
  }
  if (aggregate_ != nullptr) aggregate_->metrics().merge_from(metrics);
  close_outputs();
}

void ShardRun::build(WorkerRig& rig) {
  // The factory settles the host fault-free; the injector arms only the
  // measurement phase, so rig bring-up stays deterministic.
  rig.host = factory_(spec_);
  if (aggregate_ != nullptr) {
    rig.sink = std::make_unique<telemetry::Telemetry>(aggregate_->config());
    rig.host->set_telemetry(rig.sink.get());
  } else if (stream_ != nullptr) {
    // Streaming without an aggregate still needs a per-worker sink: the
    // cycles series samples its counters. Trace stays off (nothing will
    // export it) and the heatmap matches the device geometry.
    telemetry::TelemetryConfig tc;
    tc.trace_enabled = false;
    tc.channels = spec_.device.geometry.channels;
    tc.pseudo_channels = spec_.device.geometry.pseudo_channels_per_channel;
    tc.banks = spec_.device.geometry.banks_per_pseudo_channel;
    rig.sink = std::make_unique<telemetry::Telemetry>(tc);
    rig.host->set_telemetry(rig.sink.get());
  }
  // Each rig draws an independent, reproducible fault stream: the plan
  // describes the failure environment, the serial decorrelates rigs. An
  // unarmed rig keeps whatever schedule its factory attached.
  rig.injector = resilience::arm(
      config_.fault_plan,
      common::hash_coords(config_.fault_plan.seed, 0x819u, rig_serial_.fetch_add(1)));
  if (rig.injector != nullptr) rig.host->set_fault_injector(rig.injector.get());
  rig.host->set_engine(config_.engine, config_.engine_bug);
  rig.host->set_retry_policy(config_.retry_policy);
  rig.characterizer = std::make_unique<core::Characterizer>(
      *rig.host, core::RowMap::from_device(rig.host->device()), spec_.characterizer);
}

void ShardRun::retire(WorkerRig& rig, std::mutex& lock) {
  if (rig.host != nullptr || (rig.sink != nullptr && aggregate_ != nullptr) ||
      rig.injector != nullptr) {
    const std::lock_guard<std::mutex> guard(lock);
    // Host-level phases (upload/execute/drain/recover/thermal) fold into
    // the fleet profile when the rig retires, like its telemetry.
    if (rig.host != nullptr) profile.merge_from(rig.host->profile());
    if (rig.sink != nullptr && aggregate_ != nullptr) aggregate_->absorb(*rig.sink);
    if (rig.injector != nullptr) {
      const auto& stats = rig.injector->stats();
      metrics.counter("resilience.injected").add(stats.injected);
      metrics.counter("resilience.recovered").add(stats.recovered);
      metrics.counter("resilience.aborted").add(stats.aborted);
    }
  }
  rig = WorkerRig{};
}

ExecutedShard ShardRun::execute(WorkerRig& rig, std::uint64_t shard, std::mutex& lock,
                                profiling::Profile& worker_profile, telemetry::SpanSheet& sheet,
                                const std::function<void(const std::string&)>& on_retry) {
  // Nobody replaces the stream while a worker is executing, so one unlocked
  // read serves the whole shard.
  telemetry::MetricsStreamWriter* const writer = stream_.get();

  // The shard's span subtree: shard -> attempt(s) -> host layers. The
  // shard and attempt spans carry 0..cycles-consumed cycle stamps; host
  // layers (opened through the context by the host) carry the absolute
  // host clock. Either way end - begin is cycles consumed.
  telemetry::TraceContext ctx(sheet, shard, epoch);
  const std::uint64_t shard_span = ctx.open(telemetry::Layer::kShard, 0);
  ExecutedShard out;
  for (unsigned attempt = 0; attempt <= config_.retries && !out.ok && !out.fatal; ++attempt) {
    if (attempt > 0) {
      {
        const std::lock_guard<std::mutex> guard(lock);
        metrics.counter("campaign.shards_retried").add();
        ++result.shards_retried;
      }
      if (on_retry) on_retry(out.error);
    }
    ++out.attempts;
    ctx.set_attempt(attempt + 1);
    const std::uint64_t attempt_span = ctx.open(telemetry::Layer::kAttempt, 0);
    const auto attempt_start = std::chrono::steady_clock::now();
    double build_ms = 0.0;
    hbm::Cycle run_from = 0;
    bool running = false;
    std::unique_ptr<telemetry::MetricsSampler> sampler;
    try {
      if (rig.host == nullptr) {
        build(rig);
        build_ms = ms_since(attempt_start);
        // Bring-up cycles = the fresh host's clock (thermal settle).
        worker_profile.record(profiling::Phase::kRigBuild, rig.host->now(), build_ms);
      }
      rig.host->set_trace_context(&ctx);
      run_from = rig.host->now();
      if (writer != nullptr && rig.sink != nullptr) {
        // The cycles series is attempt-scoped: cycle stamps relative to
        // run_from, deltas relative to the previous sample, so the series
        // is a pure function of the shard, not of scheduling.
        sampler = std::make_unique<telemetry::MetricsSampler>(
            *writer, rig.sink->metrics(), config_.stream_cycle_cadence, shard, attempt + 1,
            run_from);
        rig.host->set_cycle_sampler(sampler.get());
      }
      running = true;
      out.records = core::run_shard(*rig.characterizer, spec_.shards[shard]);
      out.ok = true;
    } catch (const common::TransientError& e) {
      // Infrastructure gave out (transport budget exhausted, thermal
      // upset): worth a retry on a freshly built rig.
      out.error = e.what();
    } catch (const std::exception& e) {
      // Deterministic failure: a retry would replay the identical error,
      // so don't burn the budget; isolate the shard now.
      out.error = e.what();
      out.fatal = true;
    }
    const std::uint64_t run_cycles =
        (running && rig.host != nullptr) ? rig.host->now() - run_from : 0;
    if (rig.host != nullptr) {
      if (sampler != nullptr) sampler->finish(rig.host->now());
      rig.host->set_cycle_sampler(nullptr);
      rig.host->set_trace_context(nullptr);
    }
    ctx.close(attempt_span, run_cycles);
    const double attempt_ms = ms_since(attempt_start);
    worker_profile.record(profiling::Phase::kShardRun, run_cycles,
                          std::max(0.0, attempt_ms - build_ms));
    out.wall_ms += attempt_ms;
    out.cycles += run_cycles;
    if (!out.ok) retire(rig, lock);  // the host's state is suspect after a throw
  }
  ctx.close(shard_span, out.cycles);
  return out;
}

}  // namespace rh::campaign
