#include "campaign/campaign.hpp"

#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <mutex>

#include "campaign/journal.hpp"
#include "campaign/progress.hpp"
#include "campaign/record_io.hpp"
#include "campaign/rig_pool.hpp"
#include "campaign/shard_runner.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rh::campaign {

SweepSpec survey_sweep(hbm::DeviceConfig device, const core::SurveyConfig& survey,
                       std::uint32_t max_rows_per_shard) {
  SweepSpec spec;
  spec.shards = core::plan_survey_shards(survey, device.geometry, max_rows_per_shard);
  spec.device = std::move(device);
  spec.characterizer = survey.characterizer;
  return spec;
}

std::string sweep_fingerprint(const SweepSpec& spec) {
  const auto& g = spec.device.geometry;
  const auto& c = spec.characterizer;
  std::string fp = "v1;seed=" + std::to_string(spec.device.fault.seed);
  fp += ";geom=" + std::to_string(g.channels) + "," +
        std::to_string(g.pseudo_channels_per_channel) + "," +
        std::to_string(g.banks_per_pseudo_channel) + "," + std::to_string(g.rows_per_bank) +
        "," + std::to_string(g.columns_per_row) + "," + std::to_string(g.bytes_per_column) +
        "," + std::to_string(g.dies);
  fp += ";scramble=" + std::to_string(static_cast<int>(spec.device.scramble));
  fp += ";temp=" + format_double_exact(spec.temperature_c);
  fp += ";settle=" + std::to_string(spec.settle_thermal ? 1 : 0);
  fp += ";chr=" + std::to_string(c.ber_hammers) + "," + std::to_string(c.max_hammers) + "," +
        std::to_string(c.wcdp_tolerance) + "," + std::to_string(c.surround_rows) + "," +
        std::to_string(c.enforce_retention_bound ? 1 : 0) + "," +
        std::to_string(c.aggressor_on_time);
  fp += ";shards=" + std::to_string(spec.shards.size());
  for (const auto& s : spec.shards) {
    fp += ";" + std::to_string(s.index) + ":" + s.site.to_string() + ":" +
          std::to_string(s.row_begin) + "-" + std::to_string(s.row_end) + ":" +
          std::to_string(s.row_stride) + ":m" + std::to_string(static_cast<int>(s.mode)) +
          ":p" + std::to_string(s.pattern) + ":h" + std::to_string(s.hammers);
  }
  return fp;
}

std::uint64_t sweep_config_hash(const SweepSpec& spec) {
  return fnv1a(sweep_fingerprint(spec));
}

std::vector<core::RowRecord> CampaignResult::flat() const {
  std::vector<core::RowRecord> records;
  std::size_t total = 0;
  for (const auto& shard : per_shard) total += shard.size();
  records.reserve(total);
  for (const auto& shard : per_shard) {
    records.insert(records.end(), shard.begin(), shard.end());
  }
  return records;
}

std::unique_ptr<bender::BenderHost> make_default_host(const SweepSpec& spec) {
  auto host = std::make_unique<bender::BenderHost>(spec.device);
  if (spec.settle_thermal) {
    host->set_chip_temperature(spec.temperature_c);
  } else {
    host->device().set_temperature(spec.temperature_c);
  }
  return host;
}

Campaign::Campaign(CampaignConfig config, telemetry::Telemetry* aggregate)
    : config_(std::move(config)), aggregate_(aggregate), factory_(make_default_host) {}

Campaign::~Campaign() = default;

CampaignResult Campaign::run(const SweepSpec& spec) {
  const std::size_t n = spec.shards.size();
  for (std::size_t i = 0; i < n; ++i) {
    RH_EXPECTS(spec.shards[i].index == i);  // merge order is index order
  }
  const auto job = std::make_shared<PoolJob>();
  job->run = std::make_unique<ShardRun>(spec, config_, factory_, aggregate_);
  ShardRun& run = *job->run;
  // The journal and the stream draw independent, reproducible fault
  // streams decorrelated from the plan seed (and from the transport
  // injectors' 0x819 stream).
  run.seed_storage_faults(common::hash_coords(config_.storage_fault_plan.seed, 0x570u, 0),
                          common::hash_coords(config_.storage_fault_plan.seed, 0x570u, 1));

  // Resume: restore journaled shards, refusing (ConfigError) a journal
  // from a different sweep. Corrupt mid-file lines are quarantined (their
  // shards re-run); the compacted journal is then reopened for appending.
  if (config_.resume && !config_.checkpoint_path.empty()) {
    const JournalReader reader(config_.checkpoint_path);
    run.restore(reader);
    run.open_journal(&reader);
  } else {
    run.open_journal();
  }

  job->remaining = run.pending();
  unsigned jobs = std::max(1u, config_.jobs);
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(job->remaining, 1)));
  run.workers.resize(jobs);
  // Live metrics stream: header first (fsync'd, like the journal), then
  // per-worker cycles samples during shards, a wall sample at every claim
  // and commit, and exactly one final sample once the last rig retired.
  run.open_stream();

  ProgressMeter progress(config_.progress ? &std::cerr : nullptr,
                         run.metrics.counter("campaign.shards_total"),
                         run.metrics.counter("campaign.shards_done"),
                         run.metrics.counter("campaign.shards_skipped"),
                         run.metrics.counter("campaign.shards_failed"), jobs);

  // The sweep is one job on a pool of `jobs` rigs; run() waits for the
  // pool to finalize it. The pool destructs (joining the rigs) before the
  // condition variable its finalize hook signals.
  std::condition_variable finished;
  PoolHooks hooks;
  hooks.committed = [&](PoolJob&, std::uint64_t, bool, const std::string&) {
    progress.update();
  };
  hooks.finalize = [&](PoolJob&) { finished.notify_all(); };
  {
    RigPool pool(jobs, std::move(hooks));
    pool.start();
    pool.enqueue(job);
    std::unique_lock<std::mutex> lock(job->mutex);
    finished.wait(lock, [&] { return job->finalized; });
  }

  run.finish();
  progress.finish();
  // The run is kept for metrics(), profile() and spans(); its result moves
  // to the caller.
  CampaignResult result = std::move(run.result);
  run_ = std::move(job->run);

  if (config_.fail_on_shard_error && !result.failures.empty()) {
    std::string message = std::to_string(result.failures.size()) + " of " + std::to_string(n) +
                          " shards failed after " + std::to_string(config_.retries) +
                          " retr" + (config_.retries == 1 ? "y" : "ies");
    const std::size_t shown = std::min<std::size_t>(result.failures.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
      message += "; shard " + std::to_string(result.failures[i].shard) + ": " +
                 result.failures[i].what;
    }
    if (!config_.checkpoint_path.empty()) {
      message += "; completed shards are journaled in " + config_.checkpoint_path +
                 " (rerun with --resume to retry only the failed shards)";
    }
    throw CampaignError(message);
  }
  return result;
}

const telemetry::MetricsRegistry& Campaign::metrics() const { return last_run().metrics; }

const profiling::Profile& Campaign::profile() const { return last_run().profile; }

const telemetry::SpanSheet& Campaign::spans() const { return last_run().spans; }

const ShardRun& Campaign::last_run() const {
  RH_EXPECTS(run_ != nullptr);
  return *run_;
}

namespace {

profiling::RunReport join_report(const std::string& label, const SweepSpec& spec,
                                 const ShardRun& run, const CampaignResult& result,
                                 const telemetry::Telemetry* sink) {
  profiling::RunReport report;
  report.campaign = label;
  report.seed = spec.device.fault.seed;
  report.jobs = result.jobs;
  report.shards_total = spec.shards.size();
  report.shards_done = result.shards_run;
  report.shards_skipped = result.shards_skipped;
  report.shards_failed = result.failures.size();
  report.shards_retried = result.shards_retried;
  report.elapsed_wall_ms = result.elapsed_wall_ms;
  report.profile = run.profile;
  report.timings = result.timings;
  for (const auto& shard : result.per_shard) report.records += shard.size();
  report.spans_total = run.spans.spans().size();
  report.spans_dropped = run.spans.dropped();
  if (sink != nullptr) {
    // The aggregate sink already holds the campaign.* counters (finish()
    // merges them in) plus every worker's cmd.*/trr.*/flip.* observations;
    // its snapshot() also synthesizes telemetry.trace_dropped.
    report.metrics = sink->snapshot();
    report.trace = {sink->trace().total_recorded(),
                    static_cast<std::uint64_t>(sink->trace().size()),
                    sink->trace_dropped_total()};
  } else {
    report.metrics = run.metrics.snapshot();
  }
  report.shards_fatal =
      static_cast<std::uint64_t>(report.metrics.value_or("campaign.shards_fatal", 0.0));
  return report;
}

}  // namespace

profiling::RunReport build_report(const std::string& label, const SweepSpec& spec,
                                  const Campaign& campaign, const CampaignResult& result,
                                  const telemetry::Telemetry* sink) {
  return join_report(label, spec, campaign.last_run(), result, sink);
}

profiling::RunReport build_report(const std::string& label, const SweepSpec& spec,
                                  const ShardRun& run, const telemetry::Telemetry* sink) {
  return join_report(label, spec, run, run.result, sink);
}

}  // namespace rh::campaign
