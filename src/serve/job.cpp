#include "serve/job.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"
#include "profiling/report.hpp"
#include "resilience/storage.hpp"

namespace rh::serve {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobState job_state_from_string(const std::string& text) {
  if (text == "queued") return JobState::kQueued;
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "failed") return JobState::kFailed;
  if (text == "cancelled") return JobState::kCancelled;
  throw common::ConfigError("job descriptor: unknown state \"" + text + "\"");
}

void finalize_job(Job& job) {
  campaign::ShardRun& run = *job.run;
  run.finish();

  const profiling::RunReport report =
      campaign::build_report(job.config.label, job.spec, run, job.aggregate.get());
  const auto render = [&report](bool include_wall) {
    std::ostringstream os;
    profiling::write_report_json(os, report, include_wall);
    os << '\n';
    return os.str();
  };
  bool report_written = false;
  try {
    resilience::write_file_atomic(job.report_path, render(true), "job report",
                                  run.journal_injector());
    resilience::write_file_atomic(job.det_report_path, render(false), "job report",
                                  run.journal_injector());
    report_written = true;
  } catch (const common::Error& e) {
    // finalize runs on rig threads: a report that cannot land must degrade
    // the job, never unwind into the rig pool.
    run.note_storage_error(e.what());
  }

  const campaign::CampaignResult& result = run.result;
  if (!result.failures.empty()) {
    job.state = JobState::kFailed;
    job.error = std::to_string(result.failures.size()) + " of " +
                std::to_string(job.spec.shards.size()) + " shards failed; first: shard " +
                std::to_string(result.failures.front().shard) + ": " +
                result.failures.front().what;
  } else if (run.journal_lost || !report_written) {
    // The science completed but its durable record did not: a job whose
    // journal died or whose report never landed must not claim success.
    job.state = JobState::kFailed;
    job.error = "storage: " + (result.storage_error.empty() ? std::string("durable write failed")
                                                            : result.storage_error);
  } else {
    job.state = JobState::kDone;
  }
}

std::string job_status_json(Job& job) {
  const std::uint64_t total = job.spec.shards.size();
  const campaign::CampaignResult& result = job.run->result;
  const std::uint64_t completed = result.shards_run + result.shards_skipped;
  const bool cache_hit = total > 0 && job.shards_cached == total;
  std::string out = "{";
  out += "\"cache_hit\":";
  out += cache_hit ? "true" : "false";
  out += ",\"config_hash\":\"" + common::hash_hex(job.hash) + "\"";
  out += ",\"error\":\"" + telemetry::json_escape(job.error) + "\"";
  out += ",\"id\":" + std::to_string(job.id);
  out += ",\"kind\":\"" + job.config.kind + "\"";
  out += ",\"label\":\"" + telemetry::json_escape(job.config.label) + "\"";
  out += ",\"records\":" +
         std::to_string(static_cast<std::uint64_t>(
             job.run->metrics.counter("campaign.records").value()));
  out += ",\"shards\":{\"cached\":" + std::to_string(job.shards_cached);
  out += ",\"done\":" + std::to_string(completed);
  out += ",\"failed\":" + std::to_string(result.failures.size());
  out += ",\"remaining\":" + std::to_string(job.remaining);
  out += ",\"total\":" + std::to_string(total) + "}";
  out += ",\"state\":\"" + std::string(to_string(job.state)) + "\"";
  out += ",\"tenant\":\"" + telemetry::json_escape(job.tenant) + "\"";
  out += "}";
  return out;
}

std::string job_meta_json(Job& job) {
  std::string out = "{";
  out += "\"config\":" + to_canonical_json(job.config);
  out += ",\"config_hash\":\"" + common::hash_hex(job.hash) + "\"";
  out += ",\"error\":\"" + telemetry::json_escape(job.error) + "\"";
  out += ",\"id\":" + std::to_string(job.id);
  out += ",\"schema\":\"rh-serve-job/v1\"";
  out += ",\"shards_cached\":" + std::to_string(job.shards_cached);
  out += ",\"state\":\"" + std::string(to_string(job.state)) + "\"";
  out += ",\"tenant\":\"" + telemetry::json_escape(job.tenant) + "\"";
  out += "}";
  return out;
}

}  // namespace rh::serve
