// Shared scaffolding for the figure/table bench harnesses.
//
// Every bench binary reproduces one artifact of the paper's evaluation and
// prints (a) the series the figure plots as an aligned table, (b) a compact
// ASCII rendering of the figure's shape, and (c) optional CSV via --csv.
// Flags shared by all benches:
//   --seed=N            device seed (default: the calibrated seed)
//   --stride=N          row-sampling stride (1 = the paper's full methodology)
//   --hammers=N         hammer count for BER tests (default 262144 = 256 K)
//   --csv=PATH          also write machine-readable CSV
//   --metrics-json=PATH write a telemetry metrics snapshot (counters, per-bank
//                       ACT heatmap, trace stats) as JSON
//   --trace=PATH        write the command trace as Chrome trace-event JSON
//                       (load in chrome://tracing or Perfetto)
//   --heatmap           print the per-bank ACT heatmap after the run
//   --report=PATH       write the campaign run report (phase profile, shard
//                       latencies, throughput, fault summary) as JSON; also
//                       forces a telemetry sink on so cmd.* counters exist
//                       (campaign-backed benches only)
// Campaign-backed benches (fig3/fig4/fig5, ablation_hammer_count) also take:
//   --jobs=N            worker threads, each with a private device clone;
//                       merged output is byte-identical for any N
//   --checkpoint=PATH   JSONL results journal written per completed shard
//   --resume            skip shards already in the --checkpoint journal
//                       (refuses a journal whose config hash mismatches)
//   --retries=N         shard retry budget for transient (infrastructure)
//                       failures; fatal errors are isolated immediately
//   --fault-rate=F      inject transport faults (upload timeout/drop, readback
//                       corrupt/short-read, executor stall) with probability F
//                       per opportunity; results stay byte-identical
//   --fault-seed=N      fault-plan seed (independent of the device seed)
//   --storage-fault-rate=F  inject disk faults (short write, fsync failure,
//                       bit corruption, torn line, ENOSPC) into the journal
//                       and metrics stream with probability F per write;
//                       results stay byte-identical, durability degrades
//   --storage-fault-seed=N  storage-fault-plan seed
//   --retry-attempts=N  per-host transport retry budget (RetryPolicy)
//   --engine=fast|interp         program engine for every worker host
//                                (default fast; results byte-identical)
//   --engine-bug=NAME            plant a fast-path bug (differential-rig
//                                sensitivity tests only; see common/engine.hpp)
//   --metrics-stream=PATH        live rh-metrics-stream/v1 JSONL (fsync'd per
//                                sample; follow with tools/rh_tail)
//   --stream-cycle-cadence=N     device cycles between per-worker samples
//                                (default 2^24, deterministic series)
//   --stream-wall-cadence-ms=F   wall ms between campaign-aggregate samples
//                                (default 200)
#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bender/host.hpp"
#include "campaign/campaign.hpp"
#include "common/cli.hpp"
#include "common/engine.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "fault/config.hpp"
#include "hbm/device.hpp"
#include "profiling/report.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::benchutil {

/// The paper's device: 4 GiB HBM2 stack, pair-swap row scrambling,
/// proprietary TRR with period 17, held at 85 degC.
inline hbm::DeviceConfig paper_device_config(std::uint64_t seed) {
  hbm::DeviceConfig config;
  config.fault.seed = seed;
  return config;
}

inline void warn_unqueried(const common::CliArgs& args) {
  for (const auto& flag : args.unqueried_flags()) {
    std::cerr << "warning: unknown flag --" << flag << " ignored\n";
  }
}

/// Prints the standard bench banner.
inline void banner(const std::string& artifact, const std::string& description) {
  std::cout << "==============================================================\n"
            << artifact << ": " << description << '\n'
            << "==============================================================\n";
}

/// The calibrated device seed (the fault model's default).
inline const std::uint64_t kDefaultSeed = fault::FaultConfig{}.seed;

/// Per-bench output lifecycle: reads --csv / --metrics-json / --trace /
/// --report / --heatmap up front (so an unwritable path fails before the
/// sweep, and warn_unqueried never flags them), attaches a Telemetry sink to
/// the host's device when any telemetry is requested, and writes the
/// requested outputs in write_csv() / write_report() / finish(). When no
/// telemetry flag is given no sink is constructed and the device keeps its
/// zero-overhead null path.
///
/// Campaign-backed benches pass sink() to the Campaign, which gives every
/// worker host a private sink and absorbs them all back into this session's
/// aggregate after the run — so the exported metrics/heatmap cover the whole
/// worker fleet, not just the main thread's host.
///
/// Usage:
///   TelemetrySession telem(args, host);   // right after constructing host
///   ... run the bench ...
///   telem.finish();                       // before process exit
class TelemetrySession {
public:
  /// Parses the flags only; call attach() for each host (population sweeps
  /// construct several devices; each feeds the same aggregating sink).
  explicit TelemetrySession(const common::CliArgs& args) {
    csv_path_ = args.get("csv", "");
    metrics_path_ = args.get("metrics-json", "");
    trace_path_ = args.get("trace", "");
    report_path_ = args.get("report", "");
    heatmap_ = args.has("heatmap");
    // Fail on unwritable paths now, not after a multi-minute run.
    probe_writable(csv_path_, "CSV");
    probe_writable(metrics_path_, "metrics");
    probe_writable(trace_path_, "trace");
    probe_writable(report_path_, "report");
    if (enabled()) {
      telemetry::TelemetryConfig config;
      config.trace_enabled = !trace_path_.empty();
      telemetry_ = std::make_unique<telemetry::Telemetry>(config);
    }
  }

  TelemetrySession(const common::CliArgs& args, bender::BenderHost& host)
      : TelemetrySession(args) {
    attach(host);
  }

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Attaches the sink to a host's device. The session must outlive every
  /// command issued on the host (declare it after the host in main()).
  void attach(bender::BenderHost& host) {
    if (telemetry_) host.set_telemetry(telemetry_.get());
  }

  [[nodiscard]] bool enabled() const {
    return !metrics_path_.empty() || !trace_path_.empty() || !report_path_.empty() || heatmap_;
  }
  [[nodiscard]] telemetry::Telemetry* sink() { return telemetry_.get(); }
  [[nodiscard]] const std::string& report_path() const { return report_path_; }

  /// Writes a table to the --csv path (no-op without the flag).
  void write_csv(const common::Table& table) const {
    if (csv_path_.empty()) return;
    std::ofstream out(csv_path_);
    if (!out) throw common::ConfigError("cannot open CSV output file: " + csv_path_);
    table.print_csv(out);
    std::cout << "(csv written to " << csv_path_ << ")\n";
  }

  /// Writes the --report document for a finished campaign (no-op without the
  /// flag). run_survey_campaign calls this; benches that drive a Campaign by
  /// hand call it themselves before finish().
  void write_report(const std::string& label, const campaign::SweepSpec& spec,
                    const campaign::Campaign& campaign, const campaign::CampaignResult& result) {
    if (report_path_.empty()) return;
    const profiling::RunReport report =
        campaign::build_report(label, spec, campaign, result, telemetry_.get());
    std::ofstream out(report_path_);
    if (!out) throw common::ConfigError("cannot open report output file: " + report_path_);
    profiling::write_report_json(out, report);
    out << '\n';
    std::cout << "(report written to " << report_path_ << ")\n";
  }

  /// Hands the session a finished campaign's span forest (copied): the
  /// --trace export then carries the campaign -> shard -> attempt -> phase
  /// tree alongside the command slices. run_survey_campaign calls this.
  void set_spans(const telemetry::SpanSheet& spans) {
    spans_.clear();
    spans_.merge_from(spans);
    have_spans_ = true;
  }

  /// Writes the requested artifacts and prints one status line per file.
  void finish() {
    if (!telemetry_) return;
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) throw common::ConfigError("cannot open metrics output file: " + metrics_path_);
      telemetry_->write_metrics_json(out);
      std::cout << "(metrics written to " << metrics_path_ << ")\n";
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) throw common::ConfigError("cannot open trace output file: " + trace_path_);
      telemetry_->write_chrome_trace(out, have_spans_ ? &spans_ : nullptr);
      std::cout << "(trace written to " << trace_path_ << ")\n";
    }
    if (heatmap_) telemetry_->render_act_heatmap(std::cout);
    if (const std::uint64_t dropped = telemetry_->trace_dropped_total(); dropped > 0) {
      std::cerr << "warning: " << dropped << " command-trace events dropped (ring capacity "
                << telemetry_->config().trace_capacity
                << "); the telemetry.trace_dropped counter carries the total\n";
    }
  }

private:
  static void probe_writable(const std::string& path, const char* what) {
    if (path.empty()) return;
    // Probe in append mode: a truncating open would destroy an existing
    // file here, before the run has produced anything to replace it with.
    std::ofstream out(path, std::ios::app);
    if (!out) {
      throw common::ConfigError(std::string("cannot open ") + what +
                                " output file: " + path);
    }
  }

  std::string csv_path_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string report_path_;
  bool heatmap_ = false;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  telemetry::SpanSheet spans_;
  bool have_spans_ = false;
};

/// Parses the shared campaign flags: --jobs=N, --checkpoint=PATH, --resume,
/// --retries=N (shard retry budget), plus the fault-injection knobs
/// --fault-rate=F (transport-fault probability per opportunity, in [0,1]),
/// --fault-seed=N (fault-plan seed, independent of the device seed), and
/// --retry-attempts=N (per-host transport retry budget). All numerics are
/// validated at the command line (CliError) rather than failing mid-sweep.
inline campaign::CampaignConfig campaign_config(const common::CliArgs& args) {
  campaign::CampaignConfig config;
  config.jobs = static_cast<unsigned>(args.get_positive_int("jobs", 1));
  config.checkpoint_path = args.get("checkpoint", "");
  config.resume = args.has("resume");
  config.retries = static_cast<unsigned>(args.get_positive_int("retries", 1));
  const double fault_rate = args.get_fraction("fault-rate", 0.0);
  if (fault_rate > 0.0) config.fault_plan.set_transport_rates(fault_rate);
  config.fault_plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0x57084));
  const double storage_fault_rate = args.get_fraction("storage-fault-rate", 0.0);
  if (storage_fault_rate > 0.0) config.storage_fault_plan.set_all_rates(storage_fault_rate);
  config.storage_fault_plan.seed =
      static_cast<std::uint64_t>(args.get_int("storage-fault-seed", 0x5709A));
  config.retry_policy.max_attempts =
      static_cast<unsigned>(args.get_positive_int("retry-attempts", 4));
  config.metrics_stream_path = args.get("metrics-stream", "");
  config.stream_cycle_cadence = static_cast<std::uint64_t>(
      args.get_positive_int("stream-cycle-cadence",
                            static_cast<std::int64_t>(config.stream_cycle_cadence)));
  config.stream_wall_cadence_ms =
      args.get_positive_double("stream-wall-cadence-ms", config.stream_wall_cadence_ms);
  config.engine = common::parse_engine_kind(args.get("engine", "fast"));
  config.engine_bug = common::parse_planted_bug(args.get("engine-bug", "none"));
  if (config.resume && config.checkpoint_path.empty()) {
    throw common::ConfigError("--resume requires --checkpoint=PATH");
  }
  return config;
}

/// Runs a SpatialSurvey row sweep as a sharded campaign: identical records
/// in identical order to SpatialSurvey::survey_rows() on one host, but
/// spread over --jobs worker devices with checkpoint/resume. Worker
/// telemetry is aggregated into `telem`'s sink.
inline std::vector<core::RowRecord> run_survey_campaign(const common::CliArgs& args,
                                                        std::uint64_t seed,
                                                        const core::SurveyConfig& survey,
                                                        TelemetrySession& telem,
                                                        const std::string& label = "survey") {
  const campaign::SweepSpec spec = campaign::survey_sweep(paper_device_config(seed), survey);
  campaign::Campaign campaign(campaign_config(args), telem.sink());
  const campaign::CampaignResult result = campaign.run(spec);
  telem.set_spans(campaign.spans());
  telem.write_report(label, spec, campaign, result);
  return result.flat();
}

}  // namespace rh::benchutil
