// The bench driver: the one front end of every figure and ablation bench.
//
// Every bench binary reproduces one artifact of the paper's evaluation and
// prints (a) the series the figure plots as an aligned table, (b) a compact
// ASCII rendering of the figure's shape, and (c) optional CSV via --csv.
//
// A bench main is one call, `return benchutil::run_bench(argc, argv,
// "Figure 6", "what it shows", bench_main);`: see run_bench and Bench. The
// body, bench_main(Bench&, const CliArgs&), reads its own flags from the
// args, then starts device work through the Bench, which rejects unknown
// flags before the first DRAM command.
//
// Flags every bench takes:
//   --seed=N            device seed (default: the calibrated seed)
//   --engine=fast|interp  program engine for every host and campaign worker
//                       (default fast; results byte-identical)
//   --engine-bug=NAME   plant a fast-path bug (differential-rig sensitivity
//                       tests only; see common/engine.hpp)
//   --csv=PATH          also write machine-readable CSV
//   --metrics-json=PATH write a telemetry metrics snapshot (counters, per-bank
//                       ACT heatmap, trace stats) as JSON
//   --trace=PATH        write the command trace as Chrome trace-event JSON
//                       (load in chrome://tracing or Perfetto)
//   --heatmap           print the per-bank ACT heatmap after the run
// Each bench adds its own knobs (e.g. --stride=N row-sampling stride, 1 =
// the paper's full methodology; --hammers=N, default 262144 = 256 K).
// Campaign-backed benches (fig3/fig4/fig5/fig6, ablation_hammer_count,
// ablation_fault_storm), and only they, also take:
//   --report=PATH       write the campaign run report (phase profile, shard
//                       latencies, throughput, fault summary) as JSON and
//                       print its text rendering; also forces a telemetry
//                       sink on so cmd.* counters exist
//   --deterministic     write the report's deterministic projection (no
//                       wall-ms, call counts or gauges): byte-identical for
//                       a fixed seed at any --jobs (requires --report)
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
//   --metrics-stream=PATH        live rh-metrics-stream/v1 JSONL (fsync'd per
//                                sample; follow with tools/rh_tail)
//   --stream-cycle-cadence=N     device cycles between per-worker samples
//                                (default 2^24, deterministic series); the
//                                campaign-aggregate wall samples come at
//                                every shard claim and commit
#pragma once

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

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

/// Prints the standard bench banner.
inline void banner(const std::string& artifact, const std::string& description) {
  std::cout << "==============================================================\n"
            << artifact << ": " << description << '\n'
            << "==============================================================\n";
}

/// The calibrated device seed (the fault model's default).
inline const std::uint64_t kDefaultSeed = fault::FaultConfig{}.seed;

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
  if (fault_rate > 0.0) config.fault_plan.set_storm_rates(fault_rate);
  config.fault_plan.seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0x57084));
  const double storage_fault_rate = args.get_fraction("storage-fault-rate", 0.0);
  if (storage_fault_rate > 0.0) config.storage_fault_plan.set_storm_rates(storage_fault_rate);
  config.storage_fault_plan.seed =
      static_cast<std::uint64_t>(args.get_int("storage-fault-seed", 0x5709A));
  config.retry_policy.max_attempts =
      static_cast<unsigned>(args.get_positive_int("retry-attempts", 4));
  config.metrics_stream_path = args.get("metrics-stream", "");
  config.stream_cycle_cadence = static_cast<std::uint64_t>(
      args.get_positive_int("stream-cycle-cadence",
                            static_cast<std::int64_t>(config.stream_cycle_cadence)));
  config.engine = common::parse_engine_kind(args.get("engine", "fast"));
  config.engine_bug = common::parse_planted_bug(args.get("engine-bug", "none"));
  if (config.resume && config.checkpoint_path.empty()) {
    throw common::ConfigError("--resume requires --checkpoint=PATH");
  }
  return config;
}

/// One bench run: the flags, the device seed, the only ways to start device
/// work (paper_chip() / chip() for a host, run_campaign() / campaign_run()
/// for a campaign; each rejects unknown flags first), and the output
/// session. Output paths are probed up front. A telemetry sink exists only
/// when --metrics-json, --trace, --heatmap or --report asks for one; every
/// host gets it, and a campaign absorbs its workers' sinks into it, so the
/// exported metrics and heatmap cover the whole fleet.
class Bench {
public:
  /// Reads --seed, --engine, --engine-bug and the output-session flags.
  explicit Bench(common::CliArgs& args)
      : args_(args),
        seed_(static_cast<std::uint64_t>(
            args.get_int("seed", static_cast<std::int64_t>(kDefaultSeed)))),
        engine_(common::parse_engine_kind(args.get("engine", "fast"))),
        engine_bug_(common::parse_planted_bug(args.get("engine-bug", "none"))),
        csv_path_(writable(args.get("csv", ""), "CSV")),
        metrics_path_(writable(args.get("metrics-json", ""), "metrics")),
        trace_path_(writable(args.get("trace", ""), "trace")),
        heatmap_(args.has("heatmap")) {
    if (!metrics_path_.empty() || !trace_path_.empty() || heatmap_) require_sink();
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Rejects unknown flags, then builds a paper chip of device seed `seed`
  /// on the --engine, with the sink attached. Nothing is settled: population
  /// sweeps pin each chip's temperature, and the thermal ablation drives the
  /// rig from its starting point.
  [[nodiscard]] std::unique_ptr<bender::BenderHost> chip(std::uint64_t seed) {
    args_.reject_unqueried();
    auto host = std::make_unique<bender::BenderHost>(paper_device_config(seed));
    host->set_engine(engine_, engine_bug_);
    if (sink_) host->set_telemetry(sink_.get());
    return host;
  }

  /// The paper chip under --seed, settled at 85 degC by the thermal rig:
  /// the operating point of every headline experiment. Built on first call.
  bender::BenderHost& paper_chip() {
    if (!paper_chip_) {
      paper_chip_ = chip(seed_);
      paper_chip_->set_chip_temperature(85.0);
    }
    return *paper_chip_;
  }

  /// Reads the campaign flags (benchutil::campaign_config), --report and
  /// --deterministic, the last flags a campaign bench reads, then rejects
  /// unknown flags.
  const campaign::CampaignConfig& campaign_config() {
    if (!campaign_config_) {
      campaign_config_ = benchutil::campaign_config(args_);
      report_path_ = writable(args_.get("report", ""), "report");
      deterministic_ = args_.has("deterministic");
      if (!report_path_.empty()) require_sink();
      args_.reject_unqueried();
      if (deterministic_ && report_path_.empty()) {
        throw common::ConfigError("--deterministic requires --report=PATH");
      }
    }
    return *campaign_config_;
  }

  /// Rejects unknown flags, then runs `spec` as a campaign under `config`
  /// with the sink. The finished campaign (its counters, and the span
  /// forest the --trace export carries) stays readable as last_campaign()
  /// until the next run.
  campaign::CampaignResult campaign_run(const campaign::SweepSpec& spec,
                                        const campaign::CampaignConfig& config) {
    args_.reject_unqueried();
    campaign_ = std::make_unique<campaign::Campaign>(config, sink_.get());
    return campaign_->run(spec);
  }
  [[nodiscard]] const campaign::Campaign& last_campaign() const { return *campaign_; }

  /// Writes the --report document (its deterministic projection under
  /// --deterministic) for the last campaign run, which gave `result`, and
  /// prints the report's text rendering (no-op without the flag).
  void write_report(const std::string& label, const campaign::SweepSpec& spec,
                    const campaign::CampaignResult& result) const {
    if (report_path_.empty()) return;
    const profiling::RunReport report =
        campaign::build_report(label, spec, *campaign_, result, sink_.get());
    std::ofstream out(report_path_);
    if (!out) throw common::ConfigError("cannot open report output file: " + report_path_);
    profiling::write_report_json(out, report, !deterministic_);
    out << '\n';
    profiling::render_report_text(std::cout, report);
    std::cout << "(report written to " << report_path_ << ")\n";
  }

  /// The campaign path: `spec` under the campaign flags, reported to
  /// --report under `label`.
  campaign::CampaignResult run_campaign(const std::string& label,
                                        const campaign::SweepSpec& spec) {
    campaign::CampaignResult result = campaign_run(spec, campaign_config());
    write_report(label, spec, result);
    return result;
  }

  /// Prints `table` and writes it to --csv.
  void print_table(const common::Table& table) const {
    table.print(std::cout);
    write_csv(table);
  }

  /// Writes `table` to --csv (no-op without the flag).
  void write_csv(const common::Table& table) const {
    if (csv_path_.empty()) return;
    std::ofstream out(csv_path_);
    if (!out) throw common::ConfigError("cannot open CSV output file: " + csv_path_);
    table.print_csv(out);
    std::cout << "(csv written to " << csv_path_ << ")\n";
  }

  /// Writes --metrics-json and --trace, prints --heatmap, one status line
  /// per file. run_bench calls it after the body.
  void finish() const {
    if (!sink_) return;
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) throw common::ConfigError("cannot open metrics output file: " + metrics_path_);
      sink_->write_metrics_json(out);
      std::cout << "(metrics written to " << metrics_path_ << ")\n";
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) throw common::ConfigError("cannot open trace output file: " + trace_path_);
      sink_->write_chrome_trace(out, campaign_ ? &campaign_->spans() : nullptr);
      std::cout << "(trace written to " << trace_path_ << ")\n";
    }
    if (heatmap_) sink_->render_act_heatmap(std::cout);
    if (const std::uint64_t dropped = sink_->trace_dropped_total(); dropped > 0) {
      std::cerr << "warning: " << dropped << " command-trace events dropped (ring capacity "
                << sink_->config().trace_capacity
                << "); the telemetry.trace_dropped counter carries the total\n";
    }
  }

private:
  /// Returns `path` once it is known to be writable ("" passes): an
  /// unwritable output fails now, not after a multi-minute run.
  static std::string writable(std::string path, const char* what) {
    if (path.empty()) return path;
    // Probe in append mode: a truncating open would destroy an existing
    // file here, before the run has produced anything to replace it with.
    // A file the probe creates goes again at once, so a run rejected later
    // (an unknown flag, say) leaves no empty output behind.
    std::error_code ec;
    const bool existed = std::filesystem::exists(std::filesystem::symlink_status(path, ec));
    if (!std::ofstream(path, std::ios::app)) {
      throw common::ConfigError(std::string("cannot open ") + what + " output file: " + path);
    }
    if (!existed) std::filesystem::remove(path, ec);
    return path;
  }

  /// Creates the sink if no flag has yet; hosts built earlier lack it.
  void require_sink() {
    if (sink_) return;
    telemetry::TelemetryConfig config;
    config.trace_enabled = !trace_path_.empty();
    sink_ = std::make_unique<telemetry::Telemetry>(config);
  }

  common::CliArgs& args_;
  std::uint64_t seed_;
  common::EngineKind engine_;
  common::PlantedBug engine_bug_;
  std::string csv_path_;
  std::string metrics_path_;
  std::string trace_path_;
  bool heatmap_;
  std::string report_path_;
  bool deterministic_ = false;
  std::optional<campaign::CampaignConfig> campaign_config_;
  std::unique_ptr<telemetry::Telemetry> sink_;
  std::unique_ptr<campaign::Campaign> campaign_;     // after sink_: destroyed first
  std::unique_ptr<bender::BenderHost> paper_chip_;  // ditto
};

/// The entry point of every figure and ablation bench: prints the banner,
/// builds the Bench (reading --seed and the output-session flags), runs
/// `body(bench, args)`, writes the outputs and returns the body's exit
/// status. Errors exit 1 with "<bench>: <message>" (common::run_main).
inline int run_bench(int argc, char** argv, const std::string& artifact,
                     const std::string& description,
                     const std::function<int(Bench&, const common::CliArgs&)>& body) {
  return common::run_main(argc, argv, [&](common::CliArgs& args) {
    banner(artifact, description);
    Bench bench(args);
    const int status = body(bench, args);
    bench.finish();
    return status;
  });
}

}  // namespace rh::benchutil
