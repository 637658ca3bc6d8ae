// Perf baseline: runs the canonical fig4-style campaign and emits one
// machine-readable throughput document (BENCH_campaign.json) that CI diffs
// against the committed baseline in bench/baselines/ via
// scripts/check_perf.py.
//
// The two tracked axes are the report's throughput numbers:
//   - commands_per_host_second      — interface commands the fleet simulated
//                                     per second of real host time,
//   - device_cycles_per_host_second — how much silicon time one lab second
//                                     buys.
// Everything else in the document (phase wall breakdown, records, commands)
// is context for reading a regression, not a gate.
//
// Flags: --seed, --stride (default 2048, the CI smoke sweep), --hammers,
//        --tolerance, --jobs (default 2), --engine=fast|interp (default
//        fast), --out=PATH (default BENCH_campaign.json).
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "core/spatial.hpp"
#include "profiling/report.hpp"

using namespace rh;

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(benchutil::kDefaultSeed)));
    const auto stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 2048));
    const std::string out_path = args.get("out", "BENCH_campaign.json");

    core::SurveyConfig config;
    config.row_stride = stride;
    config.characterizer.max_hammers =
        static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
    config.characterizer.ber_hammers = config.characterizer.max_hammers;
    config.characterizer.wcdp_tolerance =
        static_cast<std::uint64_t>(args.get_positive_int("tolerance", 512));

    campaign::CampaignConfig run_config;
    run_config.jobs = static_cast<unsigned>(args.get_positive_int("jobs", 2));
    run_config.engine = common::parse_engine_kind(args.get("engine", "fast"));
    args.reject_unqueried();

    benchutil::banner("perf baseline", "campaign throughput (fig4-style sweep)");
    const campaign::SweepSpec spec =
        campaign::survey_sweep(benchutil::paper_device_config(seed), config);
    // Throughput needs the fleet's cmd.* counters; the per-command trace
    // ring is pure overhead here (nothing exports it) and would tax the
    // measurement, so keep it off.
    telemetry::TelemetryConfig sink_config;
    sink_config.trace_enabled = false;
    telemetry::Telemetry sink(sink_config);
    campaign::Campaign campaign(run_config, &sink);
    const campaign::CampaignResult result = campaign.run(spec);
    const profiling::RunReport report =
        campaign::build_report("perf_baseline", spec, campaign, result, &sink);

    std::ofstream out(out_path);
    if (!out) throw common::ConfigError("cannot open baseline output file: " + out_path);
    profiling::write_perf_baseline_json(out, report, stride);

    std::cout << "commands/s:        " << common::fmt_double(report.commands_per_host_second(), 0)
              << '\n'
              << "device cycles/s:   "
              << common::fmt_double(report.device_cycles_per_host_second(), 0) << '\n'
              << "elapsed:           " << common::fmt_double(report.elapsed_wall_ms * 1e-3, 2)
              << " s on " << report.jobs << " workers\n"
              << "(baseline written to " << out_path << ")\n";
    return 0;
  });
}
