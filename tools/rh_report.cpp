// rh_report: campaign profiling and post-mortem reporting.
//
// Two modes:
//   rh_report --journal=PATH
//       Offline: summarize a checkpoint journal (shards done/failed/retried,
//       wall-ms-per-shard percentiles from the journal's cost annotations)
//       without re-running anything — including the journal of a campaign
//       that was killed mid-run and the one a resume appended to.
//   rh_report [campaign flags]
//       Run a fig4-style HC_first sweep and print/write its run report (the
//       phase profile, shard latency percentiles, throughput, and fault
//       summary). Takes the standard campaign flags (--seed, --stride,
//       --hammers, --tolerance, --jobs, --checkpoint, --resume, --retries,
//       --fault-rate, --fault-seed, --retry-attempts) plus:
//         --label=NAME     campaign label in the report (default "fig4")
//         --report=PATH    JSON output path (default "report.json")
//         --deterministic  write the deterministic projection (no wall-ms,
//                          call counts, or gauges) — byte-identical for a
//                          fixed seed regardless of --jobs or machine
#include <fstream>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "campaign/journal.hpp"
#include "core/spatial.hpp"

using namespace rh;

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const std::string journal_path = args.get("journal", "");
    if (!journal_path.empty()) {
      args.reject_unqueried();
      const campaign::JournalReader reader(journal_path);
      campaign::render_journal_summary(std::cout, journal_path, reader);
      return 0;
    }

    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(benchutil::kDefaultSeed)));
    const std::string label = args.get("label", "fig4");
    const std::string report_path = args.get("report", "report.json");
    const bool deterministic = args.has("deterministic");

    core::SurveyConfig config;
    // Same sweep shape as bench/fig4, but strided sparser by default so a
    // report run finishes in seconds.
    config.row_stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 2048));
    config.characterizer.max_hammers =
        static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
    config.characterizer.ber_hammers = config.characterizer.max_hammers;
    config.characterizer.wcdp_tolerance =
        static_cast<std::uint64_t>(args.get_positive_int("tolerance", 512));

    const campaign::CampaignConfig run_config = benchutil::campaign_config(args);
    args.reject_unqueried();

    const campaign::SweepSpec spec =
        campaign::survey_sweep(benchutil::paper_device_config(seed), config);
    // The sink is always on here — the report's throughput axes come from
    // the fleet's cmd.* counters.
    telemetry::Telemetry sink;
    campaign::Campaign campaign(run_config, &sink);
    const campaign::CampaignResult result = campaign.run(spec);
    const profiling::RunReport report =
        campaign::build_report(label, spec, campaign, result, &sink);

    std::ofstream out(report_path);
    if (!out) throw common::ConfigError("cannot open report output file: " + report_path);
    profiling::write_report_json(out, report, !deterministic);
    out << '\n';

    profiling::render_report_text(std::cout, report);
    std::cout << "(report written to " << report_path << ")\n";
    return 0;
  });
}
