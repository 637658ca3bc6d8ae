// Fault-storm ablation: runs the same fig4-style HC_first survey twice —
// once fault-free, once under an infrastructure fault storm (every
// transport fault kind armed at --fault-rate) — and asserts the merged
// measurement tables are byte-identical.
//
// This is the end-to-end proof of the resilience plane's contract: every
// transport recovery (upload retry, CRC re-drain, doorbell re-arm) is
// charged to host wall-clock only, so a lossy PCIe link changes how long
// the campaign takes, never what it measures. Exit code 0 means zero
// silent corruptions and zero divergent records; any mismatch exits 1.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "campaign/record_io.hpp"
#include "core/spatial.hpp"

using namespace rh;

namespace {

std::string serialize(const std::vector<core::RowRecord>& records) {
  std::string out;
  for (const auto& record : records) campaign::append_row_record_json(out, record);
  return out;
}

int bench_main(benchutil::Bench& bench, const common::CliArgs& args) {
  const double fault_rate = args.get_fraction("fault-rate", 0.05);
  core::SurveyConfig survey;
  survey.row_stride = static_cast<std::uint32_t>(args.get_positive_int("stride", 2048));
  survey.characterizer.max_hammers =
      static_cast<std::uint64_t>(args.get_positive_int("hammers", 262144));
  survey.characterizer.ber_hammers = survey.characterizer.max_hammers;
  survey.characterizer.wcdp_tolerance =
      static_cast<std::uint64_t>(args.get_positive_int("tolerance", 512));
  const campaign::SweepSpec spec =
      campaign::survey_sweep(benchutil::paper_device_config(bench.seed()), survey);

  campaign::CampaignConfig config = bench.campaign_config();

  // Baseline: same spec, same jobs, no injector.
  campaign::CampaignConfig baseline_config = config;
  baseline_config.fault_plan = resilience::FaultPlan{};
  std::cout << "baseline sweep (fault-free, " << spec.shards.size() << " shards, --jobs="
            << config.jobs << ") ...\n";
  const std::string baseline_records =
      serialize(bench.campaign_run(spec, baseline_config).flat());

  // Storm: every transport fault armed at --fault-rate; --report describes
  // this run.
  config.fault_plan.set_storm_rates(fault_rate);
  std::cout << "storm sweep   (transport fault rate " << fault_rate << " per opportunity) ...\n";
  const campaign::CampaignResult storm = bench.campaign_run(spec, config);
  bench.write_report("fault_storm", spec, storm);
  const std::string storm_records = serialize(storm.flat());

  const auto snapshot = bench.last_campaign().metrics().snapshot();
  common::Table table({"counter", "value"});
  for (const char* name : {"resilience.injected", "resilience.recovered",
                           "resilience.aborted", "campaign.shards_retried",
                           "campaign.shards_fatal", "campaign.records"}) {
    table.add_row({name, common::fmt_double(snapshot.value_or(name, 0.0), 0)});
  }
  bench.print_table(table);

  const auto injected = static_cast<std::uint64_t>(snapshot.value_or("resilience.injected", 0.0));
  if (fault_rate > 0.0 && injected == 0) {
    std::cout << "\nFAIL: the storm injected no faults — the rate plumbing is broken\n";
    return 1;
  }
  if (storm_records != baseline_records) {
    std::cout << "\nFAIL: storm results diverge from the fault-free baseline ("
              << storm_records.size() << " vs " << baseline_records.size() << " bytes)\n";
    return 1;
  }
  std::cout << "\nPASS: " << injected << " injected transport faults, "
            << baseline_records.size()
            << " bytes of merged records byte-identical to the fault-free run\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return benchutil::run_bench(argc, argv, "Fault storm",
                              "survey under transport-fault injection vs fault-free baseline",
                              bench_main);
}
