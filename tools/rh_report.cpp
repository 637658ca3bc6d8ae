// rh_report: post-mortem summary of a campaign's checkpoint journal.
//
//   rh_report --journal=PATH
//
// Offline: summarizes the journal (shards done/failed/retried,
// wall-ms-per-shard percentiles from the journal's cost annotations)
// without re-running anything — including the journal of a campaign that
// was killed mid-run and the one a resume appended to. A campaign's run
// report comes from the run itself: every campaign bench takes
// --report=PATH (and --deterministic for the projection), and prints the
// report's text rendering too.
#include <iostream>
#include <string>

#include "campaign/journal.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

using namespace rh;

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const std::string journal_path = args.get("journal", "");
    args.reject_unqueried();
    if (journal_path.empty()) throw common::ConfigError("rh_report needs --journal=PATH");
    const campaign::JournalReader reader(journal_path);
    campaign::render_journal_summary(std::cout, journal_path, reader);
    return 0;
  });
}
