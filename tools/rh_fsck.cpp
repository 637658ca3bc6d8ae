// rh_fsck — offline integrity check and repair for campaign/serve durable
// state (src/campaign/fsck.hpp is the library; this is the CLI).
//
//   rh_fsck --data-dir=rh-serve-data [--repair]
//   rh_fsck ck.jsonl run.stream.jsonl [--repair]
//
// Scans every regular file in --data-dir (or the listed files): checkpoint
// journals and metrics streams are classified line by line with the
// readers' damage taxonomy; job descriptors and run reports are validated
// as whole documents; orphaned `.tmp` files from interrupted atomic writes
// are flagged. With --repair, torn tails are truncated, corrupt mid-file
// JSONL lines are quarantined to `<file>.quarantine` and the file is
// compacted, and orphaned tmp files are deleted — exactly the repairs a
// resuming campaign would apply, so a post-repair restart behaves as if
// the damage never happened.
//
// Exit status:
//   0  every file ok (or every damaged file repaired under --repair)
//   1  usage / IO error
//   2  unrepairable corruption present (destroyed header, corrupt
//      descriptor/report) — operator attention needed
//   3  repairable damage found and --repair was not given
#include <iostream>
#include <string>
#include <vector>

#include "campaign/fsck.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

int main(int argc, char** argv) {
  using namespace rh;
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const std::string data_dir = args.get("data-dir", "");
    const bool repair = args.has("repair");
    const std::vector<std::string> files = args.positional();
    args.reject_unqueried();
    if (data_dir.empty() && files.empty()) {
      throw common::CliError("usage: rh_fsck --data-dir=DIR [--repair], or rh_fsck FILE...");
    }

    std::vector<campaign::FsckVerdict> verdicts;
    if (!data_dir.empty()) verdicts = campaign::fsck_scan(data_dir);
    for (const std::string& path : files) verdicts.push_back(campaign::fsck_file(path));

    std::cout << "rh_fsck: " << verdicts.size() << " file(s)"
              << (data_dir.empty() ? "" : " in " + data_dir) << '\n';
    campaign::render_fsck_report(std::cout, verdicts);

    bool unrepairable = false;
    bool damaged = false;
    for (const campaign::FsckVerdict& v : verdicts) {
      if (v.status == campaign::FsckStatus::kOk) continue;
      damaged = true;
      if (!v.repairable) {
        unrepairable = true;
        continue;
      }
      if (repair) {
        const std::string note = campaign::fsck_repair(v);
        std::cout << "repaired " << v.path << ": " << note << '\n';
      }
    }

    if (unrepairable) {
      std::cout << "rh_fsck: unrepairable corruption present\n";
      return 2;
    }
    if (damaged && !repair) {
      std::cout << "rh_fsck: repairable damage found (rerun with --repair)\n";
      return 3;
    }
    std::cout << (damaged ? "rh_fsck: all damage repaired\n" : "rh_fsck: clean\n");
    return 0;
  });
}
