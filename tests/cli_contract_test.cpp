// The command-line contract of every bench, tool and example binary, run
// as a real process: exit status 0 on success and 1 with one
// "<binary>: <message>" line on stderr for any usage, config or runtime
// error; an unknown flag is such an error and stops the binary before any
// device work; and --report is written exactly where a campaign runs.
//
// The binaries' directories arrive as compile definitions (RH_BENCH_DIR,
// RH_TOOLS_DIR, RH_EXAMPLES_DIR), the way serve_resume_test gets its
// RH_SERVE_BIN.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/record_io.hpp"
#include "scratch_dir.hpp"

namespace rh {
namespace {

struct Outcome {
  int status = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs `binary` with `args` (no stdin), capturing stdout and stderr into
/// `dir`. A binary killed by a signal reports 128 + the signal, as a shell
/// would (an abort() is 134).
Outcome run(const test::ScratchDir& dir, const std::string& binary,
            const std::vector<std::string>& args) {
  std::string command = binary;
  for (const std::string& arg : args) command += " '" + arg + "'";
  command += " </dev/null >" + dir.file("stdout") + " 2>" + dir.file("stderr");
  const int raw = std::system(command.c_str());
  Outcome outcome;
  outcome.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : 128 + WTERMSIG(raw);
  outcome.out = slurp(dir.file("stdout"));
  outcome.err = slurp(dir.file("stderr"));
  return outcome;
}

std::string bench(const std::string& name) { return std::string(RH_BENCH_DIR) + "/" + name; }

TEST(CliContract, OutOfDomainFlagValueExitsOneWithTheMessage) {
  const test::ScratchDir dir;
  const Outcome got = run(dir, bench("fig3_ber_distribution"), {"--stride=0"});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err,
            "fig3_ber_distribution: flag --stride expects a positive integer, got '0'\n");

  // A planted-bug name the engine does not have.
  const Outcome bug =
      run(dir, bench("fig3_ber_distribution"), {"--engine-bug=off-by-one-fast-forward"});
  EXPECT_EQ(bug.status, 1);
  EXPECT_EQ(bug.err,
            "fig3_ber_distribution: unknown engine bug 'off-by-one-fast-forward' "
            "(expected none|skip-trr-sample|stale-disturbance-flush|short-row-burst)\n");

  // Site and region flags are checked against the geometry before any
  // device work, so the message names the flag, not an internal
  // precondition. Each bound is the highest row the binary touches: fig6's
  // three regions must not overlap (half a bank), sec5 scans 64 rows past
  // --row and activates R+1, rowpress reaches --base-row + 7 * (--rows - 1),
  // and every other --rows stops where its loop's last row would leave the
  // bank (flip directions and TRR efficacy also activate R+1, TRR evasion
  // a decoy at R+64; the variation-aware example's tighter loop walks the
  // last subarray, rows 15684 + 17i).
  const std::string quickstart = std::string(RH_EXAMPLES_DIR) + "/quickstart";
  const std::string variation_aware = std::string(RH_EXAMPLES_DIR) + "/variation_aware_defense";
  const struct {
    std::string binary;
    std::string flag;
    std::string err;
  } kSiteCases[] = {
      {bench("fig6_bank_variation"), "--rows-per-region=8193",
       "fig6_bank_variation: flag --rows-per-region expects an integer in [1, 8192], "
       "got '8193'\n"},
      {bench("sec5_trr_discovery"), "--row=-5",
       "sec5_trr_discovery: flag --row expects an integer in [0, 16318], got '-5'\n"},
      {bench("sec5_trr_discovery"), "--row=16319",
       "sec5_trr_discovery: flag --row expects an integer in [0, 16318], got '16319'\n"},
      {bench("sec5_trr_discovery"), "--channel=9",
       "sec5_trr_discovery: flag --channel expects an integer in [0, 7], got '9'\n"},
      {bench("sec5_trr_discovery"), "--bank=16",
       "sec5_trr_discovery: flag --bank expects an integer in [0, 15], got '16'\n"},
      {bench("ablation_rowpress"), "--base-row=16370",
       "ablation_rowpress: flag --base-row expects an integer in [0, 16334], got '16370'\n"},
      {quickstart, "--channel=8",
       "quickstart: flag --channel expects an integer in [0, 7], got '8'\n"},
      {quickstart, "--row=-1",
       "quickstart: flag --row expects an integer in [0, 16383], got '-1'\n"},
      {bench("ablation_defense"), "--rows=165",
       "ablation_defense: flag --rows expects an integer in [1, 164], got '165'\n"},
      {bench("ablation_temperature"), "--rows=1398",
       "ablation_temperature: flag --rows expects an integer in [1, 1397], got '1398'\n"},
      {bench("ablation_chip_population"), "--rows=264",
       "ablation_chip_population: flag --rows expects an integer in [1, 263], got '264'\n"},
      {bench("ablation_hammer_count"), "--rows=696",
       "ablation_hammer_count: flag --rows expects an integer in [1, 695], got '696'\n"},
      {bench("ablation_flip_directions"), "--rows=2285",
       "ablation_flip_directions: flag --rows expects an integer in [1, 2284], got '2285'\n"},
      {bench("ablation_trr_efficacy"), "--rows=1169",
       "ablation_trr_efficacy: flag --rows expects an integer in [1, 1168], got '1169'\n"},
      {bench("ablation_trr_evasion"), "--rows=1165",
       "ablation_trr_evasion: flag --rows expects an integer in [1, 1164], got '1165'\n"},
      {variation_aware, "--rows=43",
       "variation_aware_defense: flag --rows expects an integer in [1, 42], got '43'\n"},
  };
  for (const auto& c : kSiteCases) {
    SCOPED_TRACE(c.binary + " " + c.flag);
    const Outcome site = run(dir, c.binary, {c.flag});
    EXPECT_EQ(site.status, 1);
    EXPECT_EQ(site.err, c.err);
  }
}

TEST(CliContract, TypoedFlagFailsBeforeTheSweepStarts) {
  const test::ScratchDir dir;
  const std::string journal = dir.file("ck.jsonl");
  const Outcome got =
      run(dir, bench("fig3_ber_distribution"), {"--stirde=4", "--checkpoint=" + journal});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err, "fig3_ber_distribution: unknown flag --stirde\n");
  EXPECT_FALSE(std::filesystem::exists(journal)) << "the campaign started";
}

TEST(CliContract, RejectedRunLeavesNoOutputFilesBehind) {
  // Output paths are probed before the unknown-flag check: the files the
  // probe created go again, and a file that was already there keeps its
  // content.
  const test::ScratchDir dir;
  const std::string report = dir.file("typo.json");
  const std::string csv = dir.file("typo.csv");
  const std::string kept = dir.file("kept.json");
  std::ofstream(kept) << "earlier run\n";
  const Outcome got =
      run(dir, bench("fig4_hcfirst_distribution"),
          {"--report=" + report, "--csv=" + csv, "--metrics-json=" + kept, "--stirde=4"});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err, "fig4_hcfirst_distribution: unknown flag --stirde\n");
  EXPECT_FALSE(std::filesystem::exists(report));
  EXPECT_FALSE(std::filesystem::exists(csv));
  EXPECT_EQ(slurp(kept), "earlier run\n");
}

TEST(CliContract, UnwritableOutputFailsBeforeAnyDeviceWork) {
  const test::ScratchDir dir;
  const std::string csv = dir.file("no-such-dir") + "/out.csv";
  const Outcome got = run(dir, bench("fig4_hcfirst_distribution"), {"--csv=" + csv});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err, "fig4_hcfirst_distribution: cannot open CSV output file: " + csv + "\n");
  // Only the three-line banner reached stdout.
  EXPECT_EQ(std::count(got.out.begin(), got.out.end(), '\n'), 3) << got.out;
}

TEST(CliContract, CampaignBenchWritesItsReport) {
  struct Case {
    const char* bench;
    std::vector<std::string> flags;
    std::uint64_t shards;
    std::uint64_t records;
  };
  // Fig. 6: 8 channels x 2 pseudo channels x 16 banks x 3 regions, 2 rows each.
  // Fig. 4 at the perf gate's stride, as its deterministic projection.
  const Case cases[] = {{"ablation_hammer_count", {"--rows=1"}, 16, 16},
                        {"fig6_bank_variation", {"--rows-per-region=40", "--row-stride=20"}, 768,
                         1536},
                        {"fig4_hcfirst_distribution", {"--stride=2048", "--deterministic"}, 24, 48}};
  for (const Case& c : cases) {
    const test::ScratchDir dir;
    const std::string report = dir.file("r.json");
    std::vector<std::string> flags = c.flags;
    flags.push_back("--report=" + report);
    const Outcome got = run(dir, bench(c.bench), flags);
    ASSERT_EQ(got.status, 0) << c.bench << ": " << got.err;
    const campaign::JsonValue doc = campaign::parse_json(slurp(report), report);
    EXPECT_EQ(doc.at("schema").text, "rh-run-report/v1") << c.bench;
    EXPECT_EQ(doc.at("shards").at("total").as_u64(), c.shards) << c.bench;
    EXPECT_EQ(doc.at("records").as_u64(), c.records) << c.bench;
    const bool deterministic =
        std::find(c.flags.begin(), c.flags.end(), "--deterministic") != c.flags.end();
    EXPECT_EQ(doc.find("elapsed_wall_ms") == nullptr, deterministic) << c.bench;
  }
}

TEST(CliContract, MissingRequiredFlagExitsOneWithTheMessage) {
  const test::ScratchDir dir;
  const Outcome projection = run(dir, bench("fig4_hcfirst_distribution"), {"--deterministic"});
  EXPECT_EQ(projection.status, 1);
  EXPECT_EQ(projection.err,
            "fig4_hcfirst_distribution: --deterministic requires --report=PATH\n");

  // rh_report only summarizes a journal; it runs no campaign of its own.
  const Outcome summary = run(dir, std::string(RH_TOOLS_DIR) + "/rh_report", {});
  EXPECT_EQ(summary.status, 1);
  EXPECT_EQ(summary.err, "rh_report: rh_report needs --journal=PATH\n");
  EXPECT_EQ(summary.out, "");
}

TEST(CliContract, HostOnlyBenchRejectsReport) {
  const test::ScratchDir dir;
  const std::string report = dir.file("r.json");
  const Outcome got = run(dir, bench("ablation_temperature"), {"--report=" + report});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err, "ablation_temperature: unknown flag --report\n");
  EXPECT_FALSE(std::filesystem::exists(report));
}

struct Binary {
  const char* dir;
  const char* name;
  bool banner;  ///< prints the three-line bench banner before reading device flags
};

// Names each case after its binary (ctest lists ".../<binary>").
void PrintTo(const Binary& binary, std::ostream* os) { *os << binary.name; }

class UnknownFlag : public ::testing::TestWithParam<Binary> {};

TEST_P(UnknownFlag, ExitsOneBeforeAnyDeviceWork) {
  const Binary& binary = GetParam();
  const test::ScratchDir dir;
  const Outcome got =
      run(dir, std::string(binary.dir) + "/" + binary.name, {"--no-such-flag"});
  EXPECT_EQ(got.status, 1);
  EXPECT_EQ(got.err, std::string(binary.name) + ": unknown flag --no-such-flag\n");
  // Nothing but the banner reached stdout: no result line, no listening
  // line, no progress.
  if (binary.banner) {
    const std::string rule(62, '=');
    EXPECT_EQ(std::count(got.out.begin(), got.out.end(), '\n'), 3) << got.out;
    EXPECT_EQ(got.out.rfind(rule + "\n", 0), 0u) << got.out;
    EXPECT_TRUE(got.out.ends_with(rule + "\n")) << got.out;
  } else {
    EXPECT_EQ(got.out, "");
  }
}

const Binary kBinaries[] = {
    {RH_BENCH_DIR, "fig3_ber_distribution", true},
    {RH_BENCH_DIR, "fig4_hcfirst_distribution", true},
    {RH_BENCH_DIR, "fig5_ber_across_rows", true},
    {RH_BENCH_DIR, "fig6_bank_variation", true},
    {RH_BENCH_DIR, "sec5_trr_discovery", true},
    {RH_BENCH_DIR, "ablation_chip_population", true},
    {RH_BENCH_DIR, "ablation_cross_channel", true},
    {RH_BENCH_DIR, "ablation_defense", true},
    {RH_BENCH_DIR, "ablation_defense_comparison", true},
    {RH_BENCH_DIR, "ablation_fault_storm", true},
    {RH_BENCH_DIR, "ablation_flip_directions", true},
    {RH_BENCH_DIR, "ablation_hammer_count", true},
    {RH_BENCH_DIR, "ablation_rowpress", true},
    {RH_BENCH_DIR, "ablation_temperature", true},
    {RH_BENCH_DIR, "ablation_trr_efficacy", true},
    {RH_BENCH_DIR, "ablation_trr_evasion", true},
    {RH_TOOLS_DIR, "rh_report", false},
    {RH_TOOLS_DIR, "rh_fuzz", false},
    {RH_TOOLS_DIR, "rh_tail", false},
    {RH_TOOLS_DIR, "rh_fsck", false},
    {RH_TOOLS_DIR, "rh_serve", false},
    {RH_TOOLS_DIR, "rh_top", false},
    {RH_EXAMPLES_DIR, "quickstart", false},
    {RH_EXAMPLES_DIR, "spatial_characterization", false},
    {RH_EXAMPLES_DIR, "uncover_trr", false},
    {RH_EXAMPLES_DIR, "templating_attack", false},
    {RH_EXAMPLES_DIR, "variation_aware_defense", false},
    {RH_EXAMPLES_DIR, "dram_thermometer", false},
};

INSTANTIATE_TEST_SUITE_P(Binaries, UnknownFlag, ::testing::ValuesIn(kBinaries));

}  // namespace
}  // namespace rh
