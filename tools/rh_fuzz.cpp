// rh_fuzz: differential command-stream fuzzer.
//
// Fuzz mode (default): generates seeded valid-by-construction command
// streams, mutates a fraction of them, replays each through the production
// timing checkers AND the independent JEDEC oracle, and fails loudly on
// any verdict disagreement — shrinking it to a minimal repro first.
//
//   rh_fuzz --seed 7 --iters 10000                  # CI smoke
//   rh_fuzz --seed 7 --iters 200 --disable-rule tFAW  # planted-bug check
//   rh_fuzz --seed 7 --iters 10000 --corpus out/      # save shrunk repros
//
// Replay mode: re-runs one .rhcs file (e.g. a committed corpus repro)
// through both implementations and checks its `! expect` directive.
//
//   rh_fuzz --replay tests/corpus/tfaw-window-edge.rhcs
//
// Output on stdout is byte-identical for identical flags (no clocks, no
// machine state), which CI relies on. Exit codes: 0 agreement, 1 usage or
// I/O error, 2 disagreement (or expectation mismatch in replay mode).
#include <algorithm>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "verify/checker_replay.hpp"
#include "verify/differential.hpp"

using namespace rh;

namespace {

int replay_file(const std::string& path) {
  const verify::StreamFile file = verify::load_stream_file(path);
  const auto oracle = verify::replay_oracle(file.commands, file.timings, file.banks);
  const auto checker = verify::replay_checker(file.commands, file.timings, file.banks);

  std::cout << "replay " << path << ": " << file.commands.size() << " commands, " << file.banks
            << " banks\n";
  const std::size_t rows = std::max(oracle.size(), checker.size());
  bool agree = true;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string o = i < oracle.size() ? to_string(oracle[i]) : "<stopped>";
    const std::string c = i < checker.size() ? to_string(checker[i]) : "<stopped>";
    std::cout << "  cmd " << i << ": oracle=" << o << " checker=" << c
              << (o == c ? "" : "   <-- DISAGREE") << '\n';
    agree = agree && o == c;
  }
  if (!agree) {
    std::cout << "replay: DISAGREEMENT\n";
    return 2;
  }

  if (file.expect) {
    const auto& want = *file.expect;
    const verify::Verdict got = checker.empty() ? verify::ok_verdict() : checker.back();
    const std::size_t got_index = checker.empty() ? 0 : checker.size() - 1;
    const bool verdict_ok = got == want.verdict;
    const bool index_ok = want.verdict.ok() || got_index == want.index;
    if (!verdict_ok || !index_ok) {
      std::cout << "replay: expectation mismatch: want " << to_string(want.verdict) << " at cmd "
                << want.index << ", got " << to_string(got) << " at cmd " << got_index << '\n';
      return 2;
    }
    std::cout << "replay: agreement, expectation holds (" << to_string(want.verdict) << ")\n";
  } else {
    std::cout << "replay: agreement\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const std::string replay = args.get("replay", "");
    verify::FuzzConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.iters = static_cast<std::size_t>(args.get_positive_int("iters", 1000));
    cfg.gen.max_cmds = static_cast<std::size_t>(args.get_positive_int("max-cmds", 48));
    cfg.gen.banks = static_cast<std::uint32_t>(args.get_positive_int("banks", 8));
    cfg.mutate_fraction = args.get_fraction("mutate", 0.6);
    cfg.shrink = args.get_int("shrink", 1) != 0;
    cfg.corpus_dir = args.get("corpus", "");
    cfg.disable_rule = args.get("disable-rule", "");
    args.reject_unqueried();

    if (!replay.empty()) return replay_file(replay);

    const verify::FuzzStats stats = verify::run_fuzz(cfg, std::cout);
    return stats.disagreements == 0 ? 0 : 2;
  });
}
