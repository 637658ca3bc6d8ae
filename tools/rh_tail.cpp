// rh_tail: live/post-mortem campaign monitor.
//
//   rh_tail --journal=PATH --stream=PATH [--follow] [--interval-ms=500]
//           [--stall-ms=2000] [--max-seconds=N]
//
// Joins a campaign's checkpoint journal and rh-metrics-stream/v1 file (at
// least one of --journal/--stream required) into one status view: progress
// and ETA, per-worker utilization, shard outcome counts, fault/recovery
// rates, and a stall watchdog that flags shards a worker claimed but never
// journaled.
//
// Without --follow, one status is printed and the tool exits — this works
// on the files of a *killed* campaign too (both readers tolerate a torn
// trailing line). With --follow, the files are re-read every --interval-ms;
// the watchdog trips when a suspect shard is still open after the files
// have been quiet for --stall-ms. The loop ends when the stream's final
// sample appears (exit 0) or after --max-seconds (exit 0 if finished,
// 3 if the watchdog tripped, 2 otherwise).
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "campaign/tail.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

using namespace rh;

namespace {

/// Combined size of the monitored files; 0 when neither exists yet.
std::uintmax_t monitored_bytes(const std::string& journal, const std::string& stream) {
  std::uintmax_t total = 0;
  std::error_code ec;
  if (!journal.empty()) {
    const auto size = std::filesystem::file_size(journal, ec);
    if (!ec) total += size;
  }
  if (!stream.empty()) {
    const auto size = std::filesystem::file_size(stream, ec);
    if (!ec) total += size;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    const std::string journal = args.get("journal", "");
    const std::string stream = args.get("stream", "");
    const bool follow = args.has("follow");
    const double interval_ms =
        static_cast<double>(args.get_positive_int("interval-ms", 500));
    campaign::TailOptions opts;
    opts.stall_ms = static_cast<double>(args.get_positive_int("stall-ms", 2000));
    const double max_seconds = args.get_double("max-seconds", 0.0);
    args.reject_unqueried();
    if (journal.empty() && stream.empty()) {
      throw common::ConfigError("rh_tail needs --journal=PATH and/or --stream=PATH");
    }

    if (!follow) {
      // Post-mortem: observed_idle_ms stays < 0 so every claimed-but-not-
      // journaled shard is flagged outright.
      const campaign::TailStatus status = campaign::tail_status(journal, stream, opts);
      campaign::render_tail_status(std::cout, status);
      return 0;
    }

    const auto start = std::chrono::steady_clock::now();
    auto last_growth = start;
    std::uintmax_t last_bytes = monitored_bytes(journal, stream);
    bool tripped = false;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      const std::uintmax_t bytes = monitored_bytes(journal, stream);
      if (bytes != last_bytes) {
        last_bytes = bytes;
        last_growth = now;
      }
      opts.observed_idle_ms =
          std::chrono::duration<double, std::milli>(now - last_growth).count();

      bool readable = true;
      campaign::TailStatus status;
      try {
        status = campaign::tail_status(journal, stream, opts);
      } catch (const common::ConfigError&) {
        // The campaign has not created (or fully headered) the files yet.
        readable = false;
      }
      if (readable) {
        campaign::render_tail_status(std::cout, status);
        std::cout.flush();
        if (status.finished) return 0;
        tripped = status.watchdog_tripped;
      } else {
        std::cout << "[rh_tail] waiting for campaign files...\n";
      }

      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (max_seconds > 0.0 && elapsed_s >= max_seconds) {
        std::cerr << "rh_tail: gave up after " << max_seconds << " s without a final sample\n";
        return tripped ? 3 : 2;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(interval_ms));
    }
  });
}
