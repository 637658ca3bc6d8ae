// rh_serve — the multi-tenant campaign service.
//
// Hosts the rig pool behind a tiny HTTP/1.1 JSON API (see
// src/serve/server.hpp for the route table). Jobs are durable: every
// descriptor and checkpoint journal lives in --data-dir, so killing the
// server and restarting it with the same directory resumes every
// in-flight job at its last journaled shard.
//
//   rh_serve --port=0 --data-dir=rh-serve-data --rigs=2
//
// Flags:
//   --port=N                 listen port; 0 (default) picks an ephemeral one
//   --port-file=PATH         write the bound port (for scripts; ephemeral)
//   --data-dir=PATH          job descriptors/journals/reports (default
//                            rh-serve-data, created if missing)
//   --rigs=N                 simulated-rig pool size (default 2)
//   --retries=N              per-shard transient retry budget (default 1)
//   --queue-limit=N          max active jobs server-wide (default 8)
//   --tenant-quota=N         max active jobs per tenant (default 4)
//   --stream-cycle-cadence=N device cycles between stream samples
//   --max-seconds=F          exit (with a drain) after F seconds; for CI
//   --storage-fault-rate=F   inject disk faults (short write, fsync failure,
//                            bit corruption, torn line, ENOSPC) into every
//                            job's durable outputs with probability F per
//                            write; jobs degrade (state failed, "storage: "
//                            reason), /healthz reports degraded, the server
//                            never crashes. For chaos testing with rh_fsck.
//   --storage-fault-seed=N   storage-fault-plan seed (deterministic storms)
//   --access-log=PATH        JSONL access log (default
//                            <data-dir>/access-log.jsonl, appended across
//                            restarts; CRC-framed torn-tail-safe lines)
//   --flightrec-size=N       flight-recorder ring capacity (default 256)
//
// SIGTERM/SIGINT drain gracefully: in-flight shards finish and journal,
// queued work is left for the next start, exit status 0. SIGQUIT dumps the
// flight recorder (recent admissions/steals/retries/storage errors) to
// <data-dir>/flightrec-<ts>.jsonl and keeps serving — the live post-mortem
// hook; GET /debugz/flightrec serves the same ring over HTTP.
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void handle_signal(int) { g_stop = 1; }
void handle_dump_signal(int) { g_dump = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace rh;
  return common::run_main(argc, argv, [](common::CliArgs& args) {
    serve::Server::Options options;
    const std::int64_t port = args.get_int("port", 0);
    if (port < 0 || port > 65535) {
      throw common::CliError("--port must be in [0, 65535], got " + std::to_string(port));
    }
    options.port = static_cast<std::uint16_t>(port);
    options.data_dir = args.get("data-dir", "rh-serve-data");
    options.rigs = static_cast<unsigned>(args.get_positive_int("rigs", 2));
    const std::int64_t retries = args.get_int("retries", 1);
    if (retries < 0) {
      throw common::CliError("--retries must be >= 0, got " + std::to_string(retries));
    }
    options.retries = static_cast<unsigned>(retries);
    options.queue_limit = static_cast<std::size_t>(args.get_positive_int("queue-limit", 8));
    options.tenant_quota = static_cast<std::size_t>(args.get_positive_int("tenant-quota", 4));
    options.stream_cycle_cadence =
        static_cast<std::uint64_t>(args.get_positive_int("stream-cycle-cadence", 1ll << 24));
    const double storage_fault_rate = args.get_fraction("storage-fault-rate", 0.0);
    if (storage_fault_rate > 0.0) options.storage_plan.set_storm_rates(storage_fault_rate);
    options.storage_plan.seed =
        static_cast<std::uint64_t>(args.get_int("storage-fault-seed", 0x5709A));
    options.access_log = args.get("access-log", "");
    options.flightrec_size =
        static_cast<std::size_t>(args.get_positive_int("flightrec-size", 256));
    const double max_seconds = args.get_positive_double("max-seconds", 0.0);
    const std::string port_file = args.get("port-file", "");
    args.reject_unqueried();

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGQUIT, handle_dump_signal);  // dump the flight recorder, keep serving
    std::signal(SIGPIPE, SIG_IGN);  // a peer hanging up must not kill us

    serve::Server server(options);
    server.start();
    if (!port_file.empty()) {
      std::ofstream out(port_file, std::ios::trunc);
      if (!out) throw common::ConfigError("cannot open port file: " + port_file);
      out << server.port() << '\n';
    }
    std::cout << "rh_serve: listening on 127.0.0.1:" << server.port() << " (data dir "
              << options.data_dir << ", " << options.rigs << " rigs)" << std::endl;

    const auto start = std::chrono::steady_clock::now();
    server.serve([&] {
      if (g_dump != 0) {
        g_dump = 0;
        const std::string path = server.dump_flightrec("sigquit");
        if (path.empty()) {
          std::cerr << "rh_serve: flight-recorder dump failed" << std::endl;
        } else {
          std::cout << "rh_serve: flight recorder dumped to " << path << std::endl;
        }
      }
      if (g_stop != 0) return true;
      if (max_seconds > 0.0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (elapsed >= max_seconds) return true;
      }
      return false;
    });
    std::cout << "rh_serve: drained, exiting" << std::endl;
    return 0;
  });
}
