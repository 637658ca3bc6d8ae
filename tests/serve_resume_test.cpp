// Satellite: server-level durability. SIGKILL the service mid-job, restart
// it on the same data directory, and the job finishes by itself — with the
// journaled result set byte-identical to an uninterrupted run. (The
// deterministic *report* of a resumed job honestly records the resume —
// skipped shards have no timings — so the byte-identity contract lives on
// the flattened results, which are sorted by shard index and therefore
// independent of how many processes it took to produce them.)
//
// Drives the real rh_serve binary (RH_SERVE_BIN) over real sockets; also
// checks the SIGTERM drain exits 0.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/record_io.hpp"
#include "scratch_dir.hpp"
#include "serve/config.hpp"
#include "serve/http.hpp"

namespace rh::serve {
namespace {

CampaignConfig quick_config() {
  CampaignConfig config;
  config.label = "serve-resume";
  config.channels = {0, 7};
  config.row_stride = 512;
  config.wcdp_by_ber = true;
  config.settle_thermal = false;
  config.max_rows_per_shard = 2;  // 18 shards: room to die mid-job
  return config;
}

struct ServerProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

ServerProcess spawn_server(const std::string& data_dir, const std::string& port_file) {
  std::filesystem::remove(port_file);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string port_flag = "--port-file=" + port_file;
    const std::string dir_flag = "--data-dir=" + data_dir;
    ::execl(RH_SERVE_BIN, RH_SERVE_BIN, "--port=0", port_flag.c_str(), dir_flag.c_str(),
            "--rigs=1", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ServerProcess proc;
  proc.pid = pid;
  // The port file is written (then the listening line printed) once the
  // server has recovered its data dir and bound the socket.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  for (;;) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) {
      proc.port = static_cast<std::uint16_t>(port);
      return proc;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "server did not write " << port_file << " within a minute";
      return proc;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

campaign::JsonValue get_json(std::uint16_t port, const std::string& target) {
  const HttpResponse resp = http_request(port, "GET", target);
  EXPECT_EQ(resp.status, 200) << target << ": " << resp.body;
  return campaign::parse_json(resp.body, target);
}

std::string wait_done(std::uint16_t port, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const campaign::JsonValue doc = get_json(port, "/jobs/" + std::to_string(id));
    const std::string state = doc.at("state").text;
    if (state != "queued" && state != "running") return state;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " still " << state << " after 2 minutes";
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(ServeResume, KilledServerResumesAndMatchesUninterruptedRun) {
  const test::ScratchDir data("data");
  const test::ScratchDir reference("reference");
  const std::string port_file = data.str() + ".port";
  const std::string config_json = to_canonical_json(quick_config());

  // --- phase 1: start, submit, die mid-job ----------------------------
  ServerProcess first = spawn_server(data.str(), port_file);
  ASSERT_GT(first.port, 0);
  const HttpResponse created = http_request(first.port, "POST", "/jobs", config_json);
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id =
      campaign::parse_json(created.body, "created").at("id").as_u64();
  const std::uint64_t total =
      campaign::parse_json(created.body, "created").at("shards").at("total").as_u64();
  ASSERT_GT(total, 4u);

  // Wait until some shards are journaled but the job cannot be finished,
  // then SIGKILL — no drain, no flush, mid-shard with high probability.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const campaign::JsonValue doc = get_json(first.port, "/jobs/" + std::to_string(id));
    const std::uint64_t done = doc.at("shards").at("done").as_u64();
    if (done >= 2) {
      ASSERT_LT(done, total) << "job finished before the kill; shrink the shards";
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no shard completed in 2 minutes";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(::kill(first.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first.pid, &status, 0), first.pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // --- phase 2: restart on the same data dir; the job finishes --------
  ServerProcess second = spawn_server(data.str(), port_file);
  ASSERT_GT(second.port, 0);
  EXPECT_EQ(wait_done(second.port, id), "done");

  const campaign::JsonValue resumed = get_json(second.port, "/jobs/" + std::to_string(id));
  EXPECT_EQ(resumed.at("shards").at("failed").as_u64(), 0u);

  const HttpResponse report =
      http_request(second.port, "GET", "/jobs/" + std::to_string(id) + "/report");
  EXPECT_EQ(report.status, 200);
  EXPECT_GT(campaign::parse_json(report.body, "report").at("shards").at("skipped").as_u64(), 0u)
      << "restart should have restored journaled shards";
  const HttpResponse results =
      http_request(second.port, "GET", "/jobs/" + std::to_string(id) + "/results");
  ASSERT_EQ(results.status, 200);
  EXPECT_FALSE(results.body.empty());

  // --- phase 3: SIGTERM is a graceful drain, exit 0 --------------------
  ASSERT_EQ(::kill(second.pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(second.pid, &status, 0), second.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // --- phase 4: an uninterrupted run produces the same bytes -----------
  const std::string ref_port_file = reference.str() + ".port";
  ServerProcess ref = spawn_server(reference.str(), ref_port_file);
  ASSERT_GT(ref.port, 0);
  const HttpResponse ref_created = http_request(ref.port, "POST", "/jobs", config_json);
  ASSERT_EQ(ref_created.status, 201);
  const std::uint64_t ref_id =
      campaign::parse_json(ref_created.body, "created").at("id").as_u64();
  EXPECT_EQ(wait_done(ref.port, ref_id), "done");
  const HttpResponse ref_results =
      http_request(ref.port, "GET", "/jobs/" + std::to_string(ref_id) + "/results");
  ASSERT_EQ(ref_results.status, 200);
  EXPECT_EQ(results.body, ref_results.body);

  ASSERT_EQ(::kill(ref.pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(ref.pid, &status, 0), ref.pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove(port_file);
  std::filesystem::remove(ref_port_file);
}

}  // namespace
}  // namespace rh::serve
