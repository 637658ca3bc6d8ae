// End-to-end tests of the campaign service: admission, execution,
// byte-identity with the bench CLI path, and the content-addressed cache.
// Requests go through Server::handle() directly — the HTTP socket layer has
// its own tests (serve_http_test) and the CI smoke covers the wire.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/record_io.hpp"
#include "profiling/report.hpp"
#include "resilience/retry.hpp"
#include "serve/config.hpp"
#include "telemetry/telemetry.hpp"

namespace rh::serve {
namespace {

class TempDir {
public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

private:
  std::string path_;
};

/// The resilience_test storm sweep expressed as a service config: 2
/// channels x 512-stride BER-only survey in 2-row shards -> 18 fast shards.
CampaignConfig quick_config() {
  CampaignConfig config;
  config.label = "serve-test";
  config.channels = {0, 7};
  config.row_stride = 512;
  config.wcdp_by_ber = true;
  config.settle_thermal = false;
  config.max_rows_per_shard = 2;
  return config;
}

HttpRequest request(const std::string& method, const std::string& target,
                    const std::string& body = "", const std::string& tenant = "") {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.body = body;
  if (!tenant.empty()) req.headers["x-tenant"] = tenant;
  return req;
}

campaign::JsonValue parse(const HttpResponse& resp) {
  return campaign::parse_json(resp.body, "response body");
}

/// Polls GET /jobs/<id> until the job leaves the active states.
std::string wait_terminal(Server& server, std::uint64_t id) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    const HttpResponse resp = server.handle(request("GET", "/jobs/" + std::to_string(id)));
    EXPECT_EQ(resp.status, 200);
    const std::string state = parse(resp).at("state").text;
    if (state != "queued" && state != "running") return state;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " still " << state << " after 2 minutes";
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// The bench CLI path in-process: the same spec through campaign::Campaign
/// with a report-only telemetry sink, rendered as the deterministic report.
/// `cc` carries the run's scheduling side: jobs, retry budget and policy,
/// fault plan, metrics-stream path and cadence.
std::string bench_det_report(const CampaignConfig& config, campaign::CampaignConfig cc) {
  const campaign::SweepSpec spec = to_sweep_spec(config);
  cc.progress = false;
  telemetry::TelemetryConfig tc;
  tc.trace_enabled = false;
  telemetry::Telemetry sink(tc);
  campaign::Campaign campaign(cc, &sink);
  const campaign::CampaignResult result = campaign.run(spec);
  const profiling::RunReport report =
      campaign::build_report(config.label, spec, campaign, result, &sink);
  std::ostringstream os;
  profiling::write_report_json(os, report, /*include_wall=*/false);
  os << '\n';
  return os.str();
}

TEST(ServeServer, EndToEndMatchesTheBenchCliPath) {
  const TempDir dir("serve_server_test_e2e");
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  // Submit over the API; the work-stealing pool runs it.
  const HttpResponse created =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config()), "alice"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = parse(created).at("id").as_u64();
  // The submit response reads status after the enqueue (so fully-cached
  // jobs answer "done"); for fresh work the rigs may already be running it.
  const std::string born = parse(created).at("state").text;
  EXPECT_TRUE(born == "queued" || born == "running" || born == "done") << born;
  EXPECT_EQ(wait_terminal(server, id), "done");

  const HttpResponse status = server.handle(request("GET", "/jobs/" + std::to_string(id)));
  const campaign::JsonValue doc = parse(status);
  EXPECT_EQ(doc.at("tenant").text, "alice");
  EXPECT_EQ(doc.at("shards").at("failed").as_u64(), 0u);
  EXPECT_EQ(doc.at("shards").at("remaining").as_u64(), 0u);
  EXPECT_EQ(doc.at("shards").at("cached").as_u64(), 0u);
  EXPECT_GT(doc.at("records").as_u64(), 0u);

  // The acceptance bar: the deterministic report fetched over HTTP is
  // byte-identical to the bench CLI path on the same config — any rig
  // count, any interleaving, any amount of work stealing.
  const HttpResponse report =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/report?det=1"));
  ASSERT_EQ(report.status, 200);
  campaign::CampaignConfig cc;
  cc.jobs = options.rigs;
  EXPECT_EQ(report.body, bench_det_report(quick_config(), cc));

  // The full report exists too, and the stream is a complete document.
  EXPECT_EQ(server.handle(request("GET", "/jobs/" + std::to_string(id) + "/report")).status,
            200);
  const HttpResponse stream =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/stream"));
  ASSERT_EQ(stream.status, 200);
  EXPECT_NE(stream.body.find("\"sample\":\"final\""), std::string::npos);

  // Resubmission of the identical config: admitted, served entirely from
  // the result cache, zero shards re-simulated.
  const std::string before_statz = server.handle(request("GET", "/statz")).body;
  const std::uint64_t shards_run_before =
      campaign::parse_json(before_statz, "statz").at("campaign.shards_run").as_u64();

  const HttpResponse resubmitted =
      server.handle(request("POST", "/jobs", to_canonical_json(quick_config()), "bob"));
  ASSERT_EQ(resubmitted.status, 201) << resubmitted.body;
  const std::uint64_t id2 = parse(resubmitted).at("id").as_u64();
  // A fully-cached job answers its own submission already finalized.
  EXPECT_EQ(parse(resubmitted).at("state").text, "done") << resubmitted.body;
  EXPECT_EQ(parse(resubmitted).at("cache_hit").boolean, true);
  EXPECT_EQ(wait_terminal(server, id2), "done");

  const campaign::JsonValue status2 =
      parse(server.handle(request("GET", "/jobs/" + std::to_string(id2))));
  EXPECT_EQ(status2.at("cache_hit").boolean, true);
  EXPECT_EQ(status2.at("config_hash").text, parse(status).at("config_hash").text);
  EXPECT_EQ(status2.at("shards").at("cached").as_u64(),
            parse(status).at("shards").at("total").as_u64());

  const campaign::JsonValue after =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(after.at("campaign.shards_run").as_u64(), shards_run_before);
  EXPECT_GE(after.at("serve.jobs_cache_hit").as_u64(), 1u);
  EXPECT_GT(after.at("serve.cache_hits").as_u64(), 0u);

  // Both jobs flatten to the same journaled records, byte for byte.
  const HttpResponse results1 =
      server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
  const HttpResponse results2 =
      server.handle(request("GET", "/jobs/" + std::to_string(id2) + "/results"));
  ASSERT_EQ(results1.status, 200);
  ASSERT_EQ(results2.status, 200);
  EXPECT_FALSE(results1.body.empty());
  EXPECT_EQ(results1.body, results2.body);

  server.drain();
}

TEST(ServeServer, FaultStormJobYieldsTheSameResults) {
  // The serve scheduler inherits the resilience plane's guarantee: a
  // transport fault storm changes nothing about the journaled bytes. Run
  // the storm in a fresh server (fresh cache — the fault plan is not part
  // of the cache identity, deliberately) and diff against the clean run.
  const TempDir clean_dir("serve_server_test_storm_clean");
  const TempDir storm_dir("serve_server_test_storm");

  const auto run_results = [](const std::string& dir, const CampaignConfig& config) {
    Server::Options options;
    options.data_dir = dir;
    options.rigs = 2;
    Server server(options);
    server.start();
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(config)));
    EXPECT_EQ(created.status, 201) << created.body;
    const std::uint64_t id = parse(created).at("id").as_u64();
    EXPECT_EQ(wait_terminal(server, id), "done");
    const HttpResponse results =
        server.handle(request("GET", "/jobs/" + std::to_string(id) + "/results"));
    EXPECT_EQ(results.status, 200);
    server.drain();
    return results.body;
  };

  const std::string clean = run_results(clean_dir.str(), quick_config());
  CampaignConfig storm = quick_config();
  storm.fault_rate = 0.05;
  storm.fault_seed = 0xB0071;
  EXPECT_EQ(config_hash(storm), config_hash(quick_config()));
  const std::string stormed = run_results(storm_dir.str(), storm);
  EXPECT_FALSE(clean.empty());
  EXPECT_EQ(stormed, clean);
}

/// The deterministic half of a metrics stream: its cycles-cadence samples,
/// sorted (attempts interleave differently across runners and rig counts).
std::vector<std::string> cycles_samples(const std::string& stream) {
  std::vector<std::string> lines;
  std::istringstream in(stream);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"sample\":\"cycles\"", 0) == 0) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(ServeServer, StormRetriesAndFailuresMatchTheBenchCliPath) {
  // The retry and failure paths, not only the happy path, must account
  // identically under the service and the bench CLI: the same
  // retried/failed/fatal counts, the same span tree and profile call
  // counts in the deterministic report, and the same per-attempt cycles
  // series. One rig against one worker keeps the rig rebuild sequence, and
  // so every rig's fault stream, the same on both sides. A 2-attempt
  // transport budget under a 5% storm makes some attempts fail transiently
  // (retried on a fresh rig) and some shards exhaust their retry budget.
  const TempDir dir("serve_server_test_storm_report");
  CampaignConfig config = quick_config();
  config.fault_rate = 0.05;
  config.fault_seed = 0xB0071;
  resilience::RetryPolicy policy;
  policy.max_attempts = 2;
  constexpr unsigned kRetries = 3;
  constexpr std::uint64_t kCadence = 1ull << 22;

  Server::Options options;
  options.data_dir = dir.str() + "/serve";
  options.rigs = 1;
  options.retries = kRetries;
  options.retry_policy = policy;
  options.stream_cycle_cadence = kCadence;
  Server server(options);
  server.start();
  const HttpResponse created = server.handle(request("POST", "/jobs", to_canonical_json(config)));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::string id = std::to_string(parse(created).at("id").as_u64());
  EXPECT_EQ(wait_terminal(server, std::stoull(id)), "failed");
  const HttpResponse report = server.handle(request("GET", "/jobs/" + id + "/report?det=1"));
  const HttpResponse stream = server.handle(request("GET", "/jobs/" + id + "/stream"));
  server.drain();
  ASSERT_EQ(report.status, 200);
  ASSERT_EQ(stream.status, 200);

  campaign::CampaignConfig cc;
  cc.jobs = 1;
  cc.retries = kRetries;
  cc.retry_policy = policy;
  cc.fault_plan = to_fault_plan(config);
  cc.fail_on_shard_error = false;
  cc.metrics_stream_path = dir.str() + "/bench.stream.jsonl";
  cc.stream_cycle_cadence = kCadence;
  EXPECT_EQ(report.body, bench_det_report(config, cc));
  std::ifstream bench_stream(cc.metrics_stream_path);
  std::ostringstream bench_text;
  bench_text << bench_stream.rdbuf();
  const std::vector<std::string> samples = cycles_samples(stream.body);
  EXPECT_FALSE(samples.empty());
  EXPECT_EQ(samples, cycles_samples(bench_text.str()));

  // The storm really exercised the retry and the failure path.
  const campaign::JsonValue shards = parse(report).at("shards");
  EXPECT_GE(shards.at("retried").as_u64(), 1u);
  EXPECT_GE(shards.at("failed").as_u64(), 1u);
}

TEST(ServeServer, FailedJobKeepsItsErrorAcrossARestart) {
  // The storm above fails its job. A server restarted on the same data dir
  // must still say why: the descriptor carries the error, not only the
  // state.
  const TempDir dir("serve_server_test_failed_restart");
  CampaignConfig config = quick_config();
  config.fault_rate = 0.05;
  config.fault_seed = 0xB0071;
  Server::Options options;
  options.data_dir = dir.str() + "/serve";
  options.rigs = 1;
  options.retries = 3;
  options.retry_policy.max_attempts = 2;

  std::string path;
  std::string error;
  {
    Server server(options);
    server.start();
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(config)));
    ASSERT_EQ(created.status, 201) << created.body;
    path = "/jobs/" + std::to_string(parse(created).at("id").as_u64());
    ASSERT_EQ(wait_terminal(server, parse(created).at("id").as_u64()), "failed");
    error = parse(server.handle(request("GET", path))).at("error").text;
    server.drain();
  }
  EXPECT_FALSE(error.empty());

  Server restarted(options);
  restarted.start();
  const HttpResponse status = restarted.handle(request("GET", path));
  restarted.drain();
  ASSERT_EQ(status.status, 200) << status.body;
  EXPECT_EQ(parse(status).at("state").text, "failed");
  EXPECT_EQ(parse(status).at("error").text, error);
}

TEST(ServeServer, AdmissionControl) {
  // No start(): the scheduler has no rig threads, so admitted jobs stay
  // queued and admission decisions are deterministic.
  const TempDir dir("serve_server_test_admission");
  Server::Options options;
  options.data_dir = dir.str();
  options.queue_limit = 3;
  options.tenant_quota = 2;
  Server server(options);
  std::filesystem::create_directories(dir.str());

  const std::string body = to_canonical_json(quick_config());

  // Malformed and invalid configs are 400s, not crashes.
  EXPECT_EQ(server.handle(request("POST", "/jobs", "not json")).status, 400);
  EXPECT_EQ(server.handle(request("POST", "/jobs", R"({"rigs": 4})")).status, 400);

  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "alice")).status, 201);
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "alice")).status, 201);

  // Tenant quota: alice's third active job bounces, bob still fits.
  const HttpResponse quota = server.handle(request("POST", "/jobs", body, "alice"));
  EXPECT_EQ(quota.status, 429);
  ASSERT_TRUE(quota.extra_headers.count("Retry-After"));
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "bob")).status, 201);

  // Server-wide queue limit: three active jobs, everyone bounces.
  const HttpResponse full = server.handle(request("POST", "/jobs", body, "carol"));
  EXPECT_EQ(full.status, 429);
  ASSERT_TRUE(full.extra_headers.count("Retry-After"));

  // Cancelling frees a slot.
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/1")).status, 200);
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/1")).status, 409);
  EXPECT_EQ(parse(server.handle(request("GET", "/jobs/1"))).at("state").text, "cancelled");
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "carol")).status, 201);

  // Unknowns and wrong methods.
  EXPECT_EQ(server.handle(request("GET", "/jobs/99")).status, 404);
  EXPECT_EQ(server.handle(request("DELETE", "/jobs/99")).status, 404);
  EXPECT_EQ(server.handle(request("GET", "/nope")).status, 404);
  EXPECT_EQ(server.handle(request("PUT", "/jobs")).status, 405);
  EXPECT_EQ(server.handle(request("GET", "/jobs/1/report")).status, 404);

  const campaign::JsonValue list = parse(server.handle(request("GET", "/jobs")));
  EXPECT_EQ(list.at("jobs").items.size(), 4u);

  // Draining refuses all new work with a 503.
  server.drain();
  EXPECT_EQ(server.handle(request("POST", "/jobs", body, "dave")).status, 503);
  const campaign::JsonValue statz =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(statz.at("draining").boolean, true);
  EXPECT_GE(statz.at("serve.jobs_rejected").as_u64(), 4u);
}

TEST(ServeServer, CancelWhileRunningIsSafe) {
  // Regression: DELETE on a *running* job must not close the metrics-stream
  // writer out from under a rig's in-flight sampler (use-after-free). The
  // writers now stay open until the last rig retires; this hammers the
  // cancel path at varying points in the run.
  const TempDir dir("serve_server_test_cancel");
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  for (int round = 0; round < 5; ++round) {
    // A distinct channel per round: fresh shards, so the cache never
    // short-circuits the run we are trying to cancel mid-flight.
    CampaignConfig config = quick_config();
    config.channels = {static_cast<std::uint32_t>(round)};
    const HttpResponse created =
        server.handle(request("POST", "/jobs", to_canonical_json(config), "alice"));
    ASSERT_EQ(created.status, 201) << created.body;
    const std::uint64_t id = parse(created).at("id").as_u64();
    std::this_thread::sleep_for(std::chrono::milliseconds(round));
    const HttpResponse cancelled =
        server.handle(request("DELETE", "/jobs/" + std::to_string(id)));
    // The rigs may have already finished by the time the DELETE lands.
    ASSERT_TRUE(cancelled.status == 200 || cancelled.status == 409) << cancelled.body;
    const std::string state = wait_terminal(server, id);
    if (cancelled.status == 200) {
      EXPECT_EQ(state, "cancelled");
      EXPECT_EQ(parse(cancelled).at("state").text, "cancelled");
    }
  }

  // Drain joins the rigs: every cancelled job's writers are closed by its
  // last retire, and the server is still fully queryable.
  server.drain();
  const HttpResponse list = server.handle(request("GET", "/jobs"));
  ASSERT_EQ(list.status, 200);
  EXPECT_EQ(parse(list).at("jobs").items.size(), 5u);
  for (int round = 0; round < 5; ++round) {
    const std::string id = std::to_string(round + 1);
    EXPECT_EQ(server.handle(request("GET", "/jobs/" + id)).status, 200);
    EXPECT_EQ(server.handle(request("GET", "/jobs/" + id + "/stream")).status, 200);
  }
}

TEST(ServeServer, HealthzAndStatzShapes) {
  const TempDir dir("serve_server_test_statz");
  Server::Options options;
  options.data_dir = dir.str();
  Server server(options);
  std::filesystem::create_directories(dir.str());

  const HttpResponse health = server.handle(request("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(parse(health).at("ok").boolean, true);

  const campaign::JsonValue statz =
      campaign::parse_json(server.handle(request("GET", "/statz")).body, "statz");
  EXPECT_EQ(statz.at("schema").text, "rh-serve-statz/v1");
  EXPECT_EQ(statz.at("serve.jobs_submitted").as_u64(), 0u);
  EXPECT_EQ(statz.at("serve.rigs").as_u64(), 2u);
  EXPECT_EQ(statz.at("campaign.shards_run").as_u64(), 0u);
}

}  // namespace
}  // namespace rh::serve
