// The service observability plane end to end: /metricsz scrape stability,
// the serve.* instrumentation catalogue, the JSONL access log (including
// the malformed-framing 400 path over a real socket), steal accounting
// agreement between /statz and /metricsz, per-tenant accounting on both
// surfaces, and the flight recorder's ring/dump semantics.
#include "serve/observe.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/record_io.hpp"
#include "resilience/storage.hpp"
#include "scratch_dir.hpp"
#include "serve/config.hpp"
#include "serve/server.hpp"

namespace rh::serve {
namespace {

/// serve_server_test's quick sweep: 2 channels x 512-stride BER-only survey
/// in 2-row shards -> 18 fast shards.
CampaignConfig quick_config() {
  CampaignConfig config;
  config.label = "serve-metrics-test";
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

/// Polls GET /jobs/<id> through the *uninstrumented* handle() so waiting
/// does not move the serve.http_* metrics under test.
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

/// Waits for `kind` to appear in the flight recorder. A job's terminal
/// state is visible over HTTP a beat before the rig thread's finalize
/// callback records the event, so event assertions poll briefly.
bool wait_for_event(Server& server, ServiceEventKind kind) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    for (const ServiceEvent& e : server.flightrec().events()) {
      if (e.kind == kind) return true;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// The value of an unlabeled sample line `<name> <value>` in an exposition
/// document. Fails the test when the sample is absent.
double metric_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  auto pos = text.rfind(needle);
  if (pos == std::string::npos && text.rfind(name + " ", 0) == 0) {
    pos = 0;
  } else if (pos != std::string::npos) {
    pos += 1;  // skip the leading newline
  }
  if (pos == std::string::npos) {
    ADD_FAILURE() << "sample " << name << " not found in exposition";
    return -1.0;
  }
  const auto value_at = pos + name.size() + 1;
  return std::stod(text.substr(value_at));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Unframes a CRC-framed access-log/flightrec line, asserting integrity.
std::string unframe(const std::string& line) {
  std::string_view payload;
  EXPECT_EQ(resilience::check_frame(line, payload), resilience::FrameCheck::kFramed) << line;
  return std::string(payload);
}

TEST(ServeMetrics, FixedRequestSequenceYieldsExactCountsAndStableScrapes) {
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  // The fixed job-API sequence: 201, 200, 404, then (after the job lands)
  // a 200 report fetch — 4 instrumented requests, 3 of them 2xx.
  const HttpResponse created = server.handle_observed(
      request("POST", "/jobs", to_canonical_json(quick_config()), "alice"));
  ASSERT_EQ(created.status, 201) << created.body;
  const std::uint64_t id = parse(created).at("id").as_u64();
  EXPECT_EQ(server.handle_observed(request("GET", "/jobs")).status, 200);
  EXPECT_EQ(server.handle_observed(request("GET", "/jobs/999999")).status, 404);
  ASSERT_EQ(wait_terminal(server, id), "done");
  // Tenant shard accounting folds in on the rig thread's finalize callback.
  ASSERT_TRUE(wait_for_event(server, ServiceEventKind::kFinalize));
  EXPECT_EQ(
      server.handle_observed(request("GET", "/jobs/" + std::to_string(id) + "/report?det=1"))
          .status,
      200);

  // Consecutive scrapes are byte-identical: observability endpoints never
  // self-instrument, so scraping cannot move the metrics being scraped.
  const HttpResponse scrape1 = server.handle_observed(request("GET", "/metricsz"));
  const HttpResponse scrape2 = server.handle_observed(request("GET", "/metricsz"));
  ASSERT_EQ(scrape1.status, 200);
  EXPECT_EQ(scrape1.content_type, "text/plain; version=0.0.4");
  EXPECT_EQ(scrape1.body, scrape2.body);
  EXPECT_EQ(scrape1.body, server.metricsz_text());

  // Exact catalogue counts for the fixed sequence and the 18-shard sweep.
  const std::string& text = scrape1.body;
  EXPECT_EQ(metric_value(text, "serve_http_requests"), 4.0);
  EXPECT_EQ(metric_value(text, "serve_http_2xx"), 3.0);
  EXPECT_EQ(metric_value(text, "serve_http_4xx"), 1.0);
  EXPECT_EQ(metric_value(text, "serve_http_5xx"), 0.0);
  EXPECT_EQ(metric_value(text, "serve_http_request_us_count"), 4.0);
  EXPECT_EQ(metric_value(text, "serve_queue_wait_ms_count"), 18.0);
  EXPECT_EQ(metric_value(text, "serve_shard_exec_ms_count"), 18.0);
  EXPECT_EQ(metric_value(text, "serve_cache_lookup_us_count"), 18.0);
  EXPECT_EQ(metric_value(text, "serve_cache_hit_us_count"), 0.0);
  EXPECT_EQ(metric_value(text, "campaign_shards_run"), 18.0);
  EXPECT_EQ(metric_value(text, "serve_jobs_done"), 1.0);
  EXPECT_EQ(metric_value(text, "serve_jobs_submitted"), 1.0);
  EXPECT_NE(text.find("serve_tenant_jobs_submitted{tenant=\"alice\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_tenant_shards_run{tenant=\"alice\"} 18\n"), std::string::npos);
  // Every histogram family carries the full bucket encoding.
  for (const char* family :
       {"serve_http_request_us", "serve_queue_wait_ms", "serve_steal_wait_ms",
        "serve_shard_exec_ms", "serve_cache_lookup_us", "serve_cache_hit_us"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " histogram\n"), std::string::npos)
        << family;
    EXPECT_NE(text.find(std::string(family) + "_bucket{le=\"+Inf\"}"), std::string::npos)
        << family;
    EXPECT_NE(text.find(std::string(family) + "_sum "), std::string::npos) << family;
  }
  // Wall-clock series live in /statz only — a scrape must be a pure
  // function of the request/shard history.
  EXPECT_EQ(text.find("uptime"), std::string::npos);
  EXPECT_EQ(text.find("utilization"), std::string::npos);
  EXPECT_EQ(text.find("busy_ms"), std::string::npos);
}

TEST(ServeMetrics, AccessLogRecordsEveryRequestWithFramedLines) {
  const test::ScratchDir dir;
  const std::string log_path = dir.str() + "/access-log.jsonl";
  {
    Server::Options options;
    options.data_dir = dir.str();
    options.rigs = 2;
    Server server(options);
    server.start();
    ASSERT_NE(server.access_log(), nullptr);
    EXPECT_EQ(server.access_log()->path(), log_path);

    const HttpResponse created = server.handle_observed(
        request("POST", "/jobs", to_canonical_json(quick_config()), "alice"));
    ASSERT_EQ(created.status, 201);
    EXPECT_EQ(server.handle_observed(request("GET", "/healthz")).status, 200);
    EXPECT_EQ(server.handle_observed(request("GET", "/jobs/999999")).status, 404);
    EXPECT_EQ(server.handle_observed(request("POST", "/jobs", "{", "mallory")).status, 400);
    EXPECT_FALSE(server.access_log()->degraded());
    wait_terminal(server, parse(created).at("id").as_u64());
  }

  const std::vector<std::string> lines = read_lines(log_path);
  ASSERT_EQ(lines.size(), 4u);
  std::vector<campaign::JsonValue> docs;
  for (const std::string& line : lines) {
    docs.push_back(campaign::parse_json(unframe(line), "access-log line"));
  }
  EXPECT_EQ(docs[0].at("method").text, "POST");
  EXPECT_EQ(docs[0].at("path").text, "/jobs");
  EXPECT_EQ(docs[0].at("status").as_u64(), 201u);
  EXPECT_EQ(docs[0].at("tenant").text, "alice");
  EXPECT_EQ(docs[0].at("outcome").text, "ok");
  EXPECT_GT(docs[0].at("bytes").as_u64(), 0u);
  EXPECT_GE(docs[0].at("wall_us").as_double(), 0.0);
  // Observability endpoints are excluded from metrics but logged anyway.
  EXPECT_EQ(docs[1].at("path").text, "/healthz");
  EXPECT_EQ(docs[1].at("outcome").text, "ok");
  EXPECT_EQ(docs[2].at("status").as_u64(), 404u);
  EXPECT_EQ(docs[2].at("outcome").text, "client-error");
  EXPECT_EQ(docs[3].at("status").as_u64(), 400u);
  EXPECT_EQ(docs[3].at("outcome").text, "client-error");
  EXPECT_EQ(docs[3].at("tenant").text, "mallory");
}

TEST(ServeMetrics, MalformedFramingIsAnswered400AndLoggedAsMalformed) {
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 1;
  Server server(options);
  server.start();
  std::thread pump([&server] { server.serve([] { return false; }); });

  // Raw TCP garbage: never parses as HTTP, so the server must answer 400
  // and log the request with "-" placeholders and the "malformed" outcome.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const char garbage[] = "this is not http\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof garbage - 1, 0), 0);
  std::string response;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("400"), std::string::npos) << response;

  server.drain();
  pump.join();

  // DurableFile fsyncs per line, so the log is readable while the server
  // still holds it open.
  ASSERT_NE(server.access_log(), nullptr);
  const std::vector<std::string> lines = read_lines(server.access_log()->path());
  ASSERT_FALSE(lines.empty());
  const campaign::JsonValue doc =
      campaign::parse_json(unframe(lines.back()), "access-log line");
  EXPECT_EQ(doc.at("method").text, "-");
  EXPECT_EQ(doc.at("path").text, "-");
  EXPECT_EQ(doc.at("status").as_u64(), 400u);
  EXPECT_EQ(doc.at("outcome").text, "malformed");

  // Malformed framing is still a served request (it is not one of the
  // excluded observability endpoints), so it counts as an HTTP 4xx.
  const std::string text = server.metricsz_text();
  EXPECT_EQ(metric_value(text, "serve_http_requests"), 1.0);
  EXPECT_EQ(metric_value(text, "serve_http_4xx"), 1.0);
}

TEST(ServeMetrics, StealCounterAgreesWithTheStealHistogramAndRigRows) {
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  options.retries = 2;
  Server server(options);
  server.start();

  // Provoke a steal: a fat single-shard job pins one rig, then a
  // small-shard job deals its shards over both deques — the free rig
  // drains its own deque and steals the shards queued behind the pinned
  // rig. (If the fat shard itself gets stolen at the start, the roles swap
  // symmetrically.) Whether the pinned rig finishes first is up to the OS
  // scheduler, so on a loaded host a round can end without a steal: run up
  // to five rounds, each on a fresh channel so the cache never answers.
  std::uint64_t stolen = 0;
  for (std::uint32_t round = 0; round < 5 && stolen == 0; ++round) {
    CampaignConfig fat = quick_config();
    fat.channels = {round};
    fat.max_rows_per_shard = 64;  // the whole channel as one shard
    fat.label = "steal-fat";
    const HttpResponse fat_created =
        server.handle(request("POST", "/jobs", to_canonical_json(fat), "alice"));
    ASSERT_EQ(fat_created.status, 201) << fat_created.body;
    const std::uint64_t fat_id = parse(fat_created).at("id").as_u64();

    CampaignConfig small = quick_config();
    small.channels = {round};
    small.label = "steal-small";
    const HttpResponse small_created =
        server.handle(request("POST", "/jobs", to_canonical_json(small), "alice"));
    ASSERT_EQ(small_created.status, 201) << small_created.body;
    const std::uint64_t small_id = parse(small_created).at("id").as_u64();

    ASSERT_EQ(wait_terminal(server, fat_id), "done");
    ASSERT_EQ(wait_terminal(server, small_id), "done");
    stolen = parse(server.handle(request("GET", "/statz"))).at("serve.shards_stolen").as_u64();
  }
  ASSERT_GT(stolen, 0u) << "no steal in five rounds with one rig pinned on a fat shard";

  // The counter and the steal-wait histogram account the same events: one
  // observation per stolen task, on both surfaces.
  const std::string text = server.metricsz_text();
  EXPECT_EQ(metric_value(text, "serve_shards_stolen"), static_cast<double>(stolen));
  EXPECT_EQ(metric_value(text, "serve_steal_wait_ms_count"), static_cast<double>(stolen));
  // Stolen tasks waited in a queue too: the queue-wait histogram includes
  // every steal-wait observation.
  EXPECT_GE(metric_value(text, "serve_queue_wait_ms_count"),
            metric_value(text, "serve_steal_wait_ms_count"));

  // /statz's per-rig rows sum to the same total.
  const campaign::JsonValue statz = parse(server.handle(request("GET", "/statz")));
  std::uint64_t rig_sum = 0;
  for (const campaign::JsonValue& rig : statz.at("rigs").items) {
    rig_sum += rig.at("steals").as_u64();
  }
  EXPECT_EQ(rig_sum, stolen);
  // The flight recorder saw each steal as an event.
  std::uint64_t steal_events = 0;
  for (const ServiceEvent& e : server.flightrec().events()) {
    if (e.kind == ServiceEventKind::kSteal) ++steal_events;
  }
  EXPECT_EQ(steal_events, stolen);
}

TEST(ServeMetrics, TenantAccountingAndRetryAfterOnBothRejectPaths) {
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.queue_limit = 2;
  options.tenant_quota = 1;
  // No start(): the rig pool never runs, so admitted jobs stay active and
  // the admission decisions below are deterministic.
  Server server(options);

  const std::string body = to_canonical_json(quick_config());
  ASSERT_EQ(server.handle(request("POST", "/jobs", body, "alice")).status, 201);
  const HttpResponse quota = server.handle(request("POST", "/jobs", body, "alice"));
  ASSERT_EQ(quota.status, 429);
  EXPECT_TRUE(quota.extra_headers.count("Retry-After"));
  ASSERT_EQ(server.handle(request("POST", "/jobs", body, "bob")).status, 201);
  const HttpResponse full = server.handle(request("POST", "/jobs", body, "carol"));
  ASSERT_EQ(full.status, 429);
  EXPECT_TRUE(full.extra_headers.count("Retry-After"));
  ASSERT_EQ(server.handle(request("POST", "/jobs", "{", "dave")).status, 400);

  // /statz: per-tenant rows, sorted by tenant, each carrying the quota.
  const campaign::JsonValue statz = parse(server.handle(request("GET", "/statz")));
  const auto& tenants = statz.at("tenants").items;
  ASSERT_EQ(tenants.size(), 4u);
  EXPECT_EQ(tenants[0].at("tenant").text, "alice");
  EXPECT_EQ(tenants[0].at("active").as_u64(), 1u);
  EXPECT_EQ(tenants[0].at("submitted").as_u64(), 1u);
  EXPECT_EQ(tenants[0].at("rejected").as_u64(), 1u);
  EXPECT_EQ(tenants[0].at("quota").as_u64(), 1u);
  EXPECT_EQ(tenants[1].at("tenant").text, "bob");
  EXPECT_EQ(tenants[1].at("rejected").as_u64(), 0u);
  EXPECT_EQ(tenants[2].at("tenant").text, "carol");
  EXPECT_EQ(tenants[2].at("submitted").as_u64(), 0u);
  EXPECT_EQ(tenants[2].at("rejected").as_u64(), 1u);
  EXPECT_EQ(tenants[3].at("tenant").text, "dave");
  EXPECT_EQ(tenants[3].at("rejected").as_u64(), 1u);

  // /metricsz agrees, per tenant and in aggregate.
  const std::string text = server.metricsz_text();
  EXPECT_NE(text.find("serve_tenant_quota{tenant=\"alice\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("serve_tenant_jobs_rejected{tenant=\"carol\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("serve_tenant_active{tenant=\"bob\"} 1\n"), std::string::npos);
  EXPECT_EQ(metric_value(text, "serve_jobs_rejected"), 3.0);
  EXPECT_EQ(metric_value(text, "serve_jobs_submitted"), 2.0);
}

TEST(ServeMetrics, FlightRecorderRingDropsOldestAndCountsDropped) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  for (int i = 0; i < 6; ++i) {
    rec.record(ServiceEventKind::kAdmit, static_cast<std::uint64_t>(i + 1), "alice",
               "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.recorded(), 6u);
  const std::vector<ServiceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first; the first two events fell off the ring.
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.back().seq, 5u);
  EXPECT_EQ(events.front().detail, "event 2");

  // The dump: one rh-flightrec header line, then the ring, every line JSON.
  std::istringstream dump(rec.dump_jsonl());
  std::string line;
  ASSERT_TRUE(std::getline(dump, line));
  const campaign::JsonValue header = campaign::parse_json(line, "dump header");
  EXPECT_EQ(header.at("kind").text, "rh-flightrec");
  EXPECT_EQ(header.at("version").as_u64(), 1u);
  EXPECT_EQ(header.at("capacity").as_u64(), 4u);
  EXPECT_EQ(header.at("recorded").as_u64(), 6u);
  EXPECT_EQ(header.at("dropped").as_u64(), 2u);
  std::size_t body_lines = 0;
  while (std::getline(dump, line)) {
    const campaign::JsonValue event = campaign::parse_json(line, "dump event");
    EXPECT_EQ(event.at("kind").text, "admit");
    EXPECT_EQ(event.at("tenant").text, "alice");
    ++body_lines;
  }
  EXPECT_EQ(body_lines, 4u);
}

TEST(ServeMetrics, ServerDumpsTheFlightRecorderOnDemand) {
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.rigs = 2;
  Server server(options);
  server.start();

  const HttpResponse created = server.handle_observed(
      request("POST", "/jobs", to_canonical_json(quick_config()), "alice"));
  ASSERT_EQ(created.status, 201);
  ASSERT_EQ(wait_terminal(server, parse(created).at("id").as_u64()), "done");
  ASSERT_TRUE(wait_for_event(server, ServiceEventKind::kFinalize));

  // The SIGQUIT path: a dump event is recorded, then the ring lands on
  // disk as a parseable JSONL document under the data dir.
  const std::string path = server.dump_flightrec("sigquit");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind(dir.str() + "/flightrec-", 0), 0u) << path;
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(campaign::parse_json(lines[0], "header").at("kind").text, "rh-flightrec");
  bool saw_admit = false;
  bool saw_finalize = false;
  bool saw_dump = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const campaign::JsonValue event = campaign::parse_json(lines[i], "event");
    const std::string& kind = event.at("kind").text;
    saw_admit = saw_admit || kind == "admit";
    saw_finalize = saw_finalize || kind == "finalize";
    if (kind == "dump") {
      saw_dump = true;
      EXPECT_EQ(event.at("detail").text, "sigquit");
    }
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_finalize);
  EXPECT_TRUE(saw_dump);

  // GET /debugz/flightrec serves the same ring over HTTP.
  const HttpResponse debugz = server.handle_observed(request("GET", "/debugz/flightrec"));
  ASSERT_EQ(debugz.status, 200);
  EXPECT_EQ(debugz.content_type, "application/x-ndjson");
  std::istringstream in(debugz.body);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(campaign::parse_json(line, "header").at("kind").text, "rh-flightrec");
}

TEST(ServeMetrics, AccessLogGoesDarkOnStorageFailureInsteadOfThrowing) {
  const test::ScratchDir dir;
  resilience::StorageFaultPlan plan;
  plan.script.push_back({resilience::StorageFaultKind::kEnospc, 1});
  resilience::StorageFaultInjector injector(std::move(plan));
  AccessLog log(dir.str() + "/access.jsonl", &injector);

  AccessRecord record;
  record.method = "GET";
  record.path = "/healthz";
  record.tenant = "alice";
  record.outcome = "ok";
  record.status = 200;
  log.record(record);  // lands
  EXPECT_FALSE(log.degraded());
  log.record(record);  // injected ENOSPC: the log goes dark, no throw
  EXPECT_TRUE(log.degraded());
  EXPECT_NE(log.storage_error().find("access log"), std::string::npos);
  log.record(record);  // dark log swallows further records
  EXPECT_TRUE(log.degraded());

  const std::vector<std::string> lines = read_lines(dir.str() + "/access.jsonl");
  ASSERT_EQ(lines.size(), 1u);
  const campaign::JsonValue doc =
      campaign::parse_json(unframe(lines[0]), "access-log line");
  EXPECT_EQ(doc.at("path").text, "/healthz");
}

TEST(ServeMetrics, DarkAccessLogCountsAsAStorageError) {
  // The same script, through a server with no job: only the access log
  // draws, so its second record goes dark.
  const test::ScratchDir dir;
  Server::Options options;
  options.data_dir = dir.str();
  options.storage_plan.script.push_back({resilience::StorageFaultKind::kEnospc, 1});
  Server server(options);
  server.start();
  EXPECT_EQ(server.handle_observed(request("GET", "/jobs")).status, 200);
  EXPECT_EQ(server.handle_observed(request("GET", "/jobs")).status, 200);
  ASSERT_NE(server.access_log(), nullptr);
  ASSERT_TRUE(server.access_log()->degraded());

  const campaign::JsonValue healthz = parse(server.handle(request("GET", "/healthz")));
  EXPECT_TRUE(healthz.at("degraded").boolean);
  const std::uint64_t storage_errors = healthz.at("storage_errors").as_u64();
  EXPECT_GE(storage_errors, 1u);
  const campaign::JsonValue statz = parse(server.handle(request("GET", "/statz")));
  EXPECT_EQ(statz.at("serve.storage_errors").as_u64(), storage_errors);
  EXPECT_EQ(metric_value(server.metricsz_text(), "serve_access_log_degraded"), 1.0);
}

}  // namespace
}  // namespace rh::serve
