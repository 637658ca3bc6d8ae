#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/record_io.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "resilience/storage.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"

namespace rh::serve {

namespace {

HttpResponse json_response(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  resp.body += '\n';
  return resp;
}

HttpResponse error_response(int status, const std::string& message) {
  return json_response(status, "{\"error\":\"" + telemetry::json_escape(message) + "\"}");
}

/// True iff `name` is exactly job-<digits>.json — the descriptor, not the
/// report/journal/stream siblings that share the prefix.
bool is_job_descriptor(const std::string& name, std::uint64_t& id) {
  if (name.rfind("job-", 0) != 0) return false;
  const std::string::size_type dot = name.find('.');
  if (dot == std::string::npos || name.substr(dot) != ".json") return false;
  const std::string digits = name.substr(4, dot - 4);
  if (digits.empty()) return false;
  for (const char c : digits) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  id = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// The accounting identity of a request: the X-Tenant header, "anonymous"
/// when absent or empty.
std::string tenant_of(const HttpRequest& req) {
  const auto it = req.headers.find("x-tenant");
  if (it != req.headers.end() && !it->second.empty()) return it->second;
  return "anonymous";
}

/// The read-only observability endpoints are excluded from the serve.http_*
/// metrics so a scrape never moves the metrics it reads — that is what
/// makes consecutive /metricsz scrapes byte-identical.
bool is_observability_path(const std::string& path) {
  return path == "/healthz" || path == "/statz" || path == "/metricsz" ||
         path.rfind("/debugz/", 0) == 0;
}

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Opens a job's metrics stream (its wall samples come at shard
/// completions, so the header's wall cadence is 0).
void open_stream(Job& job, const Server::Options& options) {
  job.run->open_stream(job.stream_path,
                       {job.spec.device.fault.seed, job.hash,
                        static_cast<std::uint64_t>(job.spec.shards.size()), options.rigs,
                        options.stream_cycle_cadence, 0.0},
                       job.stream_injector.get());
}

/// The header a job's journal must carry.
campaign::JournalHeader journal_header(const Job& job) {
  return {job.spec.device.fault.seed, job.hash,
          static_cast<std::uint64_t>(job.spec.shards.size())};
}

/// A shard answered without a rig (result cache or journal): the run books
/// it as skipped through the same ShardRun::restore a `--resume` skip takes;
/// the job counts it cached.
void restore_shard(Job& job, std::uint64_t shard, std::vector<core::RowRecord> records) {
  job.run->restore(shard, std::move(records));
  --job.remaining;
  ++job.shards_cached;
}

/// Restores every journaled shard of the job's sweep, warming the cache
/// with each.
void restore_journaled(Job& job, const campaign::JournalReader& reader, ResultCache& cache) {
  for (const auto& [index, records] : reader.shards()) {
    if (index >= job.spec.shards.size()) continue;
    cache.insert(shard_cache_key(job.cache_prefix, job.spec.shards[index]), records);
    restore_shard(job, index, records);
  }
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      flightrec_(std::max<std::size_t>(1, options_.flightrec_size)),
      started_(std::chrono::steady_clock::now()),
      scheduler_(
          [&] {
            Scheduler::Options so;
            so.rigs = std::max(1u, options_.rigs);
            so.metrics = &metrics_;
            so.flightrec = &flightrec_;
            return so;
          }(),
          cache_) {
  options_.rigs = std::max(1u, options_.rigs);
  if (options_.data_dir.empty()) options_.data_dir = ".";
  if (options_.access_log.empty()) options_.access_log = options_.data_dir + "/access-log.jsonl";
}

Server::~Server() { drain(); }

std::string Server::job_path(std::uint64_t id, const char* suffix) const {
  return options_.data_dir + "/job-" + std::to_string(id) + suffix;
}

void Server::start() {
  std::filesystem::create_directories(options_.data_dir);
  try {
    if (options_.storage_plan.enabled()) {
      // The access log gets its own fault stream, decorrelated from every
      // job's durable outputs.
      resilience::StorageFaultPlan aplan = options_.storage_plan;
      aplan.seed = common::hash_coords(options_.storage_plan.seed, 0x0b5u, 0);
      access_injector_ = std::make_unique<resilience::StorageFaultInjector>(std::move(aplan));
    }
    access_log_ = std::make_unique<AccessLog>(options_.access_log, access_injector_.get());
  } catch (const common::Error& e) {
    // An unopenable access log degrades the server, it does not stop it.
    storage_errors_.fetch_add(1);
    flightrec_.record(ServiceEventKind::kStorageError, 0, "", e.what());
  }
  scheduler_.set_on_finalized([this](const std::shared_ptr<Job>& job) { on_finalized(job); });
  recover();
  scheduler_.start();
  // Re-enqueue recovered active jobs only once the rigs exist.
  std::vector<std::shared_ptr<Job>> active;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      const std::lock_guard<std::mutex> jlock(job->mutex);
      if (job_state_active(job->state)) active.push_back(job);
    }
  }
  for (const auto& job : active) scheduler_.enqueue(job);
  listener_ = std::make_unique<TcpListener>(options_.port);
  port_ = listener_->port();
}

void Server::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  scheduler_.stop();
}

void Server::serve(const std::function<bool()>& should_stop) {
  while (listener_ != nullptr) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) break;
    }
    if (should_stop && should_stop()) break;
    const int fd = listener_->accept_connection(250);
    if (fd < 0) continue;
    HttpRequest req;
    bool have_request = false;
    const auto start = std::chrono::steady_clock::now();
    try {
      req = read_http_request(fd);
      have_request = true;
    } catch (const HttpError& e) {
      // Malformed or over-limit framing: the documented contract is a
      // 400, not a silent close (best-effort — the peer may be gone).
      // The request never parsed, so the access-log line carries "-" for
      // method/path and the explicit "malformed" outcome.
      const HttpResponse resp = error_response(400, e.what());
      note_request("-", "-", "anonymous", resp, us_since(start), "malformed");
      try {
        write_http_response(fd, resp);
      } catch (const std::exception&) {
      }
    } catch (const std::exception&) {
      // Socket failure, read timeout, or a peer that hung up mid-read:
      // nothing sane to answer — drop the connection, keep serving.
    }
    if (have_request) {
      try {
        write_http_response(fd, handle_observed(req));
      } catch (const std::exception&) {
        // Peer hung up before the response landed: drop, keep serving.
      }
    }
    close_fd(fd);
  }
  drain();
}

std::shared_ptr<Job> Server::find_job(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second : nullptr;
}

HttpResponse Server::handle(const HttpRequest& req) {
  std::string path = req.target;
  std::string query;
  if (const std::string::size_type q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }

  if (path == "/healthz") {
    if (req.method != "GET") return error_response(405, "use GET");
    return json_response(200, healthz_json());
  }
  if (path == "/statz") {
    if (req.method != "GET") return error_response(405, "use GET");
    return json_response(200, statz_json());
  }
  if (path == "/metricsz") {
    if (req.method != "GET") return error_response(405, "use GET");
    HttpResponse resp;
    resp.status = 200;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = metricsz_text();
    return resp;
  }
  if (path == "/debugz/flightrec") {
    if (req.method != "GET") return error_response(405, "use GET");
    HttpResponse resp;
    resp.status = 200;
    resp.content_type = "application/x-ndjson";
    resp.body = flightrec_.dump_jsonl();
    return resp;
  }
  if (path == "/jobs") {
    if (req.method == "POST") return submit(req);
    if (req.method == "GET") return list_jobs();
    return error_response(405, "use GET or POST");
  }
  if (path.rfind("/jobs/", 0) == 0) {
    const std::string rest = path.substr(6);
    const std::string::size_type slash = rest.find('/');
    const std::string id_text = rest.substr(0, slash);
    if (id_text.empty() ||
        id_text.find_first_not_of("0123456789") != std::string::npos) {
      return error_response(404, "no such job: " + id_text);
    }
    const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);
    const std::shared_ptr<Job> job = find_job(id);
    if (job == nullptr) return error_response(404, "no such job: " + id_text);
    const std::string sub = slash == std::string::npos ? "" : rest.substr(slash);

    if (sub.empty()) {
      if (req.method == "DELETE") return cancel_job(id);
      if (req.method != "GET") return error_response(405, "use GET or DELETE");
      const std::lock_guard<std::mutex> lock(job->mutex);
      return json_response(200, job_status_json(*job));
    }
    if (req.method != "GET") return error_response(405, "use GET");
    if (sub == "/report") {
      {
        const std::lock_guard<std::mutex> lock(job->mutex);
        if (!job->finalized) {
          return error_response(404, "job " + id_text + " has no report yet (state " +
                                         to_string(job->state) + ")");
        }
      }
      const bool det = query == "det=1";
      return file_response(det ? job->det_report_path : job->report_path, "application/json");
    }
    if (sub == "/results") return results_response(job);
    if (sub == "/stream") return file_response(job->stream_path, "application/x-ndjson");
    return error_response(404, "no such endpoint: " + path);
  }
  return error_response(404, "no such endpoint: " + path);
}

HttpResponse Server::handle_observed(const HttpRequest& req) {
  const auto start = std::chrono::steady_clock::now();
  HttpResponse resp;
  try {
    resp = handle(req);
  } catch (const HttpError& e) {
    resp = error_response(400, e.what());
  } catch (const std::exception& e) {
    // An unexpected throw is exactly what the flight recorder exists for:
    // record it, dump the ring next to the job files, answer 500.
    resp = error_response(500, e.what());
    flightrec_.record(ServiceEventKind::kFatal, 0, tenant_of(req),
                      req.method + " " + req.target + ": " + e.what());
    (void)flightrec_.dump_to_dir(options_.data_dir);
  }
  note_request(req.method, req.target, tenant_of(req), resp, us_since(start),
               access_outcome(resp.status));
  return resp;
}

void Server::note_request(const std::string& method, const std::string& target,
                          const std::string& tenant, const HttpResponse& resp, double wall_us,
                          const char* outcome) {
  std::string path = target;
  if (const std::string::size_type q = path.find('?'); q != std::string::npos) path.resize(q);
  if (!is_observability_path(path)) {
    metrics_.add("serve.http_requests");
    if (resp.status >= 500) {
      metrics_.add("serve.http_5xx");
    } else if (resp.status >= 400) {
      metrics_.add("serve.http_4xx");
    } else {
      metrics_.add("serve.http_2xx");
    }
    metrics_.observe("serve.http_request_us", wall_us);
  }
  if (access_log_ != nullptr) {
    AccessRecord record;
    record.method = method;
    record.path = target;
    record.tenant = tenant;
    record.outcome = outcome;
    record.status = resp.status;
    record.bytes = resp.body.size();
    record.wall_us = wall_us;
    access_log_->record(record);
  }
}

std::string Server::dump_flightrec(const std::string& reason) {
  flightrec_.record(ServiceEventKind::kDump, 0, "", reason);
  return flightrec_.dump_to_dir(options_.data_dir);
}

HttpResponse Server::submit(const HttpRequest& req) {
  // The tenant is read before anything can fail so every rejection is
  // attributed to the tenant that caused it.
  const std::string tenant = tenant_of(req);
  const auto reject = [&](HttpResponse resp, const char* why) {
    jobs_rejected_.fetch_add(1);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++tenants_[tenant].rejected;
    }
    flightrec_.record(ServiceEventKind::kReject, 0, tenant,
                      std::string(why) + " (" + std::to_string(resp.status) + ")");
    return resp;
  };

  CampaignConfig config;
  try {
    config = config_from_json(req.body, "request body");
  } catch (const common::Error& e) {
    return reject(error_response(400, e.what()), "malformed config");
  }

  std::shared_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
      lock.unlock();
      return reject(error_response(503, "server is draining"), "draining");
    }
    std::size_t active = 0;
    std::size_t tenant_active = 0;
    for (const auto& [id, existing] : jobs_) {
      const std::lock_guard<std::mutex> jlock(existing->mutex);
      if (!job_state_active(existing->state)) continue;
      ++active;
      if (existing->tenant == tenant) ++tenant_active;
    }
    if (active >= options_.queue_limit) {
      lock.unlock();
      HttpResponse resp = error_response(429, "server queue is full (" +
                                                  std::to_string(active) + " active jobs)");
      resp.extra_headers.emplace("Retry-After", "1");
      return reject(std::move(resp), "queue full");
    }
    if (tenant_active >= options_.tenant_quota) {
      lock.unlock();
      HttpResponse resp =
          error_response(429, "tenant \"" + tenant + "\" is over quota (" +
                                  std::to_string(tenant_active) + " active jobs)");
      resp.extra_headers.emplace("Retry-After", "1");
      return reject(std::move(resp), "tenant over quota");
    }

    const std::uint64_t id = next_id_++;
    job = make_job(id, tenant, std::move(config));
    prepare_fresh(*job);
    jobs_.emplace(id, job);
    ++tenants_[tenant].submitted;
  }
  jobs_submitted_.fetch_add(1);
  flightrec_.record(ServiceEventKind::kAdmit, job->id, tenant,
                    std::to_string(job->spec.shards.size()) + " shards");

  bool fully_cached = false;
  {
    const std::lock_guard<std::mutex> jlock(job->mutex);
    fully_cached = job->remaining == 0;
  }
  persist_meta(*job);  // descriptor on disk before any rig can touch the job
  if (fully_cached) jobs_cache_hit_.fetch_add(1);
  scheduler_.enqueue(job);  // fully-cached jobs finalize inline here
  // Status is read *after* enqueue so a job born fully cached answers its
  // own submission with state "done" (and cache_hit true), not "queued".
  std::string body;
  {
    const std::lock_guard<std::mutex> jlock(job->mutex);
    body = job_status_json(*job);
  }
  return json_response(201, std::move(body));
}

HttpResponse Server::list_jobs() {
  std::string body = "{\"jobs\":[";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const auto& [id, job] : jobs_) {
      if (!first) body += ',';
      first = false;
      const std::lock_guard<std::mutex> jlock(job->mutex);
      body += job_status_json(*job);
    }
  }
  body += "]}";
  return json_response(200, std::move(body));
}

HttpResponse Server::cancel_job(std::uint64_t id) {
  const std::shared_ptr<Job> job = find_job(id);
  if (job == nullptr) return error_response(404, "no such job: " + std::to_string(id));
  std::string body;
  {
    const std::lock_guard<std::mutex> lock(job->mutex);
    if (!job_state_active(job->state)) {
      return error_response(409,
                            "job " + std::to_string(id) + " is already " +
                                to_string(job->state));
    }
    job->cancel.store(true, std::memory_order_relaxed);
    job->state = JobState::kCancelled;
    // Close the writers only when no rig holds a reference to them: an
    // attached rig's metrics sampler appends to the run's stream outside this
    // lock, so resetting mid-flight is a use-after-free. With rigs
    // attached, the last retire() closes both writers; the in-flight
    // shards finish and journal (DESIGN.md: "claimed shards finish").
    if (job->rigs_attached == 0) {
      job->run->journal.reset();
      job->run->stream.reset();
    }
    body = job_status_json(*job);
  }
  flightrec_.record(ServiceEventKind::kCancel, job->id, job->tenant, "");
  persist_meta(*job);
  return json_response(200, std::move(body));
}

HttpResponse Server::results_response(const std::shared_ptr<Job>& job) {
  std::error_code ec;
  if (!std::filesystem::exists(job->journal_path, ec)) {
    return error_response(404, "job " + std::to_string(job->id) + " has no journal");
  }
  // Reading the intact prefix is safe while a writer holds the file: every
  // append is a whole fsync'd line. Flattening sorts by shard index and
  // re-serializes, so the document is byte-identical no matter how the
  // shards interleaved across rigs, retries, or server restarts.
  campaign::JournalReader reader(job->journal_path);
  std::string body;
  for (const auto& [index, records] : reader.shards()) {
    for (const auto& record : records) {
      campaign::append_row_record_json(body, record);
      body += '\n';
    }
  }
  HttpResponse resp;
  resp.status = 200;
  resp.content_type = "application/x-ndjson";
  resp.body = std::move(body);
  return resp;
}

HttpResponse Server::file_response(const std::string& path, const char* content_type) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return error_response(404, "no such file: " + path);
  }
  HttpResponse resp;
  resp.status = 200;
  resp.content_type = content_type;
  resp.body = resilience::read_file(path);
  return resp;
}

std::string Server::healthz_json() {
  std::uint64_t storage_errors = storage_errors_.load();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      const std::lock_guard<std::mutex> jlock(job->mutex);
      storage_errors += job->run->result.storage_errors;
    }
  }
  std::string out = "{\"degraded\":";
  out += storage_errors > 0 ? "true" : "false";
  out += ",\"ok\":true,\"schema\":\"rh-serve-healthz/v1\",\"storage_errors\":" +
         std::to_string(storage_errors) + "}";
  return out;
}

Server::StatsSnapshot Server::stats_snapshot() {
  StatsSnapshot snap;
  snap.storage_errors = storage_errors_.load();
  snap.uptime_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started_)
          .count();
  std::map<std::string, TenantRow> tenants;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.draining = draining_;
    for (const auto& [tenant, stats] : tenants_) {
      TenantRow& row = tenants[tenant];
      row.tenant = tenant;
      row.stats = stats;
    }
    for (const auto& [id, job] : jobs_) {
      const std::lock_guard<std::mutex> jlock(job->mutex);
      snap.shards_cached += job->shards_cached;
      snap.storage_errors += job->run->result.storage_errors;
      const bool is_active = job_state_active(job->state);
      switch (job->state) {
        case JobState::kQueued: ++snap.queued; ++snap.active; break;
        case JobState::kRunning: ++snap.running; ++snap.active; break;
        case JobState::kDone: ++snap.done; break;
        case JobState::kFailed: ++snap.failed; break;
        case JobState::kCancelled: ++snap.cancelled; break;
      }
      TenantRow& row = tenants[job->tenant];
      row.tenant = job->tenant;  // recovered tenants may have no stats row yet
      if (is_active) ++row.active;
    }
  }
  snap.tenants.reserve(tenants.size());
  for (auto& [tenant, row] : tenants) snap.tenants.push_back(std::move(row));
  snap.rigs = scheduler_.rig_status();
  return snap;
}

std::string Server::statz_json() {
  const StatsSnapshot snap = stats_snapshot();
  std::string out = "{";
  out += "\"campaign.shards_run\":" + std::to_string(scheduler_.shards_run());
  out += ",\"draining\":";
  out += snap.draining ? "true" : "false";
  out += ",\"rigs\":[";
  for (std::size_t r = 0; r < snap.rigs.size(); ++r) {
    const Scheduler::RigStatus& rig = snap.rigs[r];
    const double utilization =
        snap.uptime_ms > 0.0 ? std::min(1.0, rig.busy_ms / snap.uptime_ms) : 0.0;
    if (r > 0) out += ',';
    out += "{\"busy_ms\":" + telemetry::prometheus_number(rig.busy_ms);
    out += ",\"done\":" + std::to_string(rig.done);
    out += ",\"job\":" + std::to_string(rig.job);
    out += ",\"shard\":" + std::to_string(rig.shard);
    out += ",\"steals\":" + std::to_string(rig.steals);
    out += ",\"utilization\":" + telemetry::prometheus_number(utilization);
    out += "}";
  }
  out += "]";
  out += ",\"schema\":\"rh-serve-statz/v1\"";
  out += ",\"serve.cache_entries\":" + std::to_string(cache_.entries());
  out += ",\"serve.cache_hits\":" + std::to_string(cache_.hits());
  out += ",\"serve.cache_misses\":" + std::to_string(cache_.misses());
  out += ",\"serve.jobs_active\":" + std::to_string(snap.active);
  out += ",\"serve.jobs_cache_hit\":" + std::to_string(jobs_cache_hit_.load());
  out += ",\"serve.jobs_cancelled\":" + std::to_string(snap.cancelled);
  out += ",\"serve.jobs_done\":" + std::to_string(snap.done);
  out += ",\"serve.jobs_failed\":" + std::to_string(snap.failed);
  out += ",\"serve.jobs_queued\":" + std::to_string(snap.queued);
  out += ",\"serve.jobs_rejected\":" + std::to_string(jobs_rejected_.load());
  out += ",\"serve.jobs_running\":" + std::to_string(snap.running);
  out += ",\"serve.jobs_submitted\":" + std::to_string(jobs_submitted_.load());
  out += ",\"serve.queue_depth\":" + std::to_string(scheduler_.queue_depth());
  out += ",\"serve.rigs\":" + std::to_string(scheduler_.rigs());
  out += ",\"serve.shards_cached\":" + std::to_string(snap.shards_cached);
  out += ",\"serve.shards_stolen\":" + std::to_string(scheduler_.shards_stolen());
  out += ",\"serve.storage_errors\":" + std::to_string(snap.storage_errors);
  out += ",\"serve.uptime_ms\":" + telemetry::prometheus_number(snap.uptime_ms);
  out += ",\"tenants\":[";
  for (std::size_t t = 0; t < snap.tenants.size(); ++t) {
    const TenantRow& row = snap.tenants[t];
    if (t > 0) out += ',';
    out += "{\"active\":" + std::to_string(row.active);
    out += ",\"cache_hits\":" + std::to_string(row.stats.cache_hits);
    out += ",\"completed\":" + std::to_string(row.stats.completed);
    out += ",\"quota\":" + std::to_string(options_.tenant_quota);
    out += ",\"rejected\":" + std::to_string(row.stats.rejected);
    out += ",\"shards_run\":" + std::to_string(row.stats.shards_run);
    out += ",\"submitted\":" + std::to_string(row.stats.submitted);
    out += ",\"tenant\":\"" + telemetry::json_escape(row.tenant) + "\"}";
  }
  out += "]}";
  return out;
}

std::string Server::metricsz_text() {
  const StatsSnapshot snap = stats_snapshot();
  std::ostringstream os;
  // 1. The serve.* catalogue (histograms + HTTP counters), sorted by name.
  telemetry::write_prometheus(os, metrics_.snapshot());
  // 2. Point-in-time job/cache/scheduler series. Wall-clock-valued series
  //    (uptime, rig busy/utilization) live in /statz only: everything here
  //    is a pure function of the request/shard history, which is what
  //    makes consecutive scrapes byte-identical.
  const auto counter = [&os](const char* name, double v) {
    telemetry::write_prometheus_type(os, name, "counter");
    telemetry::write_prometheus_sample(os, name, {}, v);
  };
  const auto gauge = [&os](const char* name, double v) {
    telemetry::write_prometheus_type(os, name, "gauge");
    telemetry::write_prometheus_sample(os, name, {}, v);
  };
  counter("campaign_shards_run", static_cast<double>(scheduler_.shards_run()));
  gauge("serve_access_log_degraded",
        access_log_ != nullptr && access_log_->degraded() ? 1.0 : 0.0);
  gauge("serve_cache_entries", static_cast<double>(cache_.entries()));
  counter("serve_cache_hits", static_cast<double>(cache_.hits()));
  counter("serve_cache_misses", static_cast<double>(cache_.misses()));
  gauge("serve_draining", snap.draining ? 1.0 : 0.0);
  counter("serve_flightrec_events", static_cast<double>(flightrec_.recorded()));
  gauge("serve_jobs_active", static_cast<double>(snap.active));
  counter("serve_jobs_cache_hit", static_cast<double>(jobs_cache_hit_.load()));
  gauge("serve_jobs_cancelled", static_cast<double>(snap.cancelled));
  gauge("serve_jobs_done", static_cast<double>(snap.done));
  gauge("serve_jobs_failed", static_cast<double>(snap.failed));
  gauge("serve_jobs_queued", static_cast<double>(snap.queued));
  counter("serve_jobs_rejected", static_cast<double>(jobs_rejected_.load()));
  gauge("serve_jobs_running", static_cast<double>(snap.running));
  counter("serve_jobs_submitted", static_cast<double>(jobs_submitted_.load()));
  gauge("serve_queue_depth", static_cast<double>(scheduler_.queue_depth()));
  // 3. Per-rig and per-tenant labeled series (rig index / tenant name are
  //    the label; one TYPE line per family, samples in label order).
  telemetry::write_prometheus_type(os, "serve_rig_done", "counter");
  for (std::size_t r = 0; r < snap.rigs.size(); ++r) {
    telemetry::write_prometheus_sample(os, "serve_rig_done", {{"rig", std::to_string(r)}},
                                       static_cast<double>(snap.rigs[r].done));
  }
  telemetry::write_prometheus_type(os, "serve_rig_steals", "counter");
  for (std::size_t r = 0; r < snap.rigs.size(); ++r) {
    telemetry::write_prometheus_sample(os, "serve_rig_steals", {{"rig", std::to_string(r)}},
                                       static_cast<double>(snap.rigs[r].steals));
  }
  gauge("serve_rigs", static_cast<double>(scheduler_.rigs()));
  counter("serve_shards_cached", static_cast<double>(snap.shards_cached));
  counter("serve_shards_stolen", static_cast<double>(scheduler_.shards_stolen()));
  counter("serve_storage_errors", static_cast<double>(snap.storage_errors));
  const auto tenant_family = [&](const char* name, const char* type,
                                 const std::function<double(const TenantRow&)>& value) {
    telemetry::write_prometheus_type(os, name, type);
    for (const TenantRow& row : snap.tenants) {
      telemetry::write_prometheus_sample(os, name, {{"tenant", row.tenant}}, value(row));
    }
  };
  tenant_family("serve_tenant_active", "gauge",
                [](const TenantRow& r) { return static_cast<double>(r.active); });
  tenant_family("serve_tenant_cache_hits", "counter",
                [](const TenantRow& r) { return static_cast<double>(r.stats.cache_hits); });
  tenant_family("serve_tenant_jobs_completed", "counter",
                [](const TenantRow& r) { return static_cast<double>(r.stats.completed); });
  tenant_family("serve_tenant_jobs_rejected", "counter",
                [](const TenantRow& r) { return static_cast<double>(r.stats.rejected); });
  tenant_family("serve_tenant_jobs_submitted", "counter",
                [](const TenantRow& r) { return static_cast<double>(r.stats.submitted); });
  tenant_family("serve_tenant_quota", "gauge", [this](const TenantRow&) {
    return static_cast<double>(options_.tenant_quota);
  });
  tenant_family("serve_tenant_shards_run", "counter",
                [](const TenantRow& r) { return static_cast<double>(r.stats.shards_run); });
  return os.str();
}

std::shared_ptr<Job> Server::make_job(std::uint64_t id, const std::string& tenant,
                                      CampaignConfig config) {
  auto job = std::make_shared<Job>();
  job->id = id;
  job->tenant = tenant;
  job->config = std::move(config);
  job->spec = to_sweep_spec(job->config);
  job->hash = config_hash(job->config);
  job->cache_prefix = sweep_cache_prefix(job->spec);
  job->journal_path = job_path(id, ".journal.jsonl");
  job->stream_path = job_path(id, ".stream.jsonl");
  job->report_path = job_path(id, ".report.json");
  job->det_report_path = job_path(id, ".report.det.json");
  job->meta_path = job_path(id, ".json");
  if (options_.storage_plan.enabled()) {
    // One independent fault stream per durable output, decorrelated by job
    // id so two jobs' storms never move each other.
    resilience::StorageFaultPlan splan = options_.storage_plan;
    splan.seed = common::hash_coords(options_.storage_plan.seed, 0x570u, id, 0);
    job->journal_injector = std::make_unique<resilience::StorageFaultInjector>(splan);
    splan.seed = common::hash_coords(options_.storage_plan.seed, 0x570u, id, 1);
    job->stream_injector = std::make_unique<resilience::StorageFaultInjector>(splan);
    splan.seed = common::hash_coords(options_.storage_plan.seed, 0x570u, id, 2);
    job->meta_injector = std::make_unique<resilience::StorageFaultInjector>(std::move(splan));
  }
  job->remaining = job->spec.shards.size();
  // Same sink configuration as the bench CLI's report-only TelemetrySession:
  // report byte-identity depends on the aggregate snapshot matching.
  telemetry::TelemetryConfig tc;
  tc.trace_enabled = false;
  job->aggregate = std::make_unique<telemetry::Telemetry>(tc);
  // The execution knobs are the server's, never the job's: the same
  // physics produces the same bytes however the pool is configured.
  campaign::CampaignConfig execution;
  execution.retries = options_.retries;
  execution.retry_policy = options_.retry_policy;
  execution.fault_plan = to_fault_plan(job->config);
  execution.stream_cycle_cadence = options_.stream_cycle_cadence;
  job->run = std::make_unique<campaign::ShardRun>(job->spec, std::move(execution),
                                                  campaign::make_default_host,
                                                  job->aggregate.get());
  job->run->workers.resize(options_.rigs);
  return job;
}

void Server::prepare_fresh(Job& job) {
  const std::size_t n = job.spec.shards.size();
  campaign::ShardRun& run = *job.run;
  try {
    run.journal = std::make_unique<campaign::JournalWriter>(
        job.journal_path, journal_header(job), job.journal_injector.get());
  } catch (const common::StorageError& e) {
    run.note_storage_error(e.what());
    run.journal_lost = true;  // admitted, but it can never claim success
  }
  open_stream(job, options_);

  // Probe the cache shard by shard: a superset sweep only simulates the
  // shards the cache has never seen. Hits replay through the same
  // accounting as a `--resume` skip, journal line included, so downstream
  // consumers cannot tell a cached shard from a journaled one.
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<core::RowRecord> records;
    const auto lookup_start = std::chrono::steady_clock::now();
    const bool hit =
        cache_.lookup(shard_cache_key(job.cache_prefix, job.spec.shards[i]), records);
    const double lookup_us = us_since(lookup_start);
    metrics_.observe("serve.cache_lookup_us", lookup_us);
    if (!hit) continue;
    metrics_.observe("serve.cache_hit_us", lookup_us);
    run.append_journal([&](campaign::JournalWriter& j) { j.append_shard(i, records); });
    restore_shard(job, i, std::move(records));
  }
}

void Server::prepare_resumed(Job& job) {
  campaign::ShardRun& run = *job.run;
  try {
    bool reopened = false;
    std::error_code ec;
    if (std::filesystem::exists(job.journal_path, ec)) {
      try {
        campaign::JournalReader reader(job.journal_path);
        reader.require_matches(journal_header(job));
        restore_journaled(job, reader, cache_);
        // Quarantine-and-compact: corrupt mid-file lines move to the
        // .quarantine sidecar and exactly their shards stay pending.
        run.journal = std::make_unique<campaign::JournalWriter>(job.journal_path, reader,
                                                                job.journal_injector.get());
        reopened = true;
      } catch (const common::ConfigError&) {
        // Destroyed header (or a journal from another sweep): nothing in it
        // can be trusted, so every shard re-runs into a fresh journal.
      }
    }
    if (!reopened) {
      run.journal = std::make_unique<campaign::JournalWriter>(
          job.journal_path, journal_header(job), job.journal_injector.get());
    }
  } catch (const common::StorageError& e) {
    run.note_storage_error(e.what());
    run.journal_lost = true;
  }
  open_stream(job, options_);
  job.state = JobState::kQueued;
}

void Server::warm_cache_from_journal(Job& job) {
  std::error_code ec;
  if (!std::filesystem::exists(job.journal_path, ec)) return;
  try {
    campaign::JournalReader reader(job.journal_path);
    reader.require_matches(journal_header(job));
    restore_journaled(job, reader, cache_);
  } catch (const common::Error&) {
    // A terminal job's journal that fails validation only costs cache
    // warmth — the job's report on disk is still served as-is.
  }
}

void Server::persist_meta(Job& job) {
  // The whole compose+write runs under job.mutex: two threads persisting
  // the same job (cancel vs. finalize) must serialize on the descriptor
  // and on the job's meta fault injector. Descriptors are tiny, so the
  // fsyncs under the lock are cheap.
  try {
    const std::lock_guard<std::mutex> lock(job.mutex);
    const std::string text = job_meta_json(job) + "\n";
    resilience::write_file_atomic(job.meta_path, text, "job descriptor",
                                  job.meta_injector.get());
  } catch (const common::Error&) {
    // persist_meta runs on rig threads (on_finalized) as well as HTTP
    // threads: a descriptor that cannot land is counted and surfaced via
    // /healthz, never thrown — the stale descriptor on disk still replays
    // to a valid (if older) state on restart.
    storage_errors_.fetch_add(1);
  }
}

void Server::recover() {
  std::error_code ec;
  if (!std::filesystem::is_directory(options_.data_dir, ec)) return;
  std::vector<std::pair<std::uint64_t, std::string>> descriptors;
  for (const auto& entry : std::filesystem::directory_iterator(options_.data_dir, ec)) {
    std::uint64_t id = 0;
    if (entry.is_regular_file() && is_job_descriptor(entry.path().filename().string(), id)) {
      descriptors.emplace_back(id, entry.path().string());
    }
  }
  std::sort(descriptors.begin(), descriptors.end());

  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, path] : descriptors) {
    std::shared_ptr<Job> job;
    try {
      const campaign::JsonValue doc =
          campaign::parse_json(resilience::read_file(path), "job descriptor " + path);
      const CampaignConfig config = config_from_json(doc.at("config"), "job descriptor");
      const JobState state = job_state_from_string(doc.at("state").text);
      std::string tenant = "anonymous";
      if (const campaign::JsonValue* t = doc.find("tenant");
          t != nullptr && t->kind == campaign::JsonValue::Kind::kString) {
        tenant = t->text;
      }
      job = make_job(id, tenant, config);
      job->state = state;
      if (const campaign::JsonValue* e = doc.find("error");
          e != nullptr && e->kind == campaign::JsonValue::Kind::kString) {
        job->error = e->text;
      }
      if (job_state_active(state)) {
        prepare_resumed(*job);
      } else {
        // Terminal: queryable as-is; its journal still warms the cache.
        job->finalized = true;
        warm_cache_from_journal(*job);
        job->remaining = 0;
        if (state == JobState::kCancelled) {
          job->cancel.store(true, std::memory_order_relaxed);
        }
      }
    } catch (const common::Error&) {
      // A descriptor we cannot replay must not take the server down with
      // it — skip it and keep its files for the operator.
      continue;
    }
    jobs_.emplace(id, job);
    next_id_ = std::max(next_id_, id + 1);
    std::string state_text;
    {
      const std::lock_guard<std::mutex> jlock(job->mutex);
      state_text = to_string(job->state);
    }
    flightrec_.record(ServiceEventKind::kRecover, id, job->tenant, state_text);
  }
}

void Server::on_finalized(const std::shared_ptr<Job>& job) {
  // Copy the accounting out under job.mutex, then fold it into the tenant
  // table under mutex_ — never both at once (statz takes them in the other
  // order).
  std::string tenant;
  std::string state;
  std::uint64_t shards_run = 0;
  std::uint64_t cache_hits = 0;
  {
    const std::lock_guard<std::mutex> jlock(job->mutex);
    tenant = job->tenant;
    state = to_string(job->state);
    shards_run = job->run->result.shards_run;
    cache_hits = job->shards_cached;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    TenantStats& stats = tenants_[tenant];
    ++stats.completed;
    stats.shards_run += shards_run;
    stats.cache_hits += cache_hits;
  }
  flightrec_.record(ServiceEventKind::kFinalize, job->id, tenant, state);
  persist_meta(*job);
}

}  // namespace rh::serve
