// The campaign service: admission control, the HTTP surface, durable job
// state, and restart recovery, stitched over the campaign rig pool and the
// cache.
//
// One Server owns one data directory. Every admitted job writes its
// descriptor (job-<id>.json) there before it is queued, and its journal as
// shards complete — so a SIGKILL at any instant loses at most the shard in
// flight. start() replays the directory: terminal jobs come back queryable
// (and their journals warm the result cache); queued/running jobs are
// re-enqueued with exactly their missing shards, the same resume semantics
// as `--checkpoint --resume` on the bench CLI.
//
// Admission control, in order:
//   draining            -> 503 (SIGTERM was received; no new work)
//   malformed config    -> 400 (strict parse: unknown keys rejected)
//   server queue full   -> 429 + Retry-After (active jobs >= queue_limit)
//   tenant over quota   -> 429 + Retry-After (active jobs per X-Tenant)
//
// The HTTP surface (all JSON; one request per connection):
//   POST   /jobs                submit a config, returns the job status
//   GET    /jobs                every job, oldest first
//   GET    /jobs/<id>           one job's status
//   DELETE /jobs/<id>           cancel (idempotent; terminal jobs conflict)
//   GET    /jobs/<id>/report    rh-run-report/v1 (404 until finalized)
//   GET    /jobs/<id>/results   journaled records, JSONL in shard order
//   GET    /jobs/<id>/stream    rh-metrics-stream/v1 so far
//   GET    /healthz             liveness
//   GET    /statz               server counters (cache, rig pool, jobs,
//                               per-rig utilization, per-tenant accounting)
//   GET    /metricsz            Prometheus text exposition of the same
//   GET    /debugz/flightrec    recent service events, JSONL
//
// Observability (PR 9): every served request flows through
// handle_observed(), which wraps handle() with the HTTP-latency histogram,
// status-class counters, and one JSONL access-log line (torn-tail-safe via
// DurableFile). The read-only observability endpoints (/healthz, /statz,
// /metricsz, /debugz/*) are excluded from the serve.http_* metrics so that
// scraping never moves the metrics being scraped: for a fixed sequence of
// job-API requests, consecutive /metricsz scrapes are byte-identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "resilience/retry.hpp"
#include "resilience/storage.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/job.hpp"
#include "serve/observe.hpp"

namespace rh::serve {

/// The rig pool's observer: the server marks a job running at its first
/// claim and feeds the serve.* histograms and the flight recorder.
class Server : private campaign::PoolObserver {
public:
  struct Options {
    std::uint16_t port = 0;       ///< 0 = OS-assigned ephemeral port
    std::string data_dir = ".";   ///< job descriptors, journals, reports
    unsigned rigs = 2;            ///< simulated-rig pool size
    unsigned retries = 1;         ///< per-shard transient retry budget
    std::size_t queue_limit = 8;  ///< max active (queued+running) jobs
    std::size_t tenant_quota = 4; ///< max active jobs per tenant
    resilience::RetryPolicy retry_policy;
    std::uint64_t stream_cycle_cadence = 1ull << 24;
    /// Disk fault injection for every job's durable outputs (journal,
    /// stream, descriptor, reports) and the access log. Each arms its own
    /// schedule of the plan (resilience::arm) under a seed derived from
    /// (storage_plan.seed, job id), the access log's from the seed alone. Storage failures
    /// degrade jobs (state failed, reason "storage: ...") and flip
    /// /healthz to degraded — they never crash the server or wedge a rig.
    resilience::StorageFaultPlan storage_plan;
    /// Access-log path; empty means <data_dir>/access-log.jsonl. Opened
    /// appending in start(); an open failure degrades (no log) rather than
    /// refusing to start.
    std::string access_log;
    /// Flight-recorder ring capacity (events kept for post-mortem dumps).
    std::size_t flightrec_size = 256;
  };

  /// Lifetime request/shard accounting for one tenant (X-Tenant header).
  struct TenantStats {
    std::uint64_t submitted = 0;   ///< jobs admitted (201)
    std::uint64_t rejected = 0;    ///< submissions refused (400/429/503)
    std::uint64_t completed = 0;   ///< jobs that reached a terminal state
    std::uint64_t shards_run = 0;  ///< shards simulated for this tenant
    std::uint64_t cache_hits = 0;  ///< shards served from the result cache
  };

  explicit Server(Options options);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Recovers jobs from the data dir, starts the rig pool, binds the
  /// listener. Throws common::ConfigError on bind failure or a corrupt
  /// descriptor it cannot skip.
  void start();

  /// Graceful drain: stop admitting (503), let in-flight shards journal,
  /// stop the rigs. Queued shards wait for the next start, which resumes
  /// their jobs from the journals. Idempotent; serve() returns after this.
  void drain();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accepts and serves connections, one request per connection, until
  /// `should_stop()` turns true (polled between accepts) or drain().
  void serve(const std::function<bool()>& should_stop);

  /// Routes one request — also the unit-test entry point (no sockets).
  [[nodiscard]] HttpResponse handle(const HttpRequest& req);

  /// handle() plus the observability wrapper: exception-to-status mapping
  /// (HttpError -> 400, anything else -> 500 + flight-recorder dump), the
  /// HTTP latency histogram and status-class counters, and one access-log
  /// line. What serve() actually calls per request; also the test entry
  /// point for instrumentation assertions. Never throws.
  [[nodiscard]] HttpResponse handle_observed(const HttpRequest& req);

  [[nodiscard]] std::string statz_json();

  /// The GET /metricsz body: the serve.* registry in Prometheus text
  /// exposition format, followed by the point-in-time job/cache/pool
  /// series and the per-tenant and per-rig labeled series. Deterministic:
  /// for a fixed sequence of job-API requests, repeated scrapes are
  /// byte-identical (observability endpoints never self-instrument, and
  /// wall-clock-valued series live in /statz only).
  [[nodiscard]] std::string metricsz_text();

  /// Dumps the flight recorder to <data_dir>/flightrec-<ts>-<n>.jsonl.
  /// Returns the path, or "" when the write failed. `reason` is recorded as
  /// the dump trigger ("sigquit", "fatal", ...) before dumping.
  std::string dump_flightrec(const std::string& reason);

  [[nodiscard]] ServiceMetrics& metrics() { return metrics_; }
  [[nodiscard]] FlightRecorder& flightrec() { return flightrec_; }
  /// Null until start() (or when the log could not be opened).
  [[nodiscard]] const AccessLog* access_log() const { return access_log_.get(); }

  /// Liveness + storage health: ok is always true while serving; degraded
  /// flips when any durable write has failed (descriptor, journal, stream,
  /// report, or the access log), with /statz's storage_errors as the total.
  [[nodiscard]] std::string healthz_json();

private:
  /// One tenant's row in /statz and /metricsz: lifetime stats plus the
  /// instantaneous active-job count.
  struct TenantRow {
    std::string tenant;
    std::size_t active = 0;
    TenantStats stats;
  };

  /// Everything /statz and /metricsz render, gathered once under the locks
  /// so the two surfaces always agree.
  struct StatsSnapshot {
    std::size_t active = 0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::uint64_t shards_cached = 0;
    std::uint64_t storage_errors = 0;
    bool draining = false;
    double uptime_ms = 0.0;
    std::vector<TenantRow> tenants;  ///< sorted by tenant name
    std::vector<campaign::RigPool::RigStatus> rigs;
  };

  [[nodiscard]] std::string job_path(std::uint64_t id, const char* suffix) const;
  [[nodiscard]] std::shared_ptr<Job> find_job(std::uint64_t id);
  [[nodiscard]] StatsSnapshot stats_snapshot();

  /// Instrumentation tail shared by handle_observed() and the
  /// malformed-framing path in serve(): counters + histogram (job-API
  /// requests only) and the access-log line (every request).
  void note_request(const std::string& method, const std::string& target,
                    const std::string& tenant, const HttpResponse& resp, double wall_us,
                    const char* outcome);

  HttpResponse submit(const HttpRequest& req);
  HttpResponse list_jobs();
  HttpResponse cancel_job(std::uint64_t id);
  HttpResponse results_response(const std::shared_ptr<Job>& job);
  static HttpResponse file_response(const std::string& path, const char* content_type);

  /// Builds a Job around a parsed config: paths, spec, aggregate sink, and
  /// a run whose durable outputs are the job's files under the job's
  /// fault-stream seeds. Shared by submit and recovery.
  [[nodiscard]] std::shared_ptr<Job> make_job(std::uint64_t id, const std::string& tenant,
                                              CampaignConfig config);
  /// Fresh submission: the run opens its journal and stream; then probe
  /// the cache and journal the cache-served shards.
  void prepare_fresh(Job& job);
  /// Restart path: the run restores the journal and reopens it compacted;
  /// a missing, foreign or destroyed-header journal starts over instead.
  /// Restored shards warm the cache; the stream starts afresh.
  void prepare_resumed(Job& job);
  /// A terminal job's journal is only read: its shards warm the cache.
  void warm_cache_from_journal(Job& job);
  void persist_meta(Job& job);
  void recover();

  /// The pool's hooks: a committed shard warms the cache (and a dropped
  /// journal becomes a flight-recorder event); a finalized job folds into
  /// its tenant's accounting and persists its terminal descriptor.
  [[nodiscard]] campaign::PoolHooks pool_hooks();
  void on_finalized(Job& job);
  void claimed(campaign::PoolJob& job, unsigned rig, std::uint64_t shard, double wait_ms,
               bool stolen) override;
  void retried(campaign::PoolJob& job, std::uint64_t shard, const std::string& error) override;
  void executed(double wall_ms) override;

  Options options_;
  // Observability members precede the pool: its rigs call into them, so
  // they must construct first and destruct last.
  ServiceMetrics metrics_;
  FlightRecorder flightrec_;
  std::unique_ptr<resilience::StorageFaultInjector> access_injector_;
  std::unique_ptr<AccessLog> access_log_;
  std::chrono::steady_clock::time_point started_;
  ResultCache cache_;
  campaign::RigPool pool_;
  std::unique_ptr<TcpListener> listener_;
  std::uint16_t port_ = 0;

  std::mutex mutex_;  ///< guards jobs_, next_id_, draining_, tenants_
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::map<std::string, TenantStats> tenants_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;

  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};  ///< 429s + 503s
  std::atomic<std::uint64_t> jobs_cache_hit_{0};  ///< admitted fully from cache
  /// Descriptor writes that failed and an access log that could not open
  /// (job-level losses live in each job's result.storage_errors, and a log
  /// gone dark counts one; the stats snapshot sums all three).
  std::atomic<std::uint64_t> storage_errors_{0};
};

}  // namespace rh::serve
