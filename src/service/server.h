// DiagnosisServer: the embedded HTTP/JSON front-end over the QFix
// pipeline — the network entry point the ROADMAP's multi-tenant story
// builds on (paper Example 1: a complaint arrives as a request, the
// diagnosis report goes back attached to the ticket).
//
// Architecture (dependency-free sockets, readiness-driven):
//   * One or more EventLoop threads (--event-loop-threads) share a
//     nonblocking listener via EPOLLEXCLUSIVE and own every connection
//     as a nonblocking state machine (service/connection.h). An idle
//     keep-alive connection costs a small struct and a timer-wheel
//     entry — not a thread stack — so `max_connections` defaults to
//     10k and the thread count stays O(event-loop-threads).
//   * Cheap endpoints (healthz, stats, 404/405) answer inline on the
//     loop thread. Blocking handlers (dataset registration, diagnose,
//     the debug endpoints) are offloaded to a small handler pool; the
//     completion re-arms the connection by posting back onto its loop
//     through the eventfd wakeup (the solve-dispatch handshake).
//   * Diagnosis requests resolve against immutable zero-copy dataset
//     snapshots (cache::Snapshot): no request ever deep-copies a
//     registered dataset. A diagnose runs as stage functions, one per
//     trace span: parse -> cache -> admission -> solve -> render. The
//     cache stage is qfixcore::BatchDiagnoser::Lookup over a
//     cache::ReportCache keyed by (dataset, version, canonical complaint
//     hash) — the same memoization path library callers use. Hits
//     return the byte-identical cached report (skipping both the solver
//     and the admission gate), misses take singleflight leadership so
//     concurrent identical requests coalesce into one solve, identical
//     items of one request solve once, and re-registration invalidates.
//   * Solver work is dispatched onto ONE shared src/exec work-stealing
//     pool, reused across every request via the caller-owned-pool hooks
//     in BatchOptions/MilpOptions (no thread churn per request). An
//     admission gate bounds in-flight diagnosis work — counted in
//     batch items, since one request can fan out items[] — and sheds
//     with 429 over capacity instead of queueing without bound.
//     Health/stats/registration bypass the gate so the server stays
//     observable under load.
//   * Multi-tenant hardening: the gate is a TenantGovernor (weighted
//     fair sharing per dataset namespace — an overloaded tenant sheds
//     against its own share and cannot starve a light one), the
//     registry takes a byte budget + TTL (LRU eviction keeps thousands
//     of tenants inside a fixed envelope; pinned in-flight snapshots
//     are never evicted), the report cache can partition its budget
//     per tenant, and /v1/stats breaks requests/sheds/latency
//     percentiles down per tenant so one tenant's p99 never skews
//     another's.
//   * Stop() is cooperative: the cancellation token fires (queued batch
//     items fail fast with ResourceExhausted), the listeners
//     unregister, open connections close (ones waiting on a dispatched
//     handler get their response first), and the loops drain before
//     Stop() returns.
//
// Endpoints (all JSON; see README "Running the server" for schemas):
//   POST /v1/datasets   register a named snapshot + query log
//   POST /v1/datasets/{name}/append
//                       extend a registered log in place: seals the
//                       current tail into a chunk and publishes a
//                       derived version sharing D0 and every prior
//                       chunk (src/ingest) — report-cache entries
//                       whose complaint window predates the append
//                       keep serving
//   POST /v1/diagnose   run one-or-many complaint sets -> report_json
//   GET  /v1/healthz    liveness + dataset count
//   GET  /metrics       Prometheus exposition of the metrics registry
//   GET  /v1/stats      the same registry snapshot as JSON: request
//                       counters, latency percentiles estimated from
//                       the qfix_diagnose_seconds buckets, queue,
//                       report-cache, ingest, per-tenant, flight-
//                       recorder and stall blocks
//   GET  /v1/debug/traces
//                       the flight recorder: tail-sampled retained
//                       traces of completed requests (slow/errored/
//                       shed always kept), filterable by tenant,
//                       dataset, min duration, and outcome; bypasses
//                       the admission gate like healthz/stats so it
//                       answers even when the server is saturated
#ifndef QFIX_SERVICE_SERVER_H_
#define QFIX_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/report_cache.h"
#include "common/result.h"
#include "exec/cancellation.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/watchdog.h"
#include "service/connection.h"
#include "service/http.h"
#include "service/registry.h"
#include "service/tenant.h"

namespace qfix {
namespace qfixcore {
class BatchDiagnoser;
}  // namespace qfixcore
namespace service {

struct ServerOptions {
  /// Bind address. Loopback by default: exposing the service beyond the
  /// host is a proxy's job (ROADMAP follow-on).
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back
  /// via port() — this is what tests and the CI smoke use).
  int port = 0;
  /// Workers of the shared diagnosis pool. <= 0 builds a deterministic
  /// inline pool (diagnosis runs on the handler-pool worker; request
  /// concurrency then comes from the handler pool alone).
  int jobs = 1;
  /// Event-loop threads sharing the listener (EPOLLEXCLUSIVE). One
  /// suffices for protocol work — handlers never run on it — but
  /// multiple loops shard readiness dispatch under very high
  /// connection counts.
  int event_loop_threads = 1;
  /// Admission capacity in batch items (one request fans out one slot
  /// per items[] entry, so the gate bounds solver work, not sockets).
  /// Beyond it, POST /v1/diagnose sheds with 429. Cache hits bypass the
  /// gate — they do no solver work.
  int max_inflight = 8;
  /// Concurrent connections being served; overflow is answered 503
  /// without reading the request. An open connection costs a few
  /// hundred bytes of state on its event loop, not a thread, so the
  /// default is four orders of magnitude above the old
  /// thread-per-connection cap.
  int max_connections = 10000;
  /// Distinct dataset names the registry will hold (back-pressure: a
  /// full registry 429s NEW names; replacement is always allowed).
  int max_datasets = 64;
  /// Registry byte budget over ApproxDatasetBytes (0 = unbounded).
  /// Past it, registration evicts the least recently used unpinned
  /// datasets — the fleet knob that fits thousands of tenants into a
  /// fixed memory envelope.
  size_t registry_bytes = 0;
  /// Registry idle TTL in seconds (0 = none): datasets untouched this
  /// long are swept on the next registration.
  double registry_ttl_seconds = 0.0;
  /// Cap on items[] per POST /v1/diagnose. Items share the dataset
  /// snapshot zero-copy, but each still buys an admission slot and a
  /// solve, so the array length stays bounded.
  int max_items = 64;
  /// Cap on queries one POST /v1/datasets/{name}/append may carry
  /// (0 = unbounded). Past it the append is rejected whole with 413 —
  /// never half-applied.
  size_t max_append_queries = 4096;
  /// Byte budget of the incremental-encoding cache (memoized
  /// chunk-prefix replay states, see ingest/encoding_cache.h);
  /// 0 disables prefix reuse (every diagnosis re-walks the full log).
  size_t encoding_cache_bytes = 16 * 1024 * 1024;
  /// Cap applied to a request's per-item time limit (seconds); also the
  /// default when the request names none.
  double max_time_limit_seconds = 30.0;
  /// Per-request read/write budgets and HTTP byte limits. The write
  /// budget bounds how long a peer that stops reading its response can
  /// hold a connection slot (the write deadline lives on the timer
  /// wheel; no thread is ever blocked on it).
  double read_timeout_seconds = 10.0;
  double write_timeout_seconds = 10.0;
  /// Keep-alive: how long an idle connection may sit between requests
  /// before the server closes it, and how many requests one connection
  /// may carry (<= 1 disables keep-alive entirely).
  double idle_timeout_seconds = 5.0;
  int max_requests_per_conn = 100;
  /// Report-cache byte budget; 0 disables caching (every diagnosis
  /// solves cold).
  size_t cache_bytes = 64 * 1024 * 1024;
  /// Caps one tenant's slice of each report-cache shard's budget, in
  /// (0, 1]; 1.0 = no partitioning. A cache-hungry tenant then churns
  /// its own LRU tail instead of flushing everyone else's working set.
  double cache_tenant_fraction = 1.0;
  /// Fair-share weights per tenant (dataset namespace); unlisted
  /// tenants weigh 1. Applied at construction; weights shape the
  /// guaranteed admission shares, not hard caps (idle capacity is
  /// borrowable).
  std::vector<std::pair<std::string, int>> tenant_weights;
  /// How long a shed tenant keeps its guaranteed admission reservation
  /// while it retries (see TenantGovernor::Options).
  double tenant_activity_window_seconds = 5.0;
  HttpLimits http;
  /// Registers POST /v1/debug/sleep {"seconds":s} — occupies one
  /// admission slot while sleeping — and POST /v1/debug/payload
  /// {"bytes":n} — answers with an n-byte body (write-deadline tests).
  /// Tests and the service bench use them to make over-capacity bursts
  /// and slow-reader reaping deterministic; never enable in production.
  bool enable_test_endpoints = false;
  /// Diagnose requests slower than this (wall ms) emit one WARN
  /// `slow_request` log line with the request id and per-phase
  /// breakdown, and their traces are always retained by the flight
  /// recorder. 0 disables the slow-request log (and slowness
  /// classification in the recorder).
  double slow_request_ms = 0.0;
  /// Flight recorder (GET /v1/debug/traces): byte budget of the ring
  /// of retained completed-request traces. 0 disables the recorder
  /// (the endpoint then answers with an empty list).
  size_t trace_buffer_bytes = 4 * 1024 * 1024;
  /// Probability an ok-and-fast request's trace is retained. Slow,
  /// errored, and shed requests are retained with probability 1.0
  /// regardless (tail-based sampling: the decision happens at request
  /// completion, when the outcome is known).
  double trace_sample_probability = 0.01;
  /// Watchdog: WARN `stall` when an event loop's heartbeat goes stale
  /// this long (a handler ran inline too long, a syscall hung).
  /// 0 disables the probe.
  double loop_stall_warn_seconds = 1.0;
  /// Watchdog: WARN `stall` while a dispatched solve has been running
  /// longer than this (wall ms) — flagged once, while still running,
  /// and the offending trace is force-retained. 0 disables.
  double solve_deadline_warn_ms = 0.0;
  /// Watchdog: WARN `stall` when the admission gate has been pinned at
  /// capacity continuously for this long. 0 disables.
  double admission_starvation_warn_seconds = 0.0;
  /// Token-bucket cap on WARN log lines per second (process-wide, see
  /// SetWarnLogPerSec in common/logging.h); dropped lines count into
  /// qfix_log_lines_dropped_total. 0 = unlimited.
  double warn_log_per_sec = 0.0;
};

class DiagnosisServer : private ConnectionHost {
 public:
  explicit DiagnosisServer(ServerOptions options = ServerOptions());
  /// Stops the server if still running.
  ~DiagnosisServer() override;

  DiagnosisServer(const DiagnosisServer&) = delete;
  DiagnosisServer& operator=(const DiagnosisServer&) = delete;

  /// Binds, listens, and spawns the event-loop threads. InvalidArgument
  /// on address/bind failures.
  Status Start();

  /// Cooperative shutdown: cancels in-flight batch work, unregisters
  /// the listeners, closes every connection (dispatched handlers finish
  /// and flush first), joins the loops. Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after Start()).
  int port() const { return bound_port_; }

  /// The dataset registry, e.g. for preloading a dataset from files
  /// before Start() (tools/qfix_serve --d0/--log).
  DatasetRegistry& registry() { return registry_; }

  /// The GET /v1/stats document for `snapshot` of metrics(): a JSON
  /// view in which every number is a registry series (or, for
  /// `latency`, an estimate from qfix_diagnose_seconds buckets).
  /// Rendering counts no request, so tests read it in-process.
  std::string RenderStats(const obs::MetricsSnapshot& snapshot) const;

  /// The report cache, or nullptr when disabled (cache_bytes == 0).
  cache::ReportCache* report_cache() { return cache_.get(); }

  /// The telemetry registry behind GET /metrics and GET /v1/stats.
  /// Exposed so embedders and tests can read it without a socket.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The flight recorder behind GET /v1/debug/traces, or nullptr when
  /// disabled (trace_buffer_bytes == 0).
  obs::TraceRecorder* recorder() { return recorder_.get(); }

 private:
  /// One event-loop thread plus the connections it owns (loop-thread
  /// local) and its registration on the shared listener.
  struct LoopShard;
  class Acceptor;
  friend class Acceptor;

  // ConnectionHost (called by Connection on the loop threads).
  const ConnectionHost::Config& conn_config() const override;
  bool shutting_down() const override;
  HttpResponse ErrorResponse(int http_status, const std::string& code,
                             const std::string& message) const override;
  bool HandleRequest(HttpRequest request, HttpResponse* out,
                     std::function<void(HttpResponse)> done) override;
  void CountResponse(int http_status) override;
  void RecordWritePhase(double seconds) override;
  void OnConnectionClosed(Connection* conn) override;

  /// Accepted `fd` lands on `shard`: admit as a served connection or
  /// reject with the canned 503 when over max_connections.
  void OnAccept(int fd, LoopShard* shard);
  /// Runs `handler` on the handler pool, then delivers its response
  /// through `done` (which hops back onto the connection's loop).
  void Offload(std::function<HttpResponse()> handler,
               std::function<void(HttpResponse)> done);

  HttpResponse HandleHealthz();
  HttpResponse HandleStats();
  HttpResponse HandleMetrics();
  HttpResponse HandleRegisterDataset(const HttpRequest& request);
  HttpResponse HandleAppend(const HttpRequest& request, std::string name);
  /// POST /v1/diagnose: owns the request's trace and runs the stages
  /// below in span order, each owning the span it is named after; then
  /// the histograms, slow-request log and flight-recorder hand-off.
  HttpResponse HandleDiagnose(const HttpRequest& request);
  struct DiagnoseCall;
  /// parse: decodes every item; no admission slot is taken.
  std::optional<HttpResponse> ParseDiagnose(const HttpRequest& request,
                                            DiagnoseCall* call);
  /// cache: BatchDiagnoser::Lookup, then the cached-hit counters.
  void LookupDiagnose(DiagnoseCall* call);
  /// admission: one slot per cache miss; 429 when shed, 503 in Stop().
  std::optional<HttpResponse> AdmitDiagnose(DiagnoseCall* call);
  /// solve: BatchDiagnoser::Solve under the watchdog, then counters.
  void SolveDiagnose(DiagnoseCall* call);
  /// render: the response body and the opt-in timings block.
  HttpResponse RenderDiagnose(DiagnoseCall* call);
  void ObserveDiagnose(const DiagnoseCall& call);
  /// Library memoization over the shared pool, shutdown token, cache.
  qfixcore::BatchDiagnoser Diagnoser() const;
  HttpResponse HandleDebugTraces(const HttpRequest& request);
  HttpResponse HandleDebugSleep(const HttpRequest& request);
  HttpResponse HandleDebugPayload(const HttpRequest& request);

  /// Hands a completed request's trace to the flight recorder (no-op
  /// when the recorder is disabled).
  void RecordTrace(const DiagnoseCall& call, int http_status);
  /// The watchdog's stall callback: WARN log line, counter, and — when
  /// the event implicates a request — a force-retain pin.
  void OnStall(const obs::Watchdog::StallEvent& event);

  ServerOptions options_;
  ConnectionHost::Config conn_config_;
  DatasetRegistry registry_;
  std::unique_ptr<cache::ReportCache> cache_;
  /// Memoized chunk-prefix replay states (incremental ingest); null
  /// when encoding_cache_bytes == 0. Wired into every diagnosis's
  /// QFixOptions and warmed/invalidated by the registry.
  std::unique_ptr<ingest::EncodingCache> encoding_cache_;
  /// The shared solver pool (jobs) — caller-owned by every solve.
  std::unique_ptr<exec::ThreadPool> pool_;
  /// Small pool running blocking request handlers so the loop threads
  /// never block; sized to keep the admission gate saturatable.
  std::unique_ptr<exec::ThreadPool> handler_pool_;
  exec::CancellationSource shutdown_;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::atomic<bool> running_{false};

  /// Connections currently admitted (shared across shards).
  std::atomic<int> open_connections_{0};

  /// Admission gate for diagnosis work (and the debug sleep endpoint):
  /// weighted fair sharing per tenant, counted in batch items.
  std::unique_ptr<TenantGovernor> governor_;

  /// Flight recorder (null when trace_buffer_bytes == 0). Constructed
  /// once and never reset: the watchdog's monitor thread may pin into
  /// it between Stop() and destruction.
  std::unique_ptr<obs::TraceRecorder> recorder_;
  /// Stall watchdog; rebuilt on each Start() (heartbeats register per
  /// event-loop shard), stopped first thing in Stop().
  std::unique_ptr<obs::Watchdog> watchdog_;

  /// Declares every metric family — owned instruments for the server's
  /// own counts, scrape-time callbacks over the subsystems' stats
  /// structs — together with where each series shows in /v1/stats.
  /// Called once, at the end of the constructor.
  void SetupMetrics();

  /// One /v1/stats leaf: its dotted path and the series it shows — the
  /// sum over series whose leading label values match `labels`; a
  /// histogram shows as a latency block. Tenant leaves carry the key
  /// under tenants.<t> and match on the tenant.
  struct StatsLeaf {
    std::string path;
    std::string family;
    std::vector<std::string> labels;
  };
  std::vector<StatsLeaf> stats_leaves_;
  std::vector<StatsLeaf> tenant_leaves_;

  double started_at_seconds_ = 0.0;

  obs::MetricsRegistry metrics_;
  // Owned instruments, resolved once in SetupMetrics().
  /// qfix_request_phase_seconds, indexed by Phase.
  enum Phase { kParse, kCache, kAdmission, kEncode, kSolve, kRender, kWrite };
  std::vector<obs::Histogram*> phases_;
  obs::HistogramFamily* diagnose_seconds_by_tenant_ = nullptr;
  /// qfix_requests_total, indexed by Endpoint.
  enum Endpoint { kAppend, kDatasets, kDebug, kDiagnose, kHealthz, kMetrics,
                  kStats };
  std::vector<obs::Counter*> requests_;
  /// qfix_http_responses_total: 2xx, 4xx, 5xx.
  std::vector<obs::Counter*> responses_;
  obs::Counter* shed_total_ = nullptr;
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* items_total_ = nullptr;
  obs::Counter* cached_hits_total_ = nullptr;
  obs::Counter* appended_queries_total_ = nullptr;
  /// qfix_stalls_total, indexed by Stall.
  enum Stall { kAdmissionStarvation, kEventLoop, kSolveDeadline };
  std::vector<obs::Counter*> stall_events_;
  obs::Gauge* surviving_cache_bytes_ = nullptr;
  obs::CounterFamily* tenant_requests_ = nullptr;
  obs::CounterFamily* tenant_shed_ = nullptr;
  obs::CounterFamily* tenant_items_ = nullptr;
  obs::CounterFamily* tenant_cached_hits_ = nullptr;
  obs::Counter* solver_nodes_total_ = nullptr;
  obs::Counter* solver_lp_iterations_total_ = nullptr;
  obs::Counter* solver_incumbent_updates_total_ = nullptr;
  obs::Counter* encoder_constraints_total_ = nullptr;
  obs::Counter* encoder_variables_total_ = nullptr;
  obs::Counter* encoder_prefix_reused_total_ = nullptr;
  obs::Counter* slow_requests_total_ = nullptr;
};

}  // namespace service
}  // namespace qfix

#endif  // QFIX_SERVICE_SERVER_H_
