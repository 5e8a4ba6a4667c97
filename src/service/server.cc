#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"
#include "io/csv.h"
#include "obs/trace.h"
#include "provenance/denoiser.h"
#include "qfix/batch.h"
#include "service/event_loop.h"
#include "service/json_value.h"

namespace qfix {
namespace service {

namespace {

/// Writes "error":{"code":...,"message":...} into the open object.
void WriteError(std::string_view code, const std::string& message,
                JsonWriter* w) {
  w->Key("error");
  w->BeginObject();
  w->Key("code");
  w->String(code);
  w->Key("message");
  w->String(message);
  w->EndObject();
}

HttpResponse JsonError(int http_status, const std::string& code,
                       const std::string& message) {
  JsonWriter w;
  w.BeginObject();
  WriteError(code, message, &w);
  w.EndObject();
  HttpResponse out;
  out.status = http_status;
  out.body = w.str();
  return out;
}

HttpResponse StatusError(int http_status, const Status& status) {
  return JsonError(http_status, std::string(StatusCodeToString(status.code())),
                   status.message());
}

/// One top-level phase span of a diagnose request. End() is idempotent
/// and the destructor ends a span still open, so an early return — a
/// 4xx while decoding, a 429 at the gate — keeps the real duration of
/// the phase it left.
class PhaseSpan {
 public:
  PhaseSpan(obs::TraceContext& trace, std::string_view phase)
      : trace_(trace), index_(trace.BeginSpan(phase)) {}
  ~PhaseSpan() { End(); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void End() {
    trace_.EndSpan(index_);
    index_ = obs::TraceContext::kDroppedSpan;
  }

 private:
  obs::TraceContext& trace_;
  size_t index_;
};

/// A trace's spans as the {phase, start_ms, ms, parent} array both the
/// "timings" block and GET /v1/debug/traces render.
void WriteSpans(const std::vector<obs::TraceSpan>& spans, JsonWriter* w) {
  w->BeginArray();
  for (const obs::TraceSpan& span : spans) {
    w->BeginObject();
    w->Key("phase");
    w->String(span.phase);
    w->Key("start_ms");
    w->Double(span.start_seconds * 1e3);
    w->Key("ms");
    w->Double(span.DurationSeconds() * 1e3);
    // Index of the enclosing span in this array; top-level spans omit
    // it.
    if (span.parent >= 0) {
      w->Key("parent");
      w->Int(span.parent);
    }
    w->EndObject();
  }
  w->EndArray();
}

/// qfix_request_phase_seconds{phase}, in DiagnosisServer::Phase order.
constexpr const char* kPhases[] = {"parse",  "cache", "admission", "encode",
                                   "solve",  "render", "write"};

/// One callback's sample values.
template <typename... T>
std::vector<double> Values(T... values) {
  return {static_cast<double>(values)...};
}

/// /v1/stats leaves by dotted path.
using StatsLeaves =
    std::vector<std::pair<std::string, std::variant<double, bool>>>;
using TenantStats = TenantGovernor::TenantStats;

/// Adds the leaf `path` showing `series` of `family`: its value, or for
/// a latency histogram the block of count, Prometheus
/// histogram_quantile estimates, and (q = 1) the upper edge of the
/// highest non-empty bucket.
void AddLeaf(const std::string& path, const obs::FamilySnapshot& family,
             const obs::FamilySnapshot::Series& series, StatsLeaves* out) {
  if (family.edges.empty()) {
    out->emplace_back(path, series.value);
    return;
  }
  uint64_t count = 0;
  for (uint64_t b : series.buckets) count += b;
  out->emplace_back(path + ".count", static_cast<double>(count));
  for (auto [key, q] : {std::pair{".p50_ms", 0.50}, {".p90_ms", 0.90},
                        {".p99_ms", 0.99}, {".max_ms", 1.0}}) {
    const double seconds =
        obs::HistogramQuantile(q, family.edges, series.buckets);
    out->emplace_back(path + key, seconds * 1e3);
  }
}

/// Writes `leaves` into the object `w` has open; "a.b" nests as
/// "a":{"b":...} (paths have at most one dot). Sorting puts each
/// object's leaves next to each other.
void WriteLeaves(StatsLeaves leaves, JsonWriter* w) {
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string open;  // the object `w` is inside, "" at the top
  for (const auto& [path, value] : leaves) {
    const size_t dot = path.find('.');
    const std::string object =
        dot == std::string::npos ? "" : path.substr(0, dot);
    if (object != open) {
      if (!open.empty()) w->EndObject();
      if (!object.empty()) {
        w->Key(object);
        w->BeginObject();
      }
      open = object;
    }
    w->Key(path.substr(dot == std::string::npos ? 0 : dot + 1));
    if (const bool* flag = std::get_if<bool>(&value)) {
      w->Bool(*flag);
    } else {
      w->Double(std::get<double>(value));
    }
  }
  if (!open.empty()) w->EndObject();
}

}  // namespace

// ---------------------------------------------------------------------------
// Loop shards and the shared-listener acceptor

struct DiagnosisServer::LoopShard {
  EventLoop loop;
  std::thread thread;
  /// Connections owned by this loop (including zombies waiting on a
  /// dispatched handler). Loop-thread only.
  std::unordered_set<Connection*> conns;
  std::unique_ptr<Acceptor> acceptor;
  int index = 0;
  /// Watchdog heartbeat: a self-rescheduling timer-wheel entry proves
  /// the loop is dispatching (an idle loop parked in epoll_wait with no
  /// timers would otherwise read as wedged). Owned here so the
  /// recursive closure has a stable home.
  int hb_handle = -1;
  std::function<void()> hb_tick;
};

/// One shard's registration on the shared nonblocking listener
/// (EPOLLIN | EPOLLEXCLUSIVE, so the kernel wakes one loop per pending
/// connection instead of all of them). On resource exhaustion the
/// acceptor backs off: it unregisters and re-registers off the timer
/// wheel 50ms later — EPOLL_CTL_MOD is forbidden on EPOLLEXCLUSIVE
/// registrations, so Del + Add is the only legal dance.
class DiagnosisServer::Acceptor : public FdHandler {
 public:
  Acceptor(DiagnosisServer* server, LoopShard* shard, int listen_fd)
      : server_(server), shard_(shard), listen_fd_(listen_fd) {}

  void Register() {
    if (registered_) return;
    registered_ = true;
    (void)shard_->loop.Add(listen_fd_, EPOLLIN, this, EPOLLEXCLUSIVE);
  }

  void Shutdown() {
    if (retry_timer_ != 0) {
      shard_->loop.timers().Cancel(retry_timer_);
      retry_timer_ = 0;
    }
    if (registered_) {
      shard_->loop.Del(listen_fd_);
      registered_ = false;
    }
  }

  void OnEvents(uint32_t) override { AcceptSome(); }

 private:
  void AcceptSome() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        // Transient conditions must not kill accepting: aborted
        // handshakes are routine under load.
        if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
          continue;
        }
        // Resource exhaustion (EMFILE/ENFILE/ENOMEM/ENOBUFS) clears
        // once in-flight connections close; anything unexpected gets
        // the same brief back-off rather than a dead listener.
        Backoff();
        return;
      }
      if (!server_->running_.load(std::memory_order_acquire)) {
        ::close(fd);
        return;
      }
      server_->OnAccept(fd, shard_);
    }
  }

  void Backoff() {
    if (registered_) {
      shard_->loop.Del(listen_fd_);
      registered_ = false;
    }
    if (retry_timer_ != 0) return;
    retry_timer_ = shard_->loop.timers().Schedule(0.05, [this] {
      retry_timer_ = 0;
      Register();
      AcceptSome();
    });
  }

  DiagnosisServer* server_;
  LoopShard* shard_;
  int listen_fd_;
  bool registered_ = false;
  uint64_t retry_timer_ = 0;
};

// ---------------------------------------------------------------------------
// Lifecycle

DiagnosisServer::DiagnosisServer(ServerOptions options)
    : options_(std::move(options)),
      registry_(RegistryOptions{
          static_cast<size_t>(std::max(options_.max_datasets, 0)),
          options_.registry_bytes, options_.registry_ttl_seconds}) {
  options_.max_inflight = std::max(options_.max_inflight, 1);
  options_.max_connections = std::max(options_.max_connections, 1);
  options_.max_items = std::max(options_.max_items, 1);
  options_.max_requests_per_conn = std::max(options_.max_requests_per_conn, 1);
  options_.event_loop_threads =
      std::clamp(options_.event_loop_threads, 1, 64);
  options_.trace_sample_probability =
      std::clamp(options_.trace_sample_probability, 0.0, 1.0);
  if (options_.warn_log_per_sec > 0.0) {
    SetWarnLogPerSec(options_.warn_log_per_sec);
  }
  if (options_.trace_buffer_bytes > 0) {
    obs::TraceRecorder::Options rec;
    rec.byte_budget = options_.trace_buffer_bytes;
    rec.sample_probability = options_.trace_sample_probability;
    rec.slow_threshold_seconds = options_.slow_request_ms / 1e3;
    recorder_ = std::make_unique<obs::TraceRecorder>(rec);
  }
  conn_config_.read_timeout_seconds = options_.read_timeout_seconds;
  conn_config_.write_timeout_seconds = options_.write_timeout_seconds;
  conn_config_.idle_timeout_seconds = options_.idle_timeout_seconds;
  conn_config_.max_requests_per_conn = options_.max_requests_per_conn;
  conn_config_.http = options_.http;
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<cache::ReportCache>(
        options_.cache_bytes, /*num_shards=*/8,
        options_.cache_tenant_fraction);
    registry_.AttachReportCache(cache_.get());
  }
  if (options_.encoding_cache_bytes > 0) {
    encoding_cache_ =
        std::make_unique<ingest::EncodingCache>(options_.encoding_cache_bytes);
    registry_.AttachEncodingCache(encoding_cache_.get());
  }
  TenantGovernor::Options gov;
  gov.capacity = options_.max_inflight;
  gov.activity_window_seconds = options_.tenant_activity_window_seconds;
  governor_ = std::make_unique<TenantGovernor>(gov);
  for (const auto& [tenant, weight] : options_.tenant_weights) {
    governor_->SetWeight(tenant, weight);
  }
  SetupMetrics();
}

// ---------------------------------------------------------------------------
// Metrics registration
//
// Every server metric is declared once, below: family name, help, type,
// labels, and where each series shows in GET /v1/stats. Two tiers,
// matching the design note in obs/metrics.h:
//   * owned instruments for counts nothing else keeps — requests,
//     responses, sheds, items, per-phase and per-tenant latency,
//     solver/encoder totals;
//   * scrape-time callbacks over the stats structs the subsystems
//     already maintain (cache_, registry_, governor_, encoding_cache_,
//     recorder_) — zero hot-path cost and no double accounting.
void DiagnosisServer::SetupMetrics() {
  using Kind = obs::MetricsRegistry::Kind;
  using Sample = obs::MetricsRegistry::Sample;
  // Each fixed series of a family as {label value, /v1/stats path}: one
  // entry with an empty label value for a label-less family, and an
  // empty path for a series /v1/stats does not show.
  using Paths = std::vector<std::pair<std::string, std::string>>;
  auto names = [](const char* label) {
    return *label ? std::vector<std::string>{label}
                  : std::vector<std::string>{};
  };
  // Records where each series shows; returns the series' label values.
  auto show = [&](const char* name, const char* label, const Paths& paths) {
    std::vector<std::vector<std::string>> series;
    for (const auto& [value, path] : paths) {
      series.push_back(*label ? names(value.c_str()) : names(""));
      if (!path.empty()) stats_leaves_.push_back({path, name, series.back()});
    }
    return series;
  };
  // Owned counters, resolved now so zero-valued series render.
  auto counters = [&](const char* name, const char* help, const char* label,
                      const Paths& paths) {
    obs::CounterFamily* family = metrics_.AddCounter(name, help, names(label));
    std::vector<obs::Counter*> out;
    for (const auto& labels : show(name, label, paths)) {
      out.push_back(family->WithLabels(labels));
    }
    return out;
  };
  auto counter = [&](const char* name, const char* help, const char* path) {
    return counters(name, help, "", {{"", path}}).front();
  };
  // Scrape-time callbacks returning one value per series; a disabled
  // subsystem (`present` false) has no series.
  auto callbacks = [&](const char* name, const char* help, Kind kind,
                       const char* label, const Paths& paths, bool present,
                       std::function<std::vector<double>()> values) {
    metrics_.AddCallback(
        name, help, kind, names(label),
        [series = show(name, label, paths), present,
         values](std::vector<Sample>* out) {
          if (!present) return;
          std::vector<double> v = values();
          for (size_t i = 0; i < v.size(); ++i) {
            out->push_back({series[i], v[i]});
          }
        });
  };
  auto scalar = [&](const char* name, const char* help, Kind kind,
                    const char* path, bool present,
                    std::function<double()> value) {
    callbacks(name, help, kind, "", {{"", path}}, present,
              [value] { return std::vector<double>{value()}; });
  };
  // Per-tenant families, shown as tenants.<t>.<key>.
  auto tenant_counter = [&](const char* name, const char* help,
                            const char* key) {
    tenant_leaves_.push_back({key, name, {}});
    return metrics_.AddCounter(name, help, {"tenant"});
  };
  auto tenant_gauge = [&](const char* name, const char* help, const char* key,
                          std::function<double(const TenantStats&)> value) {
    tenant_leaves_.push_back({key, name, {}});
    metrics_.AddCallback(name, help, Kind::kGauge, {"tenant"},
                         [this, value](std::vector<Sample>* out) {
                           for (const TenantStats& t : governor_->Snapshot()) {
                             out->push_back({{t.name}, value(t)});
                           }
                         });
  };
  const bool caching = cache_ != nullptr;
  const bool encoding = encoding_cache_ != nullptr;
  const bool recording = recorder_ != nullptr;
  const std::vector<double> edges = obs::DefaultLatencyBucketEdges();

  obs::HistogramFamily* phases = metrics_.AddHistogram(
      "qfix_request_phase_seconds",
      "Per-phase latency of served /v1/diagnose requests "
      "(parse/cache/admission/encode/solve/render) plus response drain "
      "time (write).",
      edges, {"phase"});
  for (const char* phase : kPhases) {
    phases_.push_back(phases->WithLabels({phase}));
  }
  diagnose_seconds_by_tenant_ = metrics_.AddHistogram(
      "qfix_diagnose_seconds",
      "Wall time of served /v1/diagnose requests, by tenant.", edges,
      {"tenant"});
  // The global block sums every tenant's buckets.
  stats_leaves_.push_back({"latency", "qfix_diagnose_seconds", {}});
  tenant_leaves_.push_back({"latency", "qfix_diagnose_seconds", {}});
  solver_nodes_total_ = metrics_.AddCounter(
      "qfix_solver_nodes_total",
      "Branch & bound nodes explored across all served diagnoses.")->Get();
  solver_lp_iterations_total_ = metrics_.AddCounter(
      "qfix_solver_lp_iterations_total",
      "Simplex iterations across all served diagnoses.")->Get();
  solver_incumbent_updates_total_ = metrics_.AddCounter(
      "qfix_solver_incumbent_updates_total",
      "Times a branch & bound worker installed a new best incumbent.")
      ->Get();
  encoder_constraints_total_ = metrics_.AddCounter(
      "qfix_encoder_constraints_total",
      "MILP constraints emitted by the encoder.")->Get();
  encoder_variables_total_ = metrics_.AddCounter(
      "qfix_encoder_variables_total",
      "MILP variables emitted by the encoder.")->Get();
  encoder_prefix_reused_total_ = metrics_.AddCounter(
      "qfix_encoder_prefix_reused_total",
      "Diagnoses that replayed a memoized chunk-prefix state instead of "
      "re-encoding the full log.")->Get();
  slow_requests_total_ = metrics_.AddCounter(
      "qfix_slow_requests_total",
      "Diagnose requests slower than --slow-request-ms.")->Get();
  requests_ = counters(
      "qfix_requests_total", "Requests routed, by endpoint.", "endpoint",
      {{"append", "requests.append"}, {"datasets", "requests.datasets"},
       {"debug", "requests.debug"}, {"diagnose", "requests.diagnose"},
       {"healthz", "requests.healthz"}, {"metrics", "requests.metrics"},
       {"stats", "requests.stats"}});
  responses_ = counters("qfix_http_responses_total",
                        "Responses written, by status class.", "class",
                        {{"2xx", ""}, {"4xx", "requests.errors_4xx"},
                         {"5xx", "requests.errors_5xx"}});
  stats_leaves_.push_back({"requests.total", "qfix_http_responses_total", {}});
  shed_total_ = counter("qfix_shed_total",
                        "Requests shed with 429 over capacity.",
                        "requests.shed_429");
  connections_total_ = counter("qfix_connections_total",
                               "TCP connections accepted.",
                               "requests.connections");
  items_total_ = counter("qfix_items_total", "Batch items admitted and solved.",
                         "requests.items");
  cached_hits_total_ =
      counter("qfix_cached_hits_total",
              "Diagnose sub-requests answered from the report cache.",
              "requests.cached_hits");
  appended_queries_total_ = counter("qfix_ingest_appended_queries_total",
                                    "Queries accepted via append.",
                                    "ingest.appended_queries");
  stall_events_ =
      counters("qfix_stalls_total", "Watchdog stall events, by kind.", "kind",
               {{"admission_starvation", "stalls.admission_starvation"},
                {"event_loop", "stalls.event_loop"},
                {"solve_deadline", "stalls.solve_deadline"}});
  surviving_cache_bytes_ =
      metrics_.AddGauge("qfix_surviving_cache_bytes",
                        "Report-cache bytes of the last appended dataset "
                        "that survived its append.")->Get();
  stats_leaves_.push_back(
      {"ingest.surviving_cache_bytes", "qfix_surviving_cache_bytes", {}});
  tenant_requests_ = tenant_counter("qfix_tenant_requests_total",
                                    "Diagnose requests, by tenant.",
                                    "requests");
  tenant_shed_ = tenant_counter("qfix_tenant_shed_total",
                                "429 sheds, by tenant.", "shed_429");
  tenant_items_ = tenant_counter("qfix_tenant_items_total",
                                 "Batch items admitted, by tenant.", "items");
  tenant_cached_hits_ = tenant_counter("qfix_tenant_cached_hits_total",
                                       "Report-cache hits, by tenant.",
                                       "cached_hits");

  scalar("qfix_open_connections", "Connections currently admitted.",
         Kind::kGauge, "", true, [this] { return open_connections_.load(); });
  scalar("qfix_inflight_items",
         "Batch items currently inside the admission gate.", Kind::kGauge,
         "queue.inflight", true, [this] { return governor_->inflight(); });
  scalar("qfix_inflight_capacity", "Admission gate capacity in batch items.",
         Kind::kGauge, "queue.capacity", true,
         [this] { return options_.max_inflight; });
  callbacks(
      "qfix_report_cache_events_total", "Report cache events, by kind.",
      Kind::kCounter, "event",
      {{"coalesced", "cache.coalesced"}, {"evictions", "cache.evictions"},
       {"hits", "cache.hits"}, {"inserts", "cache.inserts"},
       {"invalidations", "cache.invalidations"}, {"misses", "cache.misses"}},
      caching, [this] {
        cache::ReportCache::Stats s = cache_->stats();
        return Values(s.coalesced, s.evictions, s.hits, s.inserts,
                      s.invalidations, s.misses);
      });
  scalar("qfix_report_cache_bytes", "Report cache occupancy in bytes.",
         Kind::kGauge, "cache.bytes", caching,
         [this] { return cache_->stats().bytes; });
  scalar("qfix_report_cache_entries", "Report cache entries.", Kind::kGauge,
         "cache.entries", caching, [this] { return cache_->stats().entries; });
  scalar("qfix_report_cache_capacity_bytes", "Report cache byte budget.",
         Kind::kGauge, "cache.capacity_bytes", caching,
         [this] { return cache_->stats().capacity_bytes; });
  scalar("qfix_registry_datasets", "Datasets currently registered.",
         Kind::kGauge, "registry.datasets", true,
         [this] { return registry_.stats().datasets; });
  scalar("qfix_registry_bytes", "Registry occupancy over ApproxDatasetBytes.",
         Kind::kGauge, "registry.bytes", true,
         [this] { return registry_.stats().bytes; });
  scalar("qfix_registry_capacity_bytes",
         "Registry byte budget (0 = unbounded).", Kind::kGauge,
         "registry.capacity_bytes", true,
         [this] { return registry_.stats().capacity_bytes; });
  callbacks("qfix_registry_evictions_total", "Registry evictions, by kind.",
            Kind::kCounter, "kind",
            {{"lru", "registry.evictions"}, {"ttl", "registry.ttl_evictions"}},
            true, [this] {
              DatasetRegistry::Stats s = registry_.stats();
              return Values(s.evictions, s.ttl_evictions);
            });
  scalar("qfix_ingest_appends_total", "Successful append publications.",
         Kind::kCounter, "ingest.appends", true,
         [this] { return registry_.stats().appends; });
  scalar("qfix_ingest_chunks", "Sealed chunks across registered head versions.",
         Kind::kGauge, "ingest.chunks", true,
         [this] { return registry_.stats().chunks; });
  callbacks("qfix_encoding_cache_events_total",
            "Chunk-prefix encoding cache events, by kind.", Kind::kCounter,
            "event",
            {{"compute", "ingest.prefix_computes"},
             {"hit", "ingest.prefix_hits"},
             {"miss", "ingest.prefix_misses"}},
            encoding, [this] {
              ingest::EncodingCache::Stats s = encoding_cache_->stats();
              return Values(s.computes, s.hits, s.misses);
            });
  scalar("qfix_encoding_cache_bytes", "Encoding cache occupancy in bytes.",
         Kind::kGauge, "ingest.encoding_cache_bytes", encoding,
         [this] { return encoding_cache_->stats().bytes; });
  scalar("qfix_encoding_cache_entries", "Encoding cache entries.",
         Kind::kGauge, "ingest.encoding_cache_entries", encoding,
         [this] { return encoding_cache_->stats().entries; });
  tenant_gauge("qfix_tenant_inflight", "Items inside the gate, by tenant.",
               "inflight", [](const TenantStats& t) { return t.inflight; });
  tenant_gauge("qfix_tenant_share", "Guaranteed admission share, by tenant.",
               "share", [](const TenantStats& t) { return t.share; });
  tenant_gauge("qfix_tenant_weight", "Fair-share weight, by tenant.", "weight",
               [](const TenantStats& t) { return t.weight; });
  tenant_gauge("qfix_tenant_cache_bytes", "Report-cache bytes, by tenant.",
               "cache_bytes", [this, caching](const TenantStats& t) {
                 return caching ? cache_->TenantBytes(t.name) : 0;
               });
  scalar("qfix_pool_workers", "Workers of the shared solver pool.",
         Kind::kGauge, "pool_workers", true,
         [this] { return pool_ != nullptr ? pool_->num_workers() : 0; });
  scalar("qfix_event_loops", "Event-loop threads sharing the listener.",
         Kind::kGauge, "", true,
         [this] { return options_.event_loop_threads; });
  scalar("qfix_uptime_seconds", "Seconds since Start().", Kind::kGauge,
         "uptime_seconds", true, [this] {
           return running_.load() ? MonotonicSeconds() - started_at_seconds_
                                  : 0.0;
         });
  scalar("qfix_metrics_scrapes_total", "GET /metrics responses served.",
         Kind::kCounter, "metrics_scrapes_total", true,
         [this] { return requests_[kMetrics]->Value(); });
  scalar("qfix_log_lines_dropped_total",
         "WARN log lines dropped by the --warn-log-per-sec token bucket.",
         Kind::kCounter, "log_lines_dropped", true,
         [] { return DroppedLogLines(); });
  callbacks("qfix_trace_recorder_events_total",
            "Flight-recorder retention decisions, by kind.", Kind::kCounter,
            "event",
            {{"evicted", "trace_recorder.evicted"},
             {"forced", "trace_recorder.forced"},
             {"recorded", "trace_recorder.recorded"},
             {"retained", "trace_recorder.retained"},
             {"sampled_out", "trace_recorder.sampled_out"}},
            recording, [this] {
              obs::TraceRecorder::Stats s = recorder_->stats();
              return Values(s.evicted_total, s.forced_total,
                            s.recorded_total, s.retained_total,
                            s.sampled_out_total);
            });
  scalar("qfix_trace_buffer_bytes", "Flight-recorder ring occupancy in bytes.",
         Kind::kGauge, "trace_recorder.buffered_bytes", recording,
         [this] { return recorder_->stats().buffered_bytes; });
  scalar("qfix_trace_buffer_traces", "Traces currently in the flight recorder.",
         Kind::kGauge, "trace_recorder.buffered", recording,
         [this] { return recorder_->stats().buffered; });
}

std::string DiagnosisServer::RenderStats(
    const obs::MetricsSnapshot& snapshot) const {
  StatsLeaves leaves;
  for (const StatsLeaf& leaf : stats_leaves_) {
    AddLeaf(leaf.path, *snapshot.Find(leaf.family),
            snapshot.Sum(leaf.family, leaf.labels), &leaves);
  }
  leaves.emplace_back("cache.enabled", cache_ != nullptr);
  leaves.emplace_back("ingest.encoding_cache_enabled",
                      encoding_cache_ != nullptr);
  leaves.emplace_back("trace_recorder.enabled", recorder_ != nullptr);
  // Every tenant a per-tenant series names, sorted by name.
  std::set<std::string> tenants;
  for (const StatsLeaf& leaf : tenant_leaves_) {
    for (const auto& series : snapshot.Find(leaf.family)->series) {
      tenants.insert(series.label_values.front());
    }
  }

  JsonWriter w;
  w.BeginObject();
  WriteLeaves(std::move(leaves), &w);
  w.Key("tenants");
  w.BeginObject();
  for (const std::string& tenant : tenants) {
    StatsLeaves per_tenant;
    for (const StatsLeaf& leaf : tenant_leaves_) {
      AddLeaf(leaf.path, *snapshot.Find(leaf.family),
              snapshot.Sum(leaf.family, {tenant}), &per_tenant);
    }
    w.Key(tenant);
    w.BeginObject();
    WriteLeaves(std::move(per_tenant), &w);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

DiagnosisServer::~DiagnosisServer() { Stop(); }

Status DiagnosisServer::Start() {
  QFIX_CHECK(!running_.load()) << "Start() on a running server";

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal(StringPrintf("socket(): %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("not an IPv4 address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::InvalidArgument(StringPrintf(
        "bind(%s:%d): %s", options_.host.c_str(), options_.port,
        strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  // Deep backlog: at 10k+ connection scale, connect bursts between two
  // epoll wakeups are normal and must not see SYN drops.
  if (::listen(listen_fd_, 4096) != 0) {
    Status s = Status::Internal(
        StringPrintf("listen(): %s", strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    bound_port_ = ntohs(addr.sin_port);
  }

  pool_ = std::make_unique<exec::ThreadPool>(options_.jobs);
  // The handler pool runs blocking endpoint work off the loop threads.
  // It must be able to saturate the admission gate (so over-capacity
  // bursts reach the gate and shed 429 instead of queueing behind
  // busy workers), hence gate capacity plus slack.
  handler_pool_ =
      std::make_unique<exec::ThreadPool>(std::max(options_.max_inflight + 2,
                                                  4));
  // Fresh cancellation source: a server restarted after Stop() must
  // not inherit the fired token (it would 503 every diagnosis).
  shutdown_ = exec::CancellationSource();
  started_at_seconds_ = MonotonicSeconds();

  // The watchdog is rebuilt per Start(): heartbeats register per
  // event-loop shard below, and RegisterHeartbeat must precede its
  // Start(). Probes that are disabled (threshold 0) cost nothing.
  obs::Watchdog::Options wd;
  wd.loop_stall_seconds = options_.loop_stall_warn_seconds;
  wd.solve_deadline_warn_seconds = options_.solve_deadline_warn_ms / 1e3;
  wd.starvation_window_seconds = options_.admission_starvation_warn_seconds;
  // Poll at a quarter of the tightest enabled threshold (within
  // [10ms, 250ms]) — a 20ms solve deadline is meaningless when the
  // monitor only looks every 250ms.
  double tightest = 0.0;
  for (double t : {wd.loop_stall_seconds, wd.solve_deadline_warn_seconds,
                   wd.starvation_window_seconds}) {
    if (t > 0.0 && (tightest == 0.0 || t < tightest)) tightest = t;
  }
  if (tightest > 0.0) {
    wd.poll_interval_seconds = std::clamp(tightest / 4.0, 0.01, 0.25);
  }
  watchdog_ = std::make_unique<obs::Watchdog>(
      wd, [this](const obs::Watchdog::StallEvent& e) { OnStall(e); });
  watchdog_->SetStarvationProbe([this](std::string* detail) {
    int inflight = governor_->inflight();
    if (inflight < options_.max_inflight) return false;
    *detail = StringPrintf("admission gate pinned at %d/%d items", inflight,
                           options_.max_inflight);
    return true;
  });
  // Beat well inside the stall threshold so one missed wakeup never
  // reads as a stall.
  const double hb_interval =
      options_.loop_stall_warn_seconds > 0.0
          ? std::clamp(options_.loop_stall_warn_seconds / 4.0, 0.01, 0.25)
          : 0.0;

  shards_.clear();
  for (int i = 0; i < options_.event_loop_threads; ++i) {
    auto shard = std::make_unique<LoopShard>();
    shard->index = i;
    Status init = shard->loop.Init();
    if (!init.ok()) {
      shards_.clear();
      watchdog_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      handler_pool_.reset();
      pool_.reset();
      return init;
    }
    LoopShard* s = shard.get();
    s->loop.SetDrainedCheck([s] { return s->conns.empty(); });
    s->acceptor = std::make_unique<Acceptor>(this, s, listen_fd_);
    // Registration runs on the Start() thread, legal because the loop
    // has not started yet (InLoopThread() covers the pre-Run owner).
    s->acceptor->Register();
    if (hb_interval > 0.0) {
      s->hb_handle =
          watchdog_->RegisterHeartbeat(StringPrintf("event_loop_%d", i));
      s->hb_tick = [this, s, hb_interval] {
        watchdog_->Beat(s->hb_handle);
        s->loop.timers().Schedule(hb_interval, s->hb_tick);
      };
      // First beat + schedule from the Start() thread (pre-Run, same
      // legality as the acceptor registration above).
      s->hb_tick();
    }
    shards_.push_back(std::move(shard));
  }
  watchdog_->Start();

  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    LoopShard* s = shard.get();
    s->thread = std::thread([s] { s->loop.Run(); });
  }
  LogEvent(LogLevel::kInfo, "server_started")
      .Str("host", options_.host)
      .Int("port", bound_port_)
      .Int("event_loops", options_.event_loop_threads)
      .Int("jobs", options_.jobs)
      .Int("max_inflight", options_.max_inflight)
      .Int("max_connections", options_.max_connections);
  return Status::OK();
}

void DiagnosisServer::Stop() {
  bool was_running = running_.exchange(false);
  // Silence the watchdog before tearing anything down: a draining
  // server legitimately misses heartbeats and overruns deadlines, and
  // those are not stalls worth a WARN. The object itself outlives the
  // handler pool (in-flight handlers still call Begin/EndSolve).
  if (watchdog_ != nullptr) watchdog_->Stop();
  // Fire the token first so queued batch items fail fast and debug
  // sleeps wake; then ask every loop to close its connections (a
  // connection waiting on a dispatched handler survives until the
  // completion flushes its response) and exit once drained.
  shutdown_.Cancel();
  for (auto& shard : shards_) {
    LoopShard* s = shard.get();
    s->loop.Post([s] {
      if (s->acceptor != nullptr) s->acceptor->Shutdown();
      std::vector<Connection*> conns(s->conns.begin(), s->conns.end());
      for (Connection* c : conns) c->OnShutdown();
    });
    s->loop.RequestStop();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  shards_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (was_running) {
    handler_pool_.reset();
    pool_.reset();
    watchdog_.reset();
    LogEvent(LogLevel::kInfo, "server_stopped")
        .Int("port", bound_port_)
        .Uint("requests_total", responses_[0]->Value() +
                                    responses_[1]->Value() +
                                    responses_[2]->Value())
        .Uint("connections_total", connections_total_->Value());
  }
}

// ---------------------------------------------------------------------------
// ConnectionHost

const ConnectionHost::Config& DiagnosisServer::conn_config() const {
  return conn_config_;
}

bool DiagnosisServer::shutting_down() const { return shutdown_.cancelled(); }

HttpResponse DiagnosisServer::ErrorResponse(int http_status,
                                            const std::string& code,
                                            const std::string& message) const {
  return JsonError(http_status, code, message);
}

void DiagnosisServer::OnAccept(int fd, LoopShard* shard) {
  int prev = open_connections_.fetch_add(1, std::memory_order_acq_rel);
  if (prev >= options_.max_connections) {
    open_connections_.fetch_sub(1, std::memory_order_acq_rel);
    // Shed at the connection level without reading the request. The
    // reject rides the normal write path (so the response is counted
    // and drains gracefully) but never takes a connection slot and is
    // not a connections_total accept.
    Connection* conn =
        new Connection(fd, &shard->loop, this, shard->index,
                       /*counted=*/false);
    shard->conns.insert(conn);
    conn->BeginReject(
        JsonError(503, "Unavailable", "connection limit reached"));
    return;
  }
  connections_total_->Inc();
  Connection* conn = new Connection(fd, &shard->loop, this, shard->index,
                                    /*counted=*/true);
  shard->conns.insert(conn);
  conn->Begin();
}

void DiagnosisServer::OnConnectionClosed(Connection* conn) {
  if (conn->counted()) {
    open_connections_.fetch_sub(1, std::memory_order_acq_rel);
  }
  shards_[static_cast<size_t>(conn->loop_index())]->conns.erase(conn);
  delete conn;
}

void DiagnosisServer::CountResponse(int http_status) {
  // Every answered request counts, including protocol errors the
  // parser rejected. Each class is counted directly, so their sum —
  // requests.total — never runs backwards between scrapes.
  responses_[http_status >= 500 ? 2 : http_status >= 400 ? 1 : 0]->Inc();
  if (http_status == 429) shed_total_->Inc();
}

void DiagnosisServer::RecordWritePhase(double seconds) {
  phases_[kWrite]->Observe(seconds);
}

void DiagnosisServer::Offload(std::function<HttpResponse()> handler,
                              std::function<void(HttpResponse)> done) {
  handler_pool_->Submit(
      [handler = std::move(handler), done = std::move(done)] {
        done(handler());
      });
}

bool DiagnosisServer::HandleRequest(HttpRequest request, HttpResponse* out,
                                    std::function<void(HttpResponse)> done) {
  const std::string path(request.path());
  // Counts the request under `endpoint`; false, with a 405 in *out, when
  // it does not use `method` (nullptr: the handler checks).
  auto route = [&](Endpoint endpoint, const char* method) {
    requests_[endpoint]->Inc();
    if (method == nullptr || request.method == method) return true;
    *out = JsonError(405, "MethodNotAllowed", std::string("use ") + method);
    return false;
  };
  // Runs a blocking handler on the handler pool; its response goes out
  // through `done`.
  auto offload = [&](HttpResponse (DiagnosisServer::*handler)(
                         const HttpRequest&)) {
    Offload(
        [this, handler, request = std::move(request)] {
          return (this->*handler)(request);
        },
        std::move(done));
    return false;
  };
  if (path == "/v1/healthz") {
    if (route(kHealthz, "GET")) *out = HandleHealthz();
    return true;
  }
  if (path == "/v1/stats") {
    if (route(kStats, "GET")) *out = HandleStats();
    return true;
  }
  if (path == "/metrics") {
    if (route(kMetrics, "GET")) *out = HandleMetrics();
    return true;
  }
  if (path == "/v1/datasets") {
    if (!route(kDatasets, "POST")) return true;
    return offload(&DiagnosisServer::HandleRegisterDataset);
  }
  if (path == "/v1/diagnose") {
    if (!route(kDiagnose, "POST")) return true;
    return offload(&DiagnosisServer::HandleDiagnose);
  }
  // POST /v1/datasets/{name}/append — the dataset name is the path
  // segment between the registration prefix and the trailing verb.
  constexpr std::string_view kDatasetsPrefix = "/v1/datasets/";
  constexpr std::string_view kAppendSuffix = "/append";
  if (path.size() > kDatasetsPrefix.size() + kAppendSuffix.size() &&
      path.compare(0, kDatasetsPrefix.size(), kDatasetsPrefix) == 0 &&
      path.compare(path.size() - kAppendSuffix.size(), kAppendSuffix.size(),
                   kAppendSuffix) == 0) {
    if (!route(kAppend, "POST")) return true;
    std::string name = path.substr(
        kDatasetsPrefix.size(),
        path.size() - kDatasetsPrefix.size() - kAppendSuffix.size());
    Offload(
        [this, request = std::move(request), name = std::move(name)] {
          return HandleAppend(request, name);
        },
        std::move(done));
    return false;
  }
  if (path == "/v1/debug/traces") {
    if (!route(kDebug, "GET")) return true;
    // Bypasses the admission gate like healthz/stats: the endpoint
    // exists precisely for when the server is saturated. Offloaded
    // anyway — rendering a few MB of retained traces has no place on a
    // loop thread.
    return offload(&DiagnosisServer::HandleDebugTraces);
  }
  if (options_.enable_test_endpoints && path == "/v1/debug/sleep") {
    route(kDebug, nullptr);
    return offload(&DiagnosisServer::HandleDebugSleep);
  }
  if (options_.enable_test_endpoints && path == "/v1/debug/payload") {
    route(kDebug, nullptr);
    return offload(&DiagnosisServer::HandleDebugPayload);
  }
  *out = JsonError(404, "NotFound", "unknown endpoint: " + path);
  return true;
}

// ---------------------------------------------------------------------------
// Endpoint handlers

// Baked in by src/CMakeLists.txt; fallbacks cover non-CMake builds.
#ifndef QFIX_VERSION_STRING
#define QFIX_VERSION_STRING "dev"
#endif
#ifndef QFIX_BUILD_TYPE
#define QFIX_BUILD_TYPE "unknown"
#endif
#ifndef QFIX_SANITIZE_CONFIG
#define QFIX_SANITIZE_CONFIG "OFF"
#endif

HttpResponse DiagnosisServer::HandleHealthz() {
  JsonWriter w;
  w.BeginObject();
  w.Key("status");
  w.String("ok");
  w.Key("datasets");
  w.Uint(registry_.size());
  w.Key("uptime_seconds");
  w.Double(MonotonicSeconds() - started_at_seconds_);
  // Build info: lets fleet tooling tell ASan/TSan/Release binaries
  // apart when triaging a misbehaving replica.
  w.Key("build");
  w.BeginObject();
  w.Key("version");
  w.String(QFIX_VERSION_STRING);
  w.Key("compiler");
  w.String(__VERSION__);
  w.Key("build_type");
  w.String(QFIX_BUILD_TYPE);
  w.Key("sanitize");
  w.String(QFIX_SANITIZE_CONFIG);
  w.EndObject();
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

HttpResponse DiagnosisServer::HandleMetrics() {
  HttpResponse out;
  out.headers.emplace_back("Content-Type",
                           "text/plain; version=0.0.4; charset=utf-8");
  out.body = metrics_.RenderPrometheus();
  return out;
}

HttpResponse DiagnosisServer::HandleStats() {
  HttpResponse out;
  out.body = RenderStats(metrics_.Snapshot());
  return out;
}

HttpResponse DiagnosisServer::HandleRegisterDataset(
    const HttpRequest& request) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) return StatusError(400, doc.status());

  auto name = doc->RequiredString("name");
  if (!name.ok()) return StatusError(400, name.status());
  auto log_sql = doc->RequiredString("log_sql");
  if (!log_sql.ok()) return StatusError(400, log_sql.status());

  const JsonValue* d0_csv = doc->Find("d0_csv");
  const JsonValue* d0_snapshot = doc->Find("d0_snapshot");
  const JsonValue* d0 = d0_csv != nullptr ? d0_csv : d0_snapshot;
  if ((d0_csv != nullptr) == (d0_snapshot != nullptr) || !d0->is_string()) {
    return JsonError(400, "InvalidArgument",
                     "exactly one of 'd0_csv' or 'd0_snapshot' must be "
                     "given as a string");
  }
  std::string table = "T";
  if (const JsonValue* t = doc->Find("table")) {
    if (!t->is_string()) {
      return JsonError(400, "InvalidArgument", "'table' must be a string");
    }
    table = t->AsString();
  }

  auto registered = registry_.Register(*name, d0->AsString(), table,
                                       *log_sql);
  if (!registered.ok()) {
    // A full registry is back-pressure (free a name or replace one),
    // not a malformed request.
    return StatusError(
        registered.status().IsResourceExhausted() ? 429 : 400,
        registered.status());
  }

  const Dataset& ds = **registered;
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(ds.name);
  w.Key("table");
  w.String(ds.d0().table_name());
  w.Key("attrs");
  w.Uint(ds.d0().schema().num_attrs());
  w.Key("tuples");
  w.Uint(ds.d0().NumSlots());
  w.Key("queries");
  w.Uint(ds.log.size());
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

HttpResponse DiagnosisServer::HandleAppend(const HttpRequest& request,
                                           std::string name) {
  auto doc = ParseJson(request.body);
  if (!doc.ok()) return StatusError(400, doc.status());
  auto log_sql = doc->RequiredString("log_sql");
  if (!log_sql.ok()) return StatusError(400, log_sql.status());

  auto appended =
      registry_.Append(name, *log_sql, options_.max_append_queries);
  if (!appended.ok()) {
    const Status& s = appended.status();
    // Atomic by contract: any failure left the registered version
    // untouched, so the error code is all the caller needs.
    int http = 400;
    if (s.IsNotFound()) {
      http = 404;
    } else if (s.IsResourceExhausted()) {
      http = 413;  // the append body exceeds this server's limits
    } else if (s.IsAborted()) {
      http = 409;  // lost the race with a concurrent re-registration
    } else if (!s.IsInvalidArgument()) {
      http = 500;
    }
    return StatusError(http, s);
  }

  const Dataset& ds = **appended;
  // An append seals the base's tail, so the new version's mutable tail
  // is exactly the queries this request added.
  const uint64_t added =
      static_cast<uint64_t>(ds.log.size() - ds.tail_begin());
  appended_queries_total_->Inc(added);
  // Gauge, not a counter: the report-cache bytes of this dataset that
  // survived the append thanks to prefix-aware keys.
  surviving_cache_bytes_->Set(static_cast<double>(
      cache_ != nullptr ? cache_->DatasetBytes(ds.name) : 0));

  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(ds.name);
  w.Key("version");
  w.Uint(ds.version);
  w.Key("queries");
  w.Uint(ds.log.size());
  w.Key("appended");
  w.Uint(added);
  w.Key("chunks");
  w.Uint(ds.chunks.size());
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

/// One POST /v1/diagnose on its way through the stages.
struct DiagnosisServer::DiagnoseCall {
  explicit DiagnoseCall(const std::string* request_id)
      : trace(request_id != nullptr ? *request_id : std::string()) {}

  obs::TraceContext trace;
  /// {"items":[...]} rather than a single diagnosis object.
  bool batched = false;
  bool with_timings = false;
  std::vector<qfixcore::BatchItem> items;
  /// The distinct tenants the items touch, in item order (items are
  /// <= max_items; a linear scan beats a map at that size).
  std::vector<std::string> tenants;
  /// Owns the call's leaderships: what the solve leaves, it abandons.
  qfixcore::BatchPlan plan;
  /// The admission slots, held through the solve.
  TenantGovernor::Ticket ticket;
  /// One per item, unless every item hit; a hit's slot is unused.
  std::vector<Result<qfixcore::Repair>> results;
};

HttpResponse DiagnosisServer::HandleDiagnose(const HttpRequest& request) {
  // The connection layer already sanitized (or minted) X-Request-Id,
  // so the trace id matches the response header byte-for-byte.
  DiagnoseCall call(request.FindHeader("X-Request-Id"));
  HttpResponse out = [&] {
    if (auto error = ParseDiagnose(request, &call)) return *error;
    LookupDiagnose(&call);
    if (auto shed = AdmitDiagnose(&call)) return *shed;
    SolveDiagnose(&call);
    HttpResponse response = RenderDiagnose(&call);
    ObserveDiagnose(call);
    return response;
  }();
  RecordTrace(call, out.status);
  return out;
}

qfixcore::BatchDiagnoser DiagnosisServer::Diagnoser() const {
  qfixcore::BatchOptions options;
  options.pool = pool_.get();
  options.cancel = shutdown_.token();
  options.report_cache = cache_.get();
  return qfixcore::BatchDiagnoser(options);
}

std::optional<HttpResponse> DiagnosisServer::ParseDiagnose(
    const HttpRequest& request, DiagnoseCall* call) {
  PhaseSpan span(call->trace, "parse");

  auto doc = ParseJson(request.body);
  if (!doc.ok()) return StatusError(400, doc.status());
  auto with_timings = doc->BoolOr("timings", false);
  if (!with_timings.ok()) return StatusError(400, with_timings.status());
  call->with_timings = *with_timings;

  // One request is either a single diagnosis object or {"items":[...]}.
  std::vector<const JsonValue*> item_docs;
  if (const JsonValue* items = doc->Find("items")) {
    if (!items->is_array() || items->AsArray().empty()) {
      return JsonError(400, "InvalidArgument",
                       "'items' must be a non-empty array");
    }
    if (items->AsArray().size() > static_cast<size_t>(options_.max_items)) {
      return JsonError(413, "ResourceExhausted",
                       StringPrintf("'items' has %zu entries; this server "
                                    "accepts at most %d per request",
                                    items->AsArray().size(),
                                    options_.max_items));
    }
    call->batched = true;
    for (const JsonValue& item : items->AsArray()) {
      if (!item.is_object()) {
        return JsonError(400, "InvalidArgument",
                         "every item must be an object");
      }
      item_docs.push_back(&item);
    }
  } else {
    item_docs.push_back(&*doc);
  }

  // Decode every item before admitting: malformed requests must not
  // occupy a slot. Each item shares the registered snapshot by
  // reference (no Dataset deep copy, see cache/snapshot.h).
  std::vector<qfixcore::BatchItem> decoded;
  decoded.reserve(item_docs.size());
  for (size_t i = 0; i < item_docs.size(); ++i) {
    const JsonValue& item = *item_docs[i];
    auto ds_name = item.RequiredString("dataset");
    if (!ds_name.ok()) return StatusError(400, ds_name.status());
    std::shared_ptr<const Dataset> dataset = registry_.Get(*ds_name);
    if (dataset == nullptr) {
      return JsonError(404, "NotFound",
                       StringPrintf("item %zu: dataset '%s' is not "
                                    "registered",
                                    i, ds_name->c_str()));
    }
    auto complaints_csv = item.RequiredString("complaints_csv");
    if (!complaints_csv.ok()) return StatusError(400, complaints_csv.status());
    auto complaints =
        io::ComplaintsFromCsv(*complaints_csv, dataset->d0().schema());
    if (!complaints.ok()) return StatusError(400, complaints.status());
    qfixcore::BatchItem bi;
    bi.complaints = std::move(complaints).value();
    if (bi.complaints.empty()) {
      return JsonError(400, "InvalidArgument",
                       StringPrintf("item %zu: complaint set is empty", i));
    }
    auto denoise = item.BoolOr("denoise", false);
    if (!denoise.ok()) return StatusError(400, denoise.status());
    if (*denoise) {
      // Denoise at decode time so the cache key hashes the complaint
      // set that is actually diagnosed.
      bi.complaints =
          provenance::DenoiseComplaints(bi.complaints, dataset->dirty).kept;
    }
    auto k = item.NumberOr("k", 1.0);
    if (!k.ok()) return StatusError(400, k.status());
    if (*k < 0.0 || *k > 1000.0 || *k != static_cast<int>(*k)) {
      return JsonError(400, "InvalidArgument",
                       "'k' must be an integer in [0, 1000]");
    }
    auto basic = item.BoolOr("basic", false);
    if (!basic.ok()) return StatusError(400, basic.status());
    bi.k = *basic ? 0 : static_cast<int>(*k);
    auto time_limit =
        item.NumberOr("time_limit_seconds", options_.max_time_limit_seconds);
    if (!time_limit.ok()) return StatusError(400, time_limit.status());
    bi.options.time_limit_seconds =
        std::min(*time_limit, options_.max_time_limit_seconds);
    if (bi.options.time_limit_seconds <= 0.0) {
      bi.options.time_limit_seconds = options_.max_time_limit_seconds;
    }
    // Share the server's pool with the inner solves: no per-request
    // thread churn (the MilpOptions/BatchOptions caller-owned hooks).
    // The shutdown token reaches the solver's node loop too, so Stop()
    // interrupts running searches instead of waiting out their budget.
    bi.options.milp.pool = pool_.get();
    bi.options.milp.cancel = shutdown_.token();
    // Solver-boundary tracing: the engine opens "encode"/"solve" spans
    // itself (it owns that split) and the MILP search hangs
    // presolve/root_lp/node_batch/incumbent children off them.
    // TraceContext is thread-safe, so concurrent batch items may
    // record into it. Runtime-only wiring, never part of cache keys.
    bi.options.milp.trace = &call->trace;
    // Prefix reuse for appended datasets: the engine starts encoding
    // from the memoized chunk-prefix replay instead of re-walking the
    // whole log (no-op for unchunked datasets or a null cache).
    bi.options.encoding_cache = encoding_cache_.get();
    std::string tenant(TenantOf(dataset->name));
    if (std::find(call->tenants.begin(), call->tenants.end(), tenant) ==
        call->tenants.end()) {
      call->tenants.push_back(std::move(tenant));
    }
    bi.data = cache::Snapshot(std::move(dataset));
    decoded.push_back(std::move(bi));
  }
  for (const std::string& tenant : call->tenants) {
    tenant_requests_->WithLabels({tenant})->Inc();
  }
  call->items = std::move(decoded);
  return std::nullopt;
}

void DiagnosisServer::LookupDiagnose(DiagnoseCall* call) {
  // Before the admission gate or the pool: a hit answers with the
  // byte-identical cached report and does no solver work; a cold miss
  // takes singleflight leadership, so concurrent identical requests
  // block on this call's solve instead of repeating it.
  PhaseSpan span(call->trace, "cache");
  call->plan = Diagnoser().Lookup(call->items);
  for (size_t i = 0; i < call->items.size(); ++i) {
    if (call->plan.state(i) != qfixcore::BatchPlan::State::kHit) continue;
    cached_hits_total_->Inc();
    tenant_cached_hits_->WithLabels({TenantOf(call->items[i].data.name())})
        ->Inc();
  }
}

std::optional<HttpResponse> DiagnosisServer::AdmitDiagnose(
    DiagnoseCall* call) {
  PhaseSpan span(call->trace, "admission");
  const size_t solves = call->plan.misses();
  if (solves == 0) return std::nullopt;
  // Admission is counted in batch items (one request can fan out
  // items[]); hits and in-request duplicates take no slot. Over
  // capacity — global room, or another tenant's guaranteed share —
  // shed rather than queue. The per-tenant weights are the solve counts
  // of this request's items, so the governor bounds solver work, not
  // sockets.
  std::vector<std::pair<std::string, int>> wants;
  for (size_t i = 0; i < call->items.size(); ++i) {
    if (!call->plan.miss(i)) continue;
    std::string tenant(TenantOf(call->items[i].data.name()));
    auto it = std::find_if(wants.begin(), wants.end(),
                           [&](const auto& w) { return w.first == tenant; });
    if (it == wants.end()) {
      wants.emplace_back(std::move(tenant), 1);
    } else {
      ++it->second;
    }
  }
  if (!governor_->TryAcquire(wants, &call->ticket)) {
    for (const auto& want : wants) {
      tenant_shed_->WithLabels({want.first})->Inc();
    }
    return JsonError(429, "OverCapacity",
                     StringPrintf("diagnosis queue is full (%zu items "
                                  "over %d slots)",
                                  solves, options_.max_inflight));
  }
  if (shutdown_.cancelled()) {
    return JsonError(503, "ShuttingDown", "server is shutting down");
  }
  items_total_->Inc(solves);
  for (const auto& [tenant, count] : wants) {
    tenant_items_->WithLabels({tenant})->Inc(static_cast<uint64_t>(count));
  }
  return std::nullopt;
}

void DiagnosisServer::SolveDiagnose(DiagnoseCall* call) {
  obs::TraceContext& trace = call->trace;
  if (call->plan.misses() == 0) {
    // All items were cache hits (or duplicates of hits): the request
    // still reports zero-length encode/solve phases so the timings
    // shape is uniform.
    const double now = trace.ElapsedSeconds();
    trace.AddSpan("encode", now, now);
    trace.AddSpan("solve", now, now);
    return;
  }
  // The watchdog flags this solve — by request id, while it is still
  // running — if it overruns --solve-deadline-warn-ms, and
  // force-retains its trace.
  const uint64_t solve_token =
      watchdog_ != nullptr ? watchdog_->BeginSolve(trace.request_id()) : 0;
  call->results = Diagnoser().Solve(call->items, &call->plan,
                                    /*reports=*/true);
  if (watchdog_ != nullptr) watchdog_->EndSolve(solve_token);
  call->ticket.Release();

  // Per-item "encode"/"solve" spans (and their solver-internal
  // children) were recorded by the engine during Solve(); here only the
  // scrape-time counters remain to accumulate.
  for (size_t i = 0; i < call->items.size(); ++i) {
    if (!call->plan.miss(i) || !call->results[i].ok()) continue;
    const auto& st = call->results[i]->stats;
    solver_nodes_total_->Inc(static_cast<uint64_t>(st.solver_nodes));
    solver_lp_iterations_total_->Inc(static_cast<uint64_t>(st.lp_iterations));
    solver_incumbent_updates_total_->Inc(
        static_cast<uint64_t>(st.incumbent_updates));
    encoder_constraints_total_->Inc(static_cast<uint64_t>(st.num_constraints));
    encoder_variables_total_->Inc(static_cast<uint64_t>(st.num_vars));
    if (st.prefix_reused) encoder_prefix_reused_total_->Inc();
  }
}

HttpResponse DiagnosisServer::RenderDiagnose(DiagnoseCall* call) {
  // Per-item ok/report or ok/error, plus whether the report came from
  // the cache. The report document is the exact report_json rendering —
  // a cache hit splices the original solve's bytes.
  obs::TraceContext& trace = call->trace;
  PhaseSpan span(trace, "render");
  // Writes the opt-in "timings" block. Closing the render span first
  // keeps sum(phases) <= total_ms: the few bytes of timings JSON
  // serialized after the measurement are the only untracked work.
  auto write_timings = [&](JsonWriter* w) {
    span.End();
    w->Key("timings");
    w->BeginObject();
    w->Key("request_id");
    w->String(trace.request_id());
    w->Key("total_ms");
    w->Double(trace.ElapsedSeconds() * 1e3);
    w->Key("phases");
    WriteSpans(trace.spans(), w);
    w->EndObject();
  };

  auto render_item = [&](size_t i, JsonWriter* w, bool include_timings) {
    const bool cached = call->plan.cached(i);
    const bool ok = cached || call->results[i].ok();
    w->BeginObject();
    w->Key("dataset");
    w->String(call->items[i].data.name());
    w->Key("ok");
    w->Bool(ok);
    w->Key("cached");
    w->Bool(cached);
    if (ok) {
      w->Key("report");
      w->Raw(call->plan.report(i)->report_json);
    } else {
      const Status& status = call->results[i].status();
      WriteError(StatusCodeToString(status.code()), status.message(), w);
    }
    if (include_timings) write_timings(w);
    w->EndObject();
  };

  JsonWriter w;
  if (call->batched) {
    w.BeginObject();
    w.Key("results");
    w.BeginArray();
    for (size_t i = 0; i < call->items.size(); ++i) {
      render_item(i, &w, /*include_timings=*/false);
    }
    w.EndArray();
    if (call->with_timings) write_timings(&w);
    w.EndObject();
  } else {
    render_item(0, &w, /*include_timings=*/call->with_timings);
  }
  span.End();
  HttpResponse out;
  out.body = w.str();
  return out;
}

void DiagnosisServer::ObserveDiagnose(const DiagnoseCall& call) {
  const obs::TraceContext& trace = call.trace;
  // Only served diagnoses feed the latency histogram: healthz/stats
  // pollers and shed 429s run in microseconds and would drown the
  // latency /v1/stats exists to expose. Observed per tenant — a slow
  // tenant's solves land in its own series, so its p99 never skews
  // another tenant's.
  const double elapsed = trace.ElapsedSeconds();
  for (const std::string& tenant : call.tenants) {
    // The exemplar pins the request id of the worst recent observation
    // to its bucket, so a latency spike on the dashboard links straight
    // to its retained trace in /v1/debug/traces.
    diagnose_seconds_by_tenant_->WithLabels({tenant})->ObserveWithExemplar(
        elapsed, trace.request_id());
  }
  // Phase histograms count one observation per phase per request: the
  // engine records encode/solve once per batch item (plus refinement
  // rounds, which count toward encode/solve), so per-item durations are
  // summed before observing. Solver-internal child spans are trace-only
  // detail.
  {
    double by_phase[kWrite] = {};
    bool seen[kWrite] = {};
    for (const obs::TraceSpan& span : trace.spans()) {
      std::string_view phase = span.phase;
      if (phase.substr(0, 7) == "refine_") phase.remove_prefix(7);
      const auto* it = std::find(kPhases, kPhases + kWrite, phase);
      if (it == kPhases + kWrite) continue;
      by_phase[it - kPhases] += span.DurationSeconds();
      seen[it - kPhases] = true;
    }
    for (int i = 0; i < kWrite; ++i) {
      if (seen[i]) phases_[i]->Observe(by_phase[i]);
    }
  }
  if (options_.slow_request_ms > 0.0 &&
      elapsed * 1e3 >= options_.slow_request_ms) {
    slow_requests_total_->Inc();
    LogEvent log(LogLevel::kWarn, "slow_request");
    log.Str("request_id", trace.request_id())
        .Double("total_ms", elapsed * 1e3)
        .Uint("items", call.items.size());
    log.Str("tenants", Join(call.tenants, ","));
    // Aggregate by phase name: a batch records encode/solve (and
    // solver-internal children) once per item, and one log line must
    // not carry duplicate keys.
    std::vector<std::pair<std::string, double>> phase_ms;
    for (const obs::TraceSpan& span : trace.spans()) {
      auto it = std::find_if(
          phase_ms.begin(), phase_ms.end(),
          [&](const auto& p) { return p.first == span.phase; });
      if (it == phase_ms.end()) {
        phase_ms.emplace_back(span.phase, span.DurationSeconds() * 1e3);
      } else {
        it->second += span.DurationSeconds() * 1e3;
      }
    }
    for (const auto& [phase, ms] : phase_ms) {
      log.Double(phase + "_ms", ms);
    }
  }
}

namespace {

/// Splits "k=v&k2=v2" into pairs. Values are taken verbatim — every
/// filterable field (tenant, dataset, outcome, numbers) is drawn from
/// [A-Za-z0-9._-], so nothing needs %-decoding.
std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    std::string_view pair = query.substr(pos, amp - pos);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.emplace_back(std::string(pair), std::string());
      } else {
        out.emplace_back(std::string(pair.substr(0, eq)),
                         std::string(pair.substr(eq + 1)));
      }
    }
    pos = amp + 1;
  }
  return out;
}

/// Strict full-string double parse; false on trailing garbage.
bool ParseQueryDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) return false;
  *out = v;
  return true;
}

}  // namespace

HttpResponse DiagnosisServer::HandleDebugTraces(const HttpRequest& request) {
  obs::TraceRecorder::Filter filter;
  for (const auto& [key, value] : ParseQueryParams(request.query())) {
    if (key == "tenant") {
      filter.tenant = value;
    } else if (key == "dataset") {
      filter.dataset = value;
    } else if (key == "min_duration_ms") {
      double ms = 0.0;
      if (!ParseQueryDouble(value, &ms) || ms < 0.0) {
        return JsonError(400, "InvalidArgument",
                         "'min_duration_ms' must be a non-negative number");
      }
      filter.min_duration_seconds = ms / 1e3;
    } else if (key == "outcome") {
      if (!obs::ParseTraceOutcome(value, &filter.outcome)) {
        return JsonError(400, "InvalidArgument",
                         "'outcome' must be one of ok|slow|error|shed");
      }
      filter.has_outcome = true;
    } else if (key == "limit") {
      double n = 0.0;
      if (!ParseQueryDouble(value, &n) || n < 1.0 || n > 1024.0 ||
          n != static_cast<size_t>(n)) {
        return JsonError(400, "InvalidArgument",
                         "'limit' must be an integer in [1, 1024]");
      }
      filter.limit = static_cast<size_t>(n);
    } else {
      return JsonError(400, "InvalidArgument",
                       "unknown filter '" + key +
                           "' (tenant, dataset, min_duration_ms, outcome, "
                           "limit)");
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("enabled");
  w.Bool(recorder_ != nullptr);
  if (recorder_ != nullptr) {
    obs::TraceRecorder::Stats s = recorder_->stats();
    w.Key("recorder");
    w.BeginObject();
    w.Key("recorded");
    w.Uint(s.recorded_total);
    w.Key("retained");
    w.Uint(s.retained_total);
    w.Key("sampled_out");
    w.Uint(s.sampled_out_total);
    w.Key("forced");
    w.Uint(s.forced_total);
    w.Key("evicted");
    w.Uint(s.evicted_total);
    w.Key("buffered");
    w.Uint(s.buffered);
    w.Key("buffered_bytes");
    w.Uint(s.buffered_bytes);
    w.Key("byte_budget");
    w.Uint(s.byte_budget);
    w.EndObject();
  }
  w.Key("traces");
  w.BeginArray();
  if (recorder_ != nullptr) {
    for (const obs::RetainedTrace& t : recorder_->Snapshot(filter)) {
      w.BeginObject();
      w.Key("request_id");
      w.String(t.request_id);
      w.Key("tenant");
      w.String(t.tenant);
      w.Key("dataset");
      w.String(t.dataset);
      w.Key("endpoint");
      w.String(t.endpoint);
      w.Key("outcome");
      w.String(obs::TraceOutcomeName(t.outcome));
      w.Key("http_status");
      w.Int(t.http_status);
      w.Key("duration_ms");
      w.Double(t.duration_seconds * 1e3);
      w.Key("recorded_unix_seconds");
      w.Double(t.recorded_unix_seconds);
      w.Key("forced");
      w.Bool(t.forced);
      w.Key("retain_reason");
      w.String(t.retain_reason);
      w.Key("spans");
      WriteSpans(t.spans, &w);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

void DiagnosisServer::RecordTrace(const DiagnoseCall& call, int http_status) {
  if (recorder_ == nullptr) return;
  obs::RetainedTrace rt;
  rt.request_id = call.trace.request_id();
  // Attribution: the first item speaks for the request (a batch can
  // span tenants, but one label is what the flight-recorder filter
  // needs). A request that failed to decode has none.
  if (!call.items.empty()) {
    rt.tenant = call.tenants.front();
    rt.dataset = call.items.front().data.name();
  }
  rt.endpoint = "/v1/diagnose";
  // Tail-based retention: the outcome is only known now, at
  // completion. Shed and errored requests are always kept; ok traces
  // face the sampler (and a slowness upgrade) inside the recorder.
  rt.outcome = http_status == 429  ? obs::TraceOutcome::kShed
               : http_status >= 400 ? obs::TraceOutcome::kError
                                    : obs::TraceOutcome::kOk;
  rt.http_status = http_status;
  rt.duration_seconds = call.trace.ElapsedSeconds();
  // Safe to read spans(): the solve (the only concurrent recorder)
  // joined before the handler returned.
  rt.spans = call.trace.spans();
  recorder_->Record(std::move(rt));
}

void DiagnosisServer::OnStall(const obs::Watchdog::StallEvent& event) {
  const Stall kind = event.kind == "event_loop"       ? kEventLoop
                    : event.kind == "solve_deadline" ? kSolveDeadline
                                                     : kAdmissionStarvation;
  stall_events_[kind]->Inc();
  // Pin before the WARN: the offending request may complete while this
  // line renders, and the pin must already be in place when its trace
  // lands in the recorder.
  if (!event.request_id.empty() && recorder_ != nullptr) {
    recorder_->ForceRetain(event.request_id, "stall:" + event.kind);
  }
  LogEvent(LogLevel::kWarn, "stall")
      .Str("kind", event.kind)
      .Str("request_id", event.request_id)
      .Str("detail", event.detail)
      .Double("age_seconds", event.age_seconds);
}

HttpResponse DiagnosisServer::HandleDebugSleep(const HttpRequest& request) {
  if (request.method != "POST") {
    return JsonError(405, "MethodNotAllowed", "use POST");
  }
  auto doc = ParseJson(request.body.empty() ? "{}" : request.body);
  if (!doc.ok()) return StatusError(400, doc.status());
  auto requested = doc->NumberOr("seconds", 0.1);
  if (!requested.ok()) return StatusError(400, requested.status());
  double seconds = std::clamp(*requested, 0.0, 30.0);
  // Optional tenant attribution so tests can exercise fair sharing and
  // per-tenant latency with deterministic service times.
  std::string tenant = "default";
  if (const JsonValue* t = doc->Find("tenant")) {
    if (!t->is_string()) {
      return JsonError(400, "InvalidArgument", "'tenant' must be a string");
    }
    tenant = t->AsString();
  }

  const double start_seconds = MonotonicSeconds();
  tenant_requests_->WithLabels({tenant})->Inc();
  TenantGovernor::Ticket ticket;
  if (!governor_->TryAcquire({{tenant, 1}}, &ticket)) {
    tenant_shed_->WithLabels({tenant})->Inc();
    return JsonError(429, "OverCapacity", "diagnosis queue is full");
  }
  Deadline deadline = Deadline::AfterSeconds(seconds);
  while (!deadline.Expired() && !shutdown_.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ticket.Release();
  // The sleep stands in for a diagnosis: it lands in the tenant's
  // latency series.
  diagnose_seconds_by_tenant_->WithLabels({tenant})->Observe(
      MonotonicSeconds() - start_seconds);
  JsonWriter w;
  w.BeginObject();
  w.Key("slept_seconds");
  w.Double(seconds);
  w.Key("cancelled");
  w.Bool(shutdown_.cancelled());
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

HttpResponse DiagnosisServer::HandleDebugPayload(const HttpRequest& request) {
  if (request.method != "POST") {
    return JsonError(405, "MethodNotAllowed", "use POST");
  }
  auto doc = ParseJson(request.body.empty() ? "{}" : request.body);
  if (!doc.ok()) return StatusError(400, doc.status());
  auto requested = doc->NumberOr("bytes", 1024.0);
  if (!requested.ok()) return StatusError(400, requested.status());
  size_t n = static_cast<size_t>(
      std::clamp(*requested, 1.0, 8.0 * 1024.0 * 1024.0));
  JsonWriter w;
  w.BeginObject();
  w.Key("payload");
  w.String(std::string(n, 'x'));
  w.EndObject();
  HttpResponse out;
  out.body = w.str();
  return out;
}

}  // namespace service
}  // namespace qfix
