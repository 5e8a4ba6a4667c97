// qfix_serve — the embedded HTTP/JSON diagnosis server.
//
// Usage:
//   qfix_serve [--host ADDR] [--port N] [--jobs N] [--max-inflight N]
//              [--max-connections N] [--event-loop-threads N]
//              [--time-limit SECONDS]
//              [--name NAME --table T --d0 FILE --log FILE]
//              [--test-endpoints]
//
// Starts the service (src/service) and blocks until SIGINT/SIGTERM,
// then shuts down cooperatively (in-flight requests drain, queued batch
// items fail fast). `--port 0` (the default) binds an ephemeral port;
// the bound address is printed as
//   qfix_serve listening on http://HOST:PORT
// so scripts (the CI smoke, the tests) can scrape it.
//
// Numeric flags are parsed strictly: trailing garbage ("80x0") and
// out-of-range values are usage errors, never a silent 0 — a server
// that binds an ephemeral port because a typo atoi'd to zero is a
// production incident, not a default. No SIGPIPE handler is installed
// (or needed): every send in the server and client goes through
// MSG_NOSIGNAL.
//
// Endpoints and JSON schemas: README.md, section "Running the server".
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/logging.h"
#include "service/registry.h"
#include "service/server.h"
#include "tool_common.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host ADDR] [--port N] [--jobs N]\n"
      "          [--max-inflight N] [--max-connections N]\n"
      "          [--event-loop-threads N] [--time-limit SECONDS]\n"
      "          [--name NAME --table T --d0 FILE --log FILE]\n\n"
      "  --host ADDR         bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 picks an ephemeral port\n"
      "                      (default 0)\n"
      "  --jobs N            diagnosis pool workers (default 1;\n"
      "                      0 = one per core)\n"
      "  --max-inflight N    diagnosis requests in flight before the\n"
      "                      server sheds with 429 (default 8)\n"
      "  --max-connections N concurrent connections (default 10000)\n"
      "  --event-loop-threads N\n"
      "                      epoll event-loop threads sharing the\n"
      "                      listener (default 1)\n"
      "  --max-datasets N    registry capacity; full -> 429 for new\n"
      "                      names (default 64)\n"
      "  --max-items N       items[] entries accepted per diagnose\n"
      "                      request (default 64)\n"
      "  --time-limit S      cap on any request's per-item time limit\n"
      "                      (default 30)\n"
      "  --cache-bytes N     report-cache byte budget (default 64 MiB)\n"
      "  --cache-off         disable the report cache entirely\n"
      "  --cache-tenant-fraction F\n"
      "                      cap one tenant's slice of each cache\n"
      "                      shard's budget, in (0,1] (default 1.0)\n"
      "  --max-append-queries N\n"
      "                      queries one POST /v1/datasets/{name}/append\n"
      "                      may carry; larger bodies are rejected whole\n"
      "                      with 413 (default 4096; 0 = unbounded)\n"
      "  --encoding-cache-bytes N\n"
      "                      byte budget of the incremental-encoding\n"
      "                      cache (memoized chunk-prefix replays;\n"
      "                      default 16 MiB, 0 disables prefix reuse)\n"
      "  --registry-bytes N  registry byte budget; past it the least\n"
      "                      recently used datasets are evicted\n"
      "                      (default 0 = unbounded)\n"
      "  --registry-ttl S    evict datasets idle this long (default\n"
      "                      0 = no TTL)\n"
      "  --tenant-weight NAME=W\n"
      "                      fair-share admission weight for tenant\n"
      "                      NAME (repeatable; unlisted tenants are 1)\n"
      "  --tenant-activity-window S\n"
      "                      how long a shed tenant keeps its\n"
      "                      guaranteed share reserved (default 5)\n"
      "  --idle-timeout S    keep-alive idle budget between requests\n"
      "                      on one connection (default 5)\n"
      "  --max-requests-per-conn N\n"
      "                      requests one connection may carry before\n"
      "                      the server closes it (default 100;\n"
      "                      1 disables keep-alive)\n"
      "  --slow-request-ms MS\n"
      "                      WARN-log any /v1/diagnose slower than MS\n"
      "                      milliseconds end to end (default 0 = off);\n"
      "                      slow requests are also always retained in\n"
      "                      the flight recorder\n"
      "  --trace-buffer-bytes N\n"
      "                      flight-recorder byte budget for retained\n"
      "                      request traces, served by GET\n"
      "                      /v1/debug/traces (default 4 MiB; 0\n"
      "                      disables the recorder)\n"
      "  --trace-sample-probability F\n"
      "                      retention probability in [0,1] for fast,\n"
      "                      successful requests; slow/errored/shed\n"
      "                      requests are always retained (default\n"
      "                      0.01)\n"
      "  --loop-stall-warn-ms MS\n"
      "                      WARN `stall` when an event-loop heartbeat\n"
      "                      goes stale this long (default 1000;\n"
      "                      0 = off)\n"
      "  --solve-deadline-warn-ms MS\n"
      "                      WARN `stall` when one solve runs longer\n"
      "                      than MS and force-retain its trace\n"
      "                      (default 0 = off)\n"
      "  --starvation-warn-ms MS\n"
      "                      WARN `stall` when the admission gate stays\n"
      "                      pinned at max-inflight this long (default\n"
      "                      0 = off)\n"
      "  --warn-log-per-sec N\n"
      "                      token-bucket cap on WARN log lines per\n"
      "                      second; drops count in\n"
      "                      qfix_log_lines_dropped_total (default\n"
      "                      0 = unlimited)\n"
      "  --log-level LEVEL   debug|info|warn|error|off (default info)\n"
      "  --log-json          emit structured logs as JSON lines\n"
      "  --name/--table/--d0/--log\n"
      "                      preregister one dataset from files before\n"
      "                      serving (same formats as qfix --d0/--log)\n"
      "  --test-endpoints    enable POST /v1/debug/sleep and\n"
      "                      /v1/debug/payload (tests only)\n",
      argv0);
}

using qfix::tools::DoubleFlag;
using qfix::tools::IntFlag;
using qfix::tools::TenantWeightFlag;
using qfix::tools::ReadFile;

}  // namespace

int main(int argc, char** argv) {
  qfix::service::ServerOptions options;
  std::string pre_name, pre_table = "T", pre_d0_path, pre_log_path;

  bool usage_error = false;
  for (int i = 1; i < argc && !usage_error; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto int_flag = [&](long lo, long hi, long* out) {
      usage_error |= !IntFlag(arg, next(), lo, hi, out);
    };
    auto double_flag = [&](double lo, double hi, double* out) {
      usage_error |= !DoubleFlag(arg, next(), lo, hi, out);
    };
    long n = 0;
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "error: --host needs an address\n");
        usage_error = true;
      } else {
        options.host = v;
      }
    } else if (arg == "--port") {
      int_flag(0, 65535, &n);
      options.port = static_cast<int>(n);
    } else if (arg == "--jobs") {
      int_flag(0, 4096, &n);
      options.jobs = n == 0 ? qfix::exec::ThreadPool::DefaultParallelism()
                            : static_cast<int>(n);
    } else if (arg == "--max-inflight") {
      int_flag(1, 1000000, &n);
      options.max_inflight = static_cast<int>(n);
    } else if (arg == "--max-connections") {
      int_flag(1, 1000000, &n);
      options.max_connections = static_cast<int>(n);
    } else if (arg == "--event-loop-threads") {
      int_flag(1, 64, &n);
      options.event_loop_threads = static_cast<int>(n);
    } else if (arg == "--max-datasets") {
      int_flag(1, 1000000, &n);
      options.max_datasets = static_cast<int>(n);
    } else if (arg == "--max-items") {
      int_flag(1, 1000000, &n);
      options.max_items = static_cast<int>(n);
    } else if (arg == "--time-limit") {
      double_flag(0.001, 86400.0, &options.max_time_limit_seconds);
    } else if (arg == "--cache-bytes") {
      int_flag(0, LONG_MAX, &n);
      options.cache_bytes = static_cast<size_t>(n);
    } else if (arg == "--cache-off") {
      options.cache_bytes = 0;
    } else if (arg == "--cache-tenant-fraction") {
      double_flag(0.000001, 1.0, &options.cache_tenant_fraction);
    } else if (arg == "--max-append-queries") {
      int_flag(0, LONG_MAX, &n);
      options.max_append_queries = static_cast<size_t>(n);
    } else if (arg == "--encoding-cache-bytes") {
      int_flag(0, LONG_MAX, &n);
      options.encoding_cache_bytes = static_cast<size_t>(n);
    } else if (arg == "--registry-bytes") {
      int_flag(0, LONG_MAX, &n);
      options.registry_bytes = static_cast<size_t>(n);
    } else if (arg == "--registry-ttl") {
      double_flag(0.0, 86400.0 * 365.0, &options.registry_ttl_seconds);
    } else if (arg == "--tenant-weight") {
      usage_error |= !TenantWeightFlag(arg, next(), &options.tenant_weights);
    } else if (arg == "--tenant-activity-window") {
      double_flag(0.0, 86400.0, &options.tenant_activity_window_seconds);
    } else if (arg == "--idle-timeout") {
      double_flag(0.001, 86400.0, &options.idle_timeout_seconds);
    } else if (arg == "--max-requests-per-conn") {
      int_flag(1, 1000000000, &n);
      options.max_requests_per_conn = static_cast<int>(n);
    } else if (arg == "--slow-request-ms") {
      double_flag(0.0, 86400.0 * 1e3, &options.slow_request_ms);
    } else if (arg == "--trace-buffer-bytes") {
      int_flag(0, LONG_MAX, &n);
      options.trace_buffer_bytes = static_cast<size_t>(n);
    } else if (arg == "--trace-sample-probability") {
      double_flag(0.0, 1.0, &options.trace_sample_probability);
    } else if (arg == "--loop-stall-warn-ms") {
      double stall_ms = options.loop_stall_warn_seconds * 1e3;
      double_flag(0.0, 86400.0 * 1e3, &stall_ms);
      options.loop_stall_warn_seconds = stall_ms / 1e3;
    } else if (arg == "--solve-deadline-warn-ms") {
      double_flag(0.0, 86400.0 * 1e3, &options.solve_deadline_warn_ms);
    } else if (arg == "--starvation-warn-ms") {
      double starve_ms = options.admission_starvation_warn_seconds * 1e3;
      double_flag(0.0, 86400.0 * 1e3, &starve_ms);
      options.admission_starvation_warn_seconds = starve_ms / 1e3;
    } else if (arg == "--warn-log-per-sec") {
      double_flag(0.0, 1e9, &options.warn_log_per_sec);
    } else if (arg == "--log-level") {
      const char* v = next();
      qfix::LogLevel level = qfix::LogLevel::kInfo;
      if (v == nullptr || !qfix::ParseLogLevel(v, &level)) {
        std::fprintf(stderr,
                     "error: --log-level needs debug|info|warn|error|off\n");
        usage_error = true;
      } else {
        qfix::SetLogLevel(level);
      }
    } else if (arg == "--log-json") {
      qfix::SetLogJson(true);
    } else if (arg == "--name") {
      pre_name = next() ? argv[i] : "";
    } else if (arg == "--table") {
      pre_table = next() ? argv[i] : "T";
    } else if (arg == "--d0") {
      pre_d0_path = next() ? argv[i] : "";
    } else if (arg == "--log") {
      pre_log_path = next() ? argv[i] : "";
    } else if (arg == "--test-endpoints") {
      options.enable_test_endpoints = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage_error = true;
    }
  }
  if (usage_error) {
    PrintUsage(argv[0]);
    return 2;
  }

  qfix::service::DiagnosisServer server(options);

  if (!pre_d0_path.empty() || !pre_log_path.empty()) {
    if (pre_d0_path.empty() || pre_log_path.empty() || pre_name.empty()) {
      std::fprintf(stderr,
                   "error: preregistration needs --name, --d0 and --log\n");
      return 2;
    }
    std::string d0_text, log_sql;
    if (!ReadFile(pre_d0_path, &d0_text)) {
      std::fprintf(stderr, "error: cannot read %s\n", pre_d0_path.c_str());
      return 1;
    }
    if (!ReadFile(pre_log_path, &log_sql)) {
      std::fprintf(stderr, "error: cannot read %s\n", pre_log_path.c_str());
      return 1;
    }
    auto ds = server.registry().Register(pre_name, d0_text, pre_table,
                                         log_sql);
    if (!ds.ok()) {
      std::fprintf(stderr, "error registering dataset: %s\n",
                   ds.status().ToString().c_str());
      return 1;
    }
    qfix::LogEvent(qfix::LogLevel::kInfo, "dataset_registered")
        .Str("name", (*ds)->name)
        .Uint("tuples", (*ds)->d0().NumSlots())
        .Uint("queries", (*ds)->log.size());
  }

  qfix::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Note: deliberately NO SIGPIPE handler — every server/client send
  // path uses MSG_NOSIGNAL, so a write to a reset peer returns EPIPE
  // instead of raising a process-killing signal. Library embedders get
  // the same safety without touching process-wide signal state.

  std::printf("qfix_serve listening on http://%s:%d\n",
              options.host.c_str(), server.port());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  qfix::LogEvent(qfix::LogLevel::kInfo, "shutdown_signal");
  server.Stop();
  return 0;
}
