// qfix_load — multi-tenant load generator for qfix_serve.
//
// Usage:
//   qfix_load --url http://HOST:PORT [--mode closed|open]
//             [--duration S] [--concurrency N] [--rate R]
//             [--tenants N | --tenant NAME=W ...]
//             [--cached-fraction F] [--register-fraction F]
//             [--variants N] [--seed N] [--timeout S] [--json FILE]
//             [--no-setup] [--scrape-metrics] [--probe-traces]
//
// Drives a running qfix_serve with a weighted tenant mix (tenant =
// dataset namespace, e.g. "t1/taxes" belongs to tenant "t1"). Setup
// registers one taxes dataset per tenant, then each tenant's traffic
// mixes cache-friendly repeats, cold complaint variants, and optional
// re-registrations. Two arrival processes (src/harness/loadgen.h):
// closed-loop fixed concurrency, or open-loop fixed rate with
// coordinated-omission-corrected latency.
//
// Prints a human summary, optionally writes the full JSON result
// (bench_results/ compatible) with --json. Exits nonzero when the run
// saw 5xx or transport errors — shed 429s are expected under overload
// and do NOT fail the run — so CI soak lanes can assert "no errors
// besides 429" with the exit code alone.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/loadgen.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/json_value.h"
#include "tool_common.h"

namespace {

using qfix::JsonWriter;
using qfix::tools::DoubleFlag;
using qfix::tools::IntFlag;
using qfix::tools::TenantWeightFlag;
using qfix::harness::LoadOptions;
using qfix::harness::LoadRequestTemplate;
using qfix::harness::LoadResult;
using qfix::harness::LoadTenantSpec;
using qfix::harness::TenantLoadResult;

// The paper's running example, small enough that one diagnosis is a
// few milliseconds of MILP work — load comes from volume, not size.
constexpr const char* kTaxD0Csv =
    "income,owed,pay\n"
    "9500,950,8550\n"
    "90000,22500,67500\n"
    "86000,21500,64500\n"
    "86500,21625,64875\n";

constexpr const char* kTaxLogSql =
    "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
    "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n"
    "UPDATE Taxes SET pay = income - owed;\n";

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --url http://HOST:PORT [options]\n\n"
      "  --url URL           server base URL (required)\n"
      "  --mode closed|open  arrival process (default closed)\n"
      "  --duration S        run length in seconds (default 10)\n"
      "  --concurrency N     worker connections (default 4)\n"
      "  --rate R            open loop: offered requests/second over\n"
      "                      all tenants (default 100)\n"
      "  --tenants N         N equal-weight tenants t1..tN (default 3)\n"
      "  --tenant NAME=W     add tenant NAME with traffic weight W\n"
      "                      (repeatable; overrides --tenants)\n"
      "  --cached-fraction F share of each tenant's requests that\n"
      "                      repeat one complaint set (cache hits\n"
      "                      after the first solve; default 0.5)\n"
      "  --register-fraction F\n"
      "                      share that re-registers the tenant's\n"
      "                      dataset (invalidates its cache; default 0)\n"
      "  --append-mix F      share that appends queries to the tenant's\n"
      "                      dataset (POST /v1/datasets/{name}/append;\n"
      "                      the appended queries write only 'income',\n"
      "                      so cached owed/pay reports survive;\n"
      "                      default 0)\n"
      "  --append-rows N     queries carried per append request\n"
      "                      (default 4)\n"
      "  --variants N        distinct cold complaint sets per tenant\n"
      "                      (default 8)\n"
      "  --seed N            RNG seed (default 1)\n"
      "  --timeout S         per-request timeout (default 30)\n"
      "  --json FILE         write the full JSON result to FILE\n"
      "  --no-setup          skip dataset registration\n"
      "  --scrape-metrics    GET /metrics before and after the run,\n"
      "                      lint both payloads (failures fail the run),\n"
      "                      and print the nonzero counter deltas\n"
      "  --probe-traces      after the run, post one deliberately slow\n"
      "                      basic-mode diagnose (own padded dataset)\n"
      "                      with a known X-Request-Id and assert its\n"
      "                      trace — with solver-internal child spans —\n"
      "                      is retained in /v1/debug/traces. Needs a\n"
      "                      server running with --slow-request-ms set\n"
      "                      so slow requests are tail-retained\n",
      argv0);
}

std::string RegisterBody(const std::string& dataset) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(dataset);
  w.Key("table");
  w.String("Taxes");
  w.Key("d0_csv");
  w.String(kTaxD0Csv);
  w.Key("log_sql");
  w.String(kTaxLogSql);
  w.EndObject();
  return w.str();
}

/// `rows` appended queries that write only `income` (a no-op touch of
/// rows that don't exist): the diagnose mix complains about owed/pay,
/// so these appends can never affect a cached report's complaint
/// window — prefix-aware cache keys keep every report servable.
std::string AppendBody(long rows) {
  std::string sql;
  for (long r = 0; r < rows; ++r) {
    sql += "UPDATE Taxes SET income = income + 0 WHERE income < 0;\n";
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("log_sql");
  w.String(sql);
  w.EndObject();
  return w.str();
}

std::string DiagnoseBody(const std::string& dataset, double pay) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(dataset);
  w.Key("complaints_csv");
  char rows[128];
  std::snprintf(rows, sizeof(rows),
                "tid,alive,income,owed,pay\n2,1,86000,21500,%.0f\n", pay);
  w.String(rows);
  w.EndObject();
  return w.str();
}

void PrintLatency(const char* label, const qfix::harness::LatencyHistogram& h) {
  std::printf("  %-10s n=%llu p50=%.2fms p90=%.2fms p99=%.2fms "
              "p99.9=%.2fms max=%.2fms\n",
              label, static_cast<unsigned long long>(h.count()),
              h.Percentile(0.50) * 1e3, h.Percentile(0.90) * 1e3,
              h.Percentile(0.99) * 1e3, h.Percentile(0.999) * 1e3,
              h.max() * 1e3);
}

/// One --scrape-metrics snapshot: GET /metrics, lint the payload with
/// the in-repo linter, and flatten every counter sample — plus each
/// histogram's `_count` series, which is a counter in all but name —
/// into "name{label=\"v\",...}" -> value. False (with a message) on any
/// transport, lint, or parse failure.
bool ScrapeCounters(const std::string& host, int port, double timeout,
                    std::map<std::string, double>* out) {
  auto resp = qfix::service::HttpGet(host, port, "/metrics", timeout);
  if (!resp.ok() || resp->status != 200) {
    std::fprintf(stderr, "error: GET /metrics failed: %s\n",
                 resp.ok() ? resp->body.c_str()
                           : resp.status().ToString().c_str());
    return false;
  }
  qfix::Status lint = qfix::obs::LintExposition(resp->body);
  if (!lint.ok()) {
    std::fprintf(stderr, "error: /metrics failed lint: %s\n",
                 lint.ToString().c_str());
    return false;
  }
  auto parsed = qfix::obs::ParseExposition(resp->body);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: /metrics did not parse: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  for (const auto& sample : parsed->samples) {
    bool keep = false;
    auto type = parsed->types.find(sample.name);
    if (type != parsed->types.end()) {
      keep = type->second == "counter";
    } else if (sample.name.size() > 6 &&
               sample.name.compare(sample.name.size() - 6, 6, "_count") ==
                   0) {
      auto base =
          parsed->types.find(sample.name.substr(0, sample.name.size() - 6));
      keep = base != parsed->types.end() && base->second == "histogram";
    }
    if (!keep) continue;
    std::string key = sample.name;
    if (!sample.labels.empty()) {
      key += "{";
      for (size_t i = 0; i < sample.labels.size(); ++i) {
        if (i > 0) key += ",";
        key += sample.labels[i].first + "=\"" + sample.labels[i].second +
               "\"";
      }
      key += "}";
    }
    (*out)[key] = sample.value;
  }
  return true;
}

/// --probe-traces: one deliberately slow diagnose stamped with a known
/// X-Request-Id, then assert the flight recorder retained its trace
/// with at least one solver-internal child span. Exercises the whole
/// observability chain the way an operator debugging a slow request
/// would: id in -> same id out of GET /v1/debug/traces.
///
/// The probe registers its own dataset whose query log is padded with
/// no-op updates and diagnoses it in basic mode (Algorithm 1
/// parameterizes EVERY logged query, so the padding is real MILP work
/// the incremental slicer would otherwise discard). Calibration: ~10
/// padding queries put a cold solve in the tens of milliseconds —
/// decisively past any sane --slow-request-ms, guaranteeing tail
/// retention — while the time_limit_seconds guard keeps a slow CI
/// machine bounded (a limit-hit solve still answers 200 with solver
/// spans, so the probe still passes).
bool ProbeTraces(const LoadOptions& options, const std::string& tenant) {
  const std::string probe_id = "qfix-load-slow-probe";
  const std::string dataset = tenant + "/trace-probe";
  // The padding no-ops go BEFORE the final `pay = income - owed`
  // update: upstream of the complained-about attributes their
  // parameterizations can all interact with the repair, which is what
  // makes the MILP genuinely hard. Appended after it they are dead
  // code the solver's presolve prunes in microseconds.
  std::string log =
      "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
      "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n";
  for (int i = 0; i < 8; ++i) {
    log += "UPDATE Taxes SET income = income + 0 WHERE income < 0;\n";
  }
  log += "UPDATE Taxes SET pay = income - owed;\n";
  JsonWriter reg_body;
  reg_body.BeginObject();
  reg_body.Key("name");
  reg_body.String(dataset);
  reg_body.Key("table");
  reg_body.String("Taxes");
  reg_body.Key("d0_csv");
  reg_body.String(kTaxD0Csv);
  reg_body.Key("log_sql");
  reg_body.String(log);
  reg_body.EndObject();
  auto reg = qfix::service::HttpPost(options.host, options.port,
                                     "/v1/datasets", reg_body.str(),
                                     options.request_timeout_seconds);
  if (!reg.ok() || reg->status != 200) {
    std::fprintf(stderr, "error: trace probe registration failed: %s\n",
                 reg.ok() ? reg->body.c_str()
                          : reg.status().ToString().c_str());
    return false;
  }
  JsonWriter diag_body;
  diag_body.BeginObject();
  diag_body.Key("dataset");
  diag_body.String(dataset);
  diag_body.Key("basic");
  diag_body.Bool(true);
  diag_body.Key("time_limit_seconds");
  diag_body.Double(10.0);
  diag_body.Key("complaints_csv");
  // The complaint target varies per invocation so a repeat probe
  // against a long-lived server misses the report cache and solves
  // cold again (a cache hit is fast, and fast+ok is only sampled).
  char complaint[128];
  std::snprintf(complaint, sizeof(complaint),
                "tid,alive,income,owed,pay\n2,1,86000,21500,%ld\n",
                50000 + static_cast<long>(std::time(nullptr) % 40000));
  diag_body.String(complaint);
  diag_body.EndObject();
  auto diag = qfix::service::HttpPost(
      options.host, options.port, "/v1/diagnose", diag_body.str(),
      std::max(options.request_timeout_seconds, 30.0),
      {{"X-Request-Id", probe_id}});
  if (!diag.ok() || diag->status != 200) {
    std::fprintf(stderr, "error: trace probe diagnose failed: %s\n",
                 diag.ok() ? diag->body.c_str()
                           : diag.status().ToString().c_str());
    return false;
  }
  auto traces = qfix::service::HttpGet(options.host, options.port,
                                       "/v1/debug/traces?limit=1024",
                                       options.request_timeout_seconds);
  if (!traces.ok() || traces->status != 200) {
    std::fprintf(stderr, "error: GET /v1/debug/traces failed: %s\n",
                 traces.ok() ? traces->body.c_str()
                             : traces.status().ToString().c_str());
    return false;
  }
  auto doc = qfix::service::ParseJson(traces->body);
  if (!doc.ok()) {
    std::fprintf(stderr, "error: /v1/debug/traces did not parse: %s\n",
                 doc.status().ToString().c_str());
    return false;
  }
  const qfix::service::JsonValue* list = doc->Find("traces");
  if (list == nullptr || !list->is_array()) {
    std::fprintf(stderr, "error: /v1/debug/traces has no traces array\n");
    return false;
  }
  for (const qfix::service::JsonValue& trace : list->AsArray()) {
    const qfix::service::JsonValue* id = trace.Find("request_id");
    if (id == nullptr || !id->is_string() || id->AsString() != probe_id) {
      continue;
    }
    const qfix::service::JsonValue* spans = trace.Find("spans");
    size_t solver_children = 0;
    if (spans != nullptr && spans->is_array()) {
      for (const qfix::service::JsonValue& span : spans->AsArray()) {
        const qfix::service::JsonValue* phase = span.Find("phase");
        if (phase == nullptr || !phase->is_string()) continue;
        const std::string& p = phase->AsString();
        if (p == "presolve" || p == "root_lp" || p == "node_batch" ||
            p == "incumbent_update") {
          ++solver_children;
        }
      }
    }
    if (solver_children == 0) {
      std::fprintf(stderr,
                   "error: probe trace %s retained without solver-internal "
                   "spans\n",
                   probe_id.c_str());
      return false;
    }
    std::printf("trace probe: %s retained with %zu solver-internal "
                "span(s)\n",
                probe_id.c_str(), solver_children);
    return true;
  }
  std::fprintf(stderr,
               "error: probe request %s not found in /v1/debug/traces — is "
               "the server running with --slow-request-ms set (and a "
               "nonzero --trace-buffer-bytes)?\n",
               probe_id.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string url;
  std::string json_path;
  LoadOptions options;
  options.duration_seconds = 10.0;
  options.concurrency = 4;
  options.rate_per_second = 100.0;
  long tenant_count = 3;
  std::vector<std::pair<std::string, int>> named_tenants;
  double cached_fraction = 0.5;
  double register_fraction = 0.0;
  double append_mix = 0.0;
  long append_rows = 4;
  long variants = 8;
  bool setup = true;
  bool scrape_metrics = false;
  bool probe_traces = false;

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
    if (arg == "--url") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "error: --url needs a value\n");
        usage_error = true;
      } else {
        url = v;
      }
    } else if (arg == "--mode") {
      const char* v = next();
      if (v != nullptr && std::strcmp(v, "closed") == 0) {
        options.mode = LoadOptions::Mode::kClosed;
      } else if (v != nullptr && std::strcmp(v, "open") == 0) {
        options.mode = LoadOptions::Mode::kOpen;
      } else {
        std::fprintf(stderr, "error: --mode needs 'closed' or 'open'\n");
        usage_error = true;
      }
    } else if (arg == "--duration") {
      double_flag(0.1, 86400.0, &options.duration_seconds);
    } else if (arg == "--concurrency") {
      int_flag(1, 10000, &n);
      options.concurrency = static_cast<int>(n);
    } else if (arg == "--rate") {
      double_flag(0.001, 1e7, &options.rate_per_second);
    } else if (arg == "--tenants") {
      int_flag(1, 10000, &tenant_count);
    } else if (arg == "--tenant") {
      usage_error |= !TenantWeightFlag(arg, next(), &named_tenants);
    } else if (arg == "--cached-fraction") {
      double_flag(0.0, 1.0, &cached_fraction);
    } else if (arg == "--register-fraction") {
      double_flag(0.0, 1.0, &register_fraction);
    } else if (arg == "--append-mix") {
      double_flag(0.0, 1.0, &append_mix);
    } else if (arg == "--append-rows") {
      int_flag(1, 4096, &append_rows);
    } else if (arg == "--variants") {
      int_flag(1, 1024, &variants);
    } else if (arg == "--seed") {
      int_flag(0, LONG_MAX, &n);
      options.seed = static_cast<uint64_t>(n);
    } else if (arg == "--timeout") {
      double_flag(0.001, 86400.0, &options.request_timeout_seconds);
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "error: --json needs a path\n");
        usage_error = true;
      } else {
        json_path = v;
      }
    } else if (arg == "--no-setup") {
      setup = false;
    } else if (arg == "--scrape-metrics") {
      scrape_metrics = true;
    } else if (arg == "--probe-traces") {
      probe_traces = true;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      usage_error = true;
    }
  }
  if (url.empty() && !usage_error) {
    std::fprintf(stderr, "error: --url is required\n");
    usage_error = true;
  }
  if (usage_error) {
    PrintUsage(argv[0]);
    return 2;
  }

  auto host_port = qfix::service::ParseUrl(url);
  if (!host_port.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 host_port.status().ToString().c_str());
    return 2;
  }
  options.host = host_port->host;
  options.port = host_port->port;

  if (named_tenants.empty()) {
    for (long t = 1; t <= tenant_count; ++t) {
      named_tenants.emplace_back("t" + std::to_string(t), 1);
    }
  }

  // Integer mix weights out of 100 request mass per tenant.
  const int w_register =
      static_cast<int>(register_fraction * 100.0 + 0.5);
  const int w_append = static_cast<int>(append_mix * 100.0 + 0.5);
  int w_cached = static_cast<int>(cached_fraction * 100.0 + 0.5);
  int w_cold = 100 - w_register - w_append - w_cached;
  if (w_cold < 0) {
    w_cold = 0;
    w_cached = std::max(0, 100 - w_register - w_append);
  }
  const int w_cold_each =
      w_cold > 0
          ? std::max(1, static_cast<int>(w_cold / static_cast<int>(variants)))
          : 0;

  for (const auto& [name, weight] : named_tenants) {
    const std::string dataset = name + "/taxes";
    if (setup) {
      auto reg = qfix::service::HttpPost(
          options.host, options.port, "/v1/datasets", RegisterBody(dataset),
          options.request_timeout_seconds);
      if (!reg.ok() || reg->status != 200) {
        std::fprintf(stderr, "error: registering %s failed: %s\n",
                     dataset.c_str(),
                     reg.ok() ? reg->body.c_str()
                              : reg.status().ToString().c_str());
        return 1;
      }
    }
    LoadTenantSpec spec;
    spec.name = name;
    spec.weight = weight;
    auto add_request = [&spec](std::string path, std::string body, int w) {
      LoadRequestTemplate t;
      t.path = std::move(path);
      t.body = std::move(body);
      t.weight = w;
      spec.requests.push_back(std::move(t));
    };
    if (w_cached > 0) {
      // The repeated complaint set: a cache hit after the first solve.
      add_request("/v1/diagnose", DiagnoseBody(dataset, 64500.0), w_cached);
    }
    for (long v = 0; v < variants && w_cold_each > 0; ++v) {
      // Distinct target values -> distinct cache keys -> solver work.
      add_request("/v1/diagnose", DiagnoseBody(dataset, 64000.0 + v),
                  w_cold_each);
    }
    if (w_append > 0) {
      add_request("/v1/datasets/" + dataset + "/append",
                  AppendBody(append_rows), w_append);
    }
    if (w_register > 0) {
      add_request("/v1/datasets", RegisterBody(dataset), w_register);
    }
    if (spec.requests.empty()) {
      add_request("/v1/diagnose", DiagnoseBody(dataset, 64500.0), 1);
    }
    options.tenants.push_back(std::move(spec));
  }

  // Baseline scrape AFTER setup so registration traffic doesn't muddy
  // the run's deltas.
  std::map<std::string, double> metrics_before;
  if (scrape_metrics &&
      !ScrapeCounters(options.host, options.port,
                      options.request_timeout_seconds, &metrics_before)) {
    return 1;
  }

  LoadResult result = qfix::harness::RunLoad(options);

  std::printf("qfix_load: mode=%s duration=%.1fs attempted=%llu "
              "achieved=%.1f rps ok=%.1f rps\n",
              result.mode == LoadOptions::Mode::kOpen ? "open" : "closed",
              result.duration_seconds,
              static_cast<unsigned long long>(result.attempted),
              result.achieved_rps, result.ok_rps);
  if (result.mode == LoadOptions::Mode::kOpen) {
    std::printf("  offered=%.1f rps behind_schedule=%llu\n",
                result.offered_rate,
                static_cast<unsigned long long>(result.behind_schedule));
  }
  std::printf("  classes: 2xx=%llu 429=%llu 4xx=%llu 5xx=%llu "
              "transport=%llu\n",
              static_cast<unsigned long long>(result.classes.ok_2xx),
              static_cast<unsigned long long>(result.classes.shed_429),
              static_cast<unsigned long long>(result.classes.err_4xx),
              static_cast<unsigned long long>(result.classes.err_5xx),
              static_cast<unsigned long long>(result.classes.transport));
  PrintLatency("overall", result.latency);
  for (const TenantLoadResult& t : result.tenants) {
    std::printf("tenant %s: attempted=%llu 2xx=%llu 429=%llu\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.classes.ok_2xx),
                static_cast<unsigned long long>(t.classes.shed_429));
    PrintLatency(t.name.c_str(), t.latency);
  }

  if (probe_traces && !ProbeTraces(options, named_tenants.front().first)) {
    std::fprintf(stderr, "qfix_load: FAILED (trace probe)\n");
    return 1;
  }

  if (scrape_metrics) {
    std::map<std::string, double> metrics_after;
    if (!ScrapeCounters(options.host, options.port,
                        options.request_timeout_seconds, &metrics_after)) {
      return 1;
    }
    std::printf("metrics deltas (nonzero counters over the run):\n");
    for (const auto& [series, after] : metrics_after) {
      auto before = metrics_before.find(series);
      double delta = after - (before != metrics_before.end() ? before->second
                                                             : 0.0);
      if (delta == 0.0) continue;
      std::printf("  %-60s +%.0f\n", series.c_str(), delta);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << qfix::harness::LoadResultToJson(result) << "\n";
  }

  // Overload sheds (429) are healthy; anything else is not.
  if (result.classes.err_5xx > 0 || result.classes.transport > 0) {
    std::fprintf(stderr, "qfix_load: FAILED (5xx or transport errors)\n");
    return 1;
  }
  return 0;
}
