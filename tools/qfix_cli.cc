// qfix — command-line diagnosis tool.
//
// Usage:
//   qfix --d0 <initial.csv> --log <queries.sql> --complaints <c.csv>
//        [--table NAME] [--k N] [--basic] [--alternatives N]
//        [--time-limit SECONDS] [--denoise]
//
// Reads the trusted initial state (CSV with a header of attribute
// names), the executed query log (';'-separated SQL), and the complaint
// set (CSV: tid,alive,<attrs...>). Prints the diagnosis — which query
// was corrupted and its repaired SQL — plus the repair's effect summary.
//
// Example (the paper's Figure 2):
//   qfix --d0 taxes_d0.csv --log taxes.sql --complaints taxes_fix.csv
#include <strings.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "milp/model_export.h"
#include "provenance/denoiser.h"
#include "provenance/impact_graph.h"
#include "qfix/encoder.h"
#include "qfix/explain.h"
#include "qfix/qfix.h"
#include "qfix/report_json.h"
#include "relational/executor.h"
#include "service/client.h"
#include "sql/parser.h"
#include "tool_common.h"

namespace {

struct CliOptions {
  std::string d0_path;
  std::string log_path;
  std::string complaints_path;
  std::string table = "T";
  int k = 1;
  bool basic = false;
  bool denoise = false;
  bool report = false;
  bool json = false;
  std::string save_state_path;
  std::string export_lp_path;
  std::string export_mps_path;
  std::string export_graph_path;
  size_t alternatives = 0;
  double time_limit = 120.0;
  int jobs = 1;
  /// Client mode: drive a running qfix_serve at this URL instead of
  /// diagnosing in-process.
  std::string client_url;
  /// Client mode: also hold N concurrent connections open at once and
  /// healthz each (the CI serve-smoke's concurrency check).
  int smoke_connections = 0;
  /// Client mode: X-Request-Id to stamp on the diagnose request, so
  /// this run correlates with the server's logs and retained trace.
  std::string request_id;
};

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --d0 <initial.csv> --log <queries.sql> "
      "--complaints <c.csv>\n"
      "          [--table NAME] [--k N] [--basic] [--alternatives N]\n"
      "          [--time-limit SECONDS] [--jobs N] [--denoise]\n\n"
      "  --d0          trusted initial state (CSV, header = attributes)\n"
      "  --log         executed query log (';'-separated SQL)\n"
      "  --complaints  complaint set (CSV: tid,alive,<attributes>)\n"
      "  --table       table name used in the SQL (default: T)\n"
      "  --k           incremental batch size, 1..1000 (default: 1)\n"
      "  --basic       use Algorithm 1 (parameterize all queries)\n"
      "  --alternatives N  also print up to N ranked alternatives\n"
      "  --jobs N      solver worker threads for parallel branch &\n"
      "                bound (default 1 = serial; 0 = one per core)\n"
      "  --denoise     screen out outlier complaints first\n"
      "  --report      print the full diagnosis report (SQL diff,\n"
      "                per-complaint resolution, side effects)\n"
      "  --json        print the diagnosis as a single-line JSON\n"
      "                document (suppresses the text output)\n"
      "  --save-state PATH  write the repaired final state as a\n"
      "                checkpoint snapshot (io/snapshot.h format)\n"
      "  --export-lp PATH   write the Algorithm 1 encoding (every query\n"
      "                parameterized, every tuple encoded) in CPLEX LP\n"
      "                format, for CPLEX/Gurobi/SCIP/HiGHS to check\n"
      "  --export-mps PATH  the same encoding in free MPS format\n"
      "  --export-graph PATH  write the log's read-write dependency\n"
      "                graph (Graphviz DOT); repair candidates filled,\n"
      "                diagnosed queries outlined\n"
      "  --client URL  drive a running qfix_serve instead of\n"
      "                diagnosing in-process: with --d0/--log/\n"
      "                --complaints, registers the dataset and posts\n"
      "                the diagnosis (prints the JSON response); alone,\n"
      "                prints /v1/healthz and /v1/stats\n"
      "  --smoke-connections N  (client mode) additionally open N\n"
      "                concurrent connections and healthz each; fails\n"
      "                unless every one answers 200\n"
      "  --request-id ID  (client mode) X-Request-Id to send with the\n"
      "                diagnosis; the server echoes it on the response,\n"
      "                stamps it on every log line about the request,\n"
      "                and keys the retained trace in /v1/debug/traces\n"
      "                by it (default: server-minted)\n\n"
      "  --d0 also accepts a checkpoint snapshot (qfix-snapshot v1).\n",
      argv0);
}

using qfix::tools::DoubleFlag;
using qfix::tools::IntFlag;
using qfix::tools::ReadFile;

// Client mode: exercise a running qfix_serve end to end — the CI smoke
// and operators poking a deployment share this path. Returns the
// process exit code.
int RunClient(const CliOptions& opt) {
  auto hp = qfix::service::ParseUrl(opt.client_url);
  if (!hp.ok()) {
    std::fprintf(stderr, "error: %s\n", hp.status().ToString().c_str());
    return 2;
  }

  auto health = qfix::service::HttpGet(hp->host, hp->port, "/v1/healthz");
  if (!health.ok()) {
    std::fprintf(stderr, "error reaching server: %s\n",
                 health.status().ToString().c_str());
    return 1;
  }
  if (health->status != 200) {
    std::fprintf(stderr, "healthz returned HTTP %d: %s\n", health->status,
                 health->body.c_str());
    return 1;
  }
  std::printf("healthz: %s\n", health->body.c_str());

  if (opt.smoke_connections > 0) {
    auto smoke = qfix::service::ConcurrentSmoke(hp->host, hp->port,
                                                opt.smoke_connections);
    if (!smoke.ok()) {
      std::fprintf(stderr, "error running connection smoke: %s\n",
                   smoke.status().ToString().c_str());
      return 1;
    }
    std::printf("smoke: %d/%d connections held concurrently, %d healthz OK\n",
                smoke->connected, smoke->requested, smoke->ok);
    if (smoke->ok != smoke->requested) {
      std::fprintf(stderr,
                   "error: %d of %d smoke connections failed\n",
                   smoke->requested - smoke->ok, smoke->requested);
      return 1;
    }
  }

  // Without inputs this is a pure health/stats probe.
  if (opt.d0_path.empty()) {
    auto stats = qfix::service::HttpGet(hp->host, hp->port, "/v1/stats");
    if (stats.ok() && stats->status == 200) {
      std::printf("stats: %s\n", stats->body.c_str());
    }
    return 0;
  }
  if (opt.log_path.empty() || opt.complaints_path.empty()) {
    std::fprintf(stderr,
                 "error: --client with --d0 also needs --log and "
                 "--complaints\n");
    return 2;
  }

  std::string d0_text, log_sql, complaints_csv;
  if (!ReadFile(opt.d0_path, &d0_text) || !ReadFile(opt.log_path, &log_sql) ||
      !ReadFile(opt.complaints_path, &complaints_csv)) {
    std::fprintf(stderr, "error: cannot read input files\n");
    return 1;
  }

  const std::string dataset = opt.table;
  {
    qfix::JsonWriter w;
    w.BeginObject();
    w.Key("name");
    w.String(dataset);
    w.Key("table");
    w.String(opt.table);
    w.Key(d0_text.rfind("qfix-snapshot", 0) == 0 ? "d0_snapshot"
                                                 : "d0_csv");
    w.String(d0_text);
    w.Key("log_sql");
    w.String(log_sql);
    w.EndObject();
    auto reg = qfix::service::HttpPost(hp->host, hp->port, "/v1/datasets",
                                       w.str());
    if (!reg.ok()) {
      std::fprintf(stderr, "error registering dataset: %s\n",
                   reg.status().ToString().c_str());
      return 1;
    }
    if (reg->status != 200) {
      std::fprintf(stderr, "dataset registration failed (HTTP %d): %s\n",
                   reg->status, reg->body.c_str());
      return 1;
    }
    std::printf("registered: %s\n", reg->body.c_str());
  }

  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(dataset);
  w.Key("complaints_csv");
  w.String(complaints_csv);
  if (opt.basic) {
    w.Key("basic");
    w.Bool(true);
  } else {
    w.Key("k");
    w.Int(opt.k);
  }
  w.Key("time_limit_seconds");
  w.Double(opt.time_limit);
  if (opt.denoise) {
    w.Key("denoise");
    w.Bool(true);
  }
  w.EndObject();
  std::vector<std::pair<std::string, std::string>> headers;
  if (!opt.request_id.empty()) {
    headers.emplace_back("X-Request-Id", opt.request_id);
  }
  auto diag =
      qfix::service::HttpPost(hp->host, hp->port, "/v1/diagnose", w.str(),
                              opt.time_limit + 30.0, headers);
  if (!diag.ok()) {
    std::fprintf(stderr, "error posting diagnosis (request_id=%s): %s\n",
                 opt.request_id.empty() ? "?" : opt.request_id.c_str(),
                 diag.status().ToString().c_str());
    return 1;
  }
  // The server echoes the id it served (ours, sanitized, or minted) —
  // print it so the operator can pull the request's retained trace from
  // /v1/debug/traces and grep the server log without guessing.
  std::string served_id;
  for (const auto& [name, value] : diag->headers) {
    if (strcasecmp(name.c_str(), "X-Request-Id") == 0) served_id = value;
  }
  if (!served_id.empty()) {
    std::fprintf(stderr, "request_id: %s\n", served_id.c_str());
  }
  std::printf("%s\n", diag->body.c_str());
  if (diag->status != 200) {
    std::fprintf(stderr, "diagnosis failed (HTTP %d, request_id=%s)\n",
                 diag->status, served_id.c_str());
    return 1;
  }
  // The response carries "ok":true when the repair succeeded.
  if (diag->body.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "diagnosis reported no repair (request_id=%s)\n",
                 served_id.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  bool usage_error = false;
  for (int i = 1; i < argc && !usage_error; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto int_flag = [&](long lo, long hi, long* out) {
      usage_error |= !IntFlag(arg, next(), lo, hi, out);
    };
    long n = 0;
    if (arg == "--d0") {
      opt.d0_path = next() ? argv[i] : "";
    } else if (arg == "--log") {
      opt.log_path = next() ? argv[i] : "";
    } else if (arg == "--complaints") {
      opt.complaints_path = next() ? argv[i] : "";
    } else if (arg == "--table") {
      opt.table = next() ? argv[i] : "T";
    } else if (arg == "--k") {
      // The server's cap on the request field "k".
      int_flag(1, 1000, &n);
      opt.k = static_cast<int>(n);
    } else if (arg == "--basic") {
      opt.basic = true;
    } else if (arg == "--denoise") {
      opt.denoise = true;
    } else if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--save-state") {
      opt.save_state_path = next() ? argv[i] : "";
    } else if (arg == "--export-lp") {
      opt.export_lp_path = next() ? argv[i] : "";
    } else if (arg == "--export-mps") {
      opt.export_mps_path = next() ? argv[i] : "";
    } else if (arg == "--export-graph") {
      opt.export_graph_path = next() ? argv[i] : "";
    } else if (arg == "--alternatives") {
      int_flag(0, 1000, &n);
      opt.alternatives = static_cast<size_t>(n);
    } else if (arg == "--time-limit") {
      // Never 0 for "abc": Deadline reads 0 as "no limit".
      usage_error |= !DoubleFlag(arg, next(), 0.001, 86400.0, &opt.time_limit);
    } else if (arg == "--jobs") {
      int_flag(0, 4096, &n);
      opt.jobs = static_cast<int>(n);
    } else if (arg == "--client") {
      opt.client_url = next() ? argv[i] : "";
    } else if (arg == "--request-id") {
      opt.request_id = next() ? argv[i] : "";
    } else if (arg == "--smoke-connections") {
      int_flag(1, 100000, &n);
      opt.smoke_connections = static_cast<int>(n);
    } else {
      usage_error = true;
    }
  }
  if (usage_error) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (!opt.client_url.empty()) {
    return RunClient(opt);
  }
  if (opt.d0_path.empty() || opt.log_path.empty() ||
      opt.complaints_path.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }

  std::string d0_csv, log_sql, complaints_csv;
  if (!ReadFile(opt.d0_path, &d0_csv)) {
    std::fprintf(stderr, "error: cannot read %s\n", opt.d0_path.c_str());
    return 1;
  }
  if (!ReadFile(opt.log_path, &log_sql)) {
    std::fprintf(stderr, "error: cannot read %s\n", opt.log_path.c_str());
    return 1;
  }
  if (!ReadFile(opt.complaints_path, &complaints_csv)) {
    std::fprintf(stderr, "error: cannot read %s\n",
                 opt.complaints_path.c_str());
    return 1;
  }

  auto d0 = d0_csv.rfind("qfix-snapshot", 0) == 0
                ? qfix::io::ReadSnapshot(d0_csv)
                : qfix::io::DatabaseFromCsv(d0_csv, opt.table);
  if (!d0.ok()) {
    std::fprintf(stderr, "error reading d0: %s\n",
                 d0.status().ToString().c_str());
    return 1;
  }
  auto log = qfix::sql::ParseLog(log_sql, d0->schema());
  if (!log.ok()) {
    std::fprintf(stderr, "error parsing log: %s\n",
                 log.status().ToString().c_str());
    return 1;
  }
  auto complaints =
      qfix::io::ComplaintsFromCsv(complaints_csv, d0->schema());
  if (!complaints.ok()) {
    std::fprintf(stderr, "error reading complaints: %s\n",
                 complaints.status().ToString().c_str());
    return 1;
  }

  qfix::relational::Database dirty =
      qfix::relational::ExecuteLog(*log, *d0);

  qfix::provenance::ComplaintSet active = *complaints;
  if (opt.denoise) {
    auto screened = qfix::provenance::DenoiseComplaints(active, dirty);
    if (!screened.dropped.empty()) {
      std::printf("denoiser: dropped %zu outlier complaint(s)\n",
                  screened.dropped.size());
    }
    active = screened.kept;
  }

  if (!opt.json) {
    std::printf("loaded: %zu tuples, %zu queries, %zu complaints\n",
                d0->NumSlots(), log->size(), active.size());
  }

  qfix::qfixcore::QFixOptions options;
  options.time_limit_seconds = opt.time_limit;
  options.milp.jobs = opt.jobs;
  qfix::qfixcore::QFixEngine engine(*log, *d0, dirty, active, options);

  if (!opt.export_lp_path.empty() || !opt.export_mps_path.empty()) {
    // Export the Algorithm 1 encoding (all queries parameterized, all
    // tuples encoded), so that an external MILP solver can solve the
    // same constraint system (tests/golden/taxes_basic.{lp,mps}).
    qfix::qfixcore::EncodeRequest enc;
    enc.log = &*log;
    enc.d0 = &*d0;
    enc.dirty_dn = &dirty;
    enc.complaints = &active;
    enc.parameterized.assign(log->size(), true);
    enc.encoded.assign(log->size(), true);
    for (size_t slot = 0; slot < dirty.NumSlots(); ++slot) {
      enc.tuple_slots.push_back(slot);
    }
    auto problem = qfix::qfixcore::Encode(enc);
    if (!problem.ok()) {
      std::fprintf(stderr,
                   "error encoding for --export-lp/--export-mps: %s\n",
                   problem.status().ToString().c_str());
      return 1;
    }
    for (const auto& [path, format] :
         {std::pair<const std::string&, qfix::milp::ModelFormat>{
              opt.export_lp_path, qfix::milp::ModelFormat::kLp},
          std::pair<const std::string&, qfix::milp::ModelFormat>{
              opt.export_mps_path, qfix::milp::ModelFormat::kMps}}) {
      if (path.empty()) continue;
      auto written =
          qfix::milp::WriteModelFile(problem->model, format, path);
      if (!written.ok()) {
        std::fprintf(stderr, "error writing model file: %s\n",
                     written.ToString().c_str());
        return 1;
      }
      std::fprintf(opt.json ? stderr : stdout,
                   "MILP encoding (%d vars, %d constraints) written to "
                   "%s\n",
                   problem->model.NumVars(),
                   problem->model.NumConstraints(), path.c_str());
    }
  }

  auto repair = opt.basic ? engine.RepairBasic()
                          : engine.RepairIncremental(opt.k);
  if (!repair.ok()) {
    std::fprintf(stderr, "no diagnosis: %s\n",
                 repair.status().ToString().c_str());
    return 1;
  }

  if (opt.json) {
    std::printf("%s\n", qfix::qfixcore::RepairToJson(*repair, *log,
                                                     d0->schema())
                            .c_str());
  }

  if (opt.report && !opt.json) {
    std::printf("\n%s",
                qfix::qfixcore::ExplainRepair(*repair, *log, *d0, dirty)
                    .c_str());
  }

  if (!opt.json) {
    std::printf("\ndiagnosis (%.1f ms, %d attempt(s)):\n",
                repair->stats.total_seconds * 1e3, repair->stats.attempts);
    if (repair->changed_queries.empty()) {
      std::printf("  the log is consistent with the complaints; no repair "
                  "needed\n");
    }
    for (size_t qi : repair->changed_queries) {
      std::printf("  q%zu executed: %s;\n", qi + 1,
                  (*log)[qi].ToSql(d0->schema()).c_str());
      std::printf("  q%zu intended: %s;\n", qi + 1,
                  repair->log[qi].ToSql(d0->schema()).c_str());
    }
    std::printf("\nrepair distance d(Q,Q*): %s\n",
                qfix::FormatNumber(repair->distance).c_str());
    std::printf("complaints resolved on replay: %s\n",
                repair->verified ? "yes" : "NO");
    if (repair->collateral > 0) {
      std::printf("note: repair also changes %zu non-complaint tuple(s) — "
                  "possible unreported errors\n",
                  repair->collateral);
    }
  }

  if (!opt.export_graph_path.empty()) {
    qfix::provenance::ImpactGraphOptions graph;
    graph.complaint_attrs = active.ComplaintAttributes(dirty);
    graph.highlight = repair->changed_queries;
    std::ofstream dot(opt.export_graph_path);
    if (!dot) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.export_graph_path.c_str());
      return 1;
    }
    dot << qfix::provenance::WriteImpactGraph(*log, d0->schema(), graph);
    std::fprintf(opt.json ? stderr : stdout,
                 "dependency graph written to %s\n",
                 opt.export_graph_path.c_str());
  }

  if (!opt.save_state_path.empty()) {
    qfix::relational::Database repaired_dn =
        qfix::relational::ExecuteLog(repair->log, *d0);
    auto saved =
        qfix::io::WriteSnapshotFile(repaired_dn, opt.save_state_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error saving state: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::fprintf(opt.json ? stderr : stdout,
                 "repaired final state written to %s\n",
                 opt.save_state_path.c_str());
  }

  if (opt.alternatives > 0 && !opt.json) {
    auto all = engine.DiagnoseAll(opt.alternatives);
    if (all.size() > 1) {
      std::printf("\nranked alternatives:\n");
      for (size_t i = 0; i < all.size(); ++i) {
        const auto& alt = all[i];
        std::printf("  #%zu (distance %s, collateral %zu):", i + 1,
                    qfix::FormatNumber(alt.distance).c_str(),
                    alt.collateral);
        for (size_t qi : alt.changed_queries) {
          std::printf(" q%zu -> %s;", qi + 1,
                      alt.log[qi].ToSql(d0->schema()).c_str());
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
