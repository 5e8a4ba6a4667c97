// serve_mixed: an in-process DiagnosisServer (solver pool of one) driven
// over loopback by one keep-alive connection from this process. (With a
// second connection on its own thread, a re-ask's four thread hand-offs
// queued behind the other connection's solve whenever the host granted
// about one core, and the re-ask median moved 23% across seeds, against
// 7.6% with one.)
//
// The connection's tenant owns synthetic point-update datasets (1,000
// rows, a 300-query log, every cell written at most once so no query is
// dead). It holds kLiveDatasets of them at a time, registered over POST
// /v1/datasets during set-up; each later dataset re-registers the name
// whose lifecycle ended (a "register" operation), which drops that
// name's cache entries, so memory and the caches' working set stay flat
// however long the run. Each dataset carries
// 15 injected corruptions — for each of 5 "diagnosis" attributes, the
// three newest queries writing it — so a first ask costs one to three
// Inc_1 attempts (~6, ~14, ~22 ms: a third each, which keeps p50 and
// p90 inside a mode). The connection walks its datasets one at a time:
//
//   a first ask of each complaint set, in a seeded order; after every
//   third first ask, an append of 4 queries writing only the other 5
//   attributes on rows no complaint names (reports survive it: the
//   window signature is unchanged);
//   then one "touching" append that also writes one diagnosis
//   attribute, and a re-ask of every complaint set, in a fresh seeded
//   order: the touched attribute's 3 are stale and must re-solve, the
//   other 12 survive every append and must come from the cache.
//
// So re-asks and first asks are one to one, as in qfix_load's default
// mix (--cached-fraction 0.5), and appends carry qfix_load's default 4
// queries (--append-rows). NOTES.md gives the reasons for the rest.
// Operation classes are fixed by the workload's intent, not by the
// server's "cached" flag, so every run has the same sample sets. The
// caches hold everything, so hits, misses and prefix reuses repeat
// exactly.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/timer.h"
#include "io/csv.h"
#include "provenance/complaint.h"
#include "relational/database.h"
#include "relational/executor.h"
#include "relational/query.h"
#include "service/client.h"
#include "service/json_value.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qfix::Rng;
using qfix::WallTimer;
using qfix::relational::Database;
using qfix::relational::Query;
using qfix::relational::QueryLog;
using qfix::service::JsonValue;

constexpr size_t kRows = 1000;
constexpr size_t kComplaintRows = 900;  // rows >= this are append-only
constexpr size_t kAttrs = 10;           // a0..a9, columns 1..10 after id
constexpr size_t kDiagAttrs = 5;        // a0..a4 carry the corruptions
constexpr size_t kBaseQueries = 300;
constexpr size_t kRanks = 3;            // newest writers corrupted per attr
constexpr int kValueDomain = 200;
constexpr size_t kFirstsPerAppend = 3;
constexpr size_t kAppendQueries = 4;
constexpr size_t kLiveDatasets = 2;     // registered names per tenant
// Datasets per connection per second of --seconds, calibrated on an
// unloaded 4-core x86 host (~0.26 s of work per dataset).
constexpr double kDatasetsPerSecond = 3.5;

enum class OpKind { kFirst, kReask, kAppend, kStale, kRegister };

struct ComplaintSetSpec {
  std::string csv;
  size_t attr = 0;          // column of the corrupted attribute
  size_t expect_query = 0;  // the injected corruption's log index
};

struct ServeDataset {
  std::string name;
  std::string register_body;
  std::vector<ComplaintSetSpec> csets;
};

struct ServeOp {
  OpKind kind = OpKind::kFirst;
  size_t dataset = 0;
  size_t cset = 0;
  std::string body;        // diagnose body without the timings flag
  size_t append_queries = 0;
};

struct ServeInputs {
  std::vector<ServeDataset> datasets;
  std::vector<ServeOp> ops;
  ServeDataset warm;  // registered beside them, for the warm-up only
  uint64_t digest = 0;
};

std::string Name(size_t attr) {
  return attr == 0 ? "id" : "a" + std::to_string(attr - 1);
}

Query PointSet(size_t attr, double value, size_t row) {
  return Query::Update(
      "T", {{attr, qfix::relational::LinearExpr::Constant(value)}},
      qfix::relational::Predicate::Atom(qfix::relational::Comparison{
          qfix::relational::LinearExpr::Attr(0),
          qfix::relational::CmpOp::kEq, static_cast<double>(row)}));
}

std::string LogSql(const QueryLog& log, const qfix::relational::Schema& s) {
  std::string sql;
  for (const Query& q : log) sql += q.ToSql(s) + ";\n";
  return sql;
}

std::string DiagnoseBody(const std::string& dataset, const std::string& csv,
                         bool timings) {
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(dataset);
  w.Key("complaints_csv");
  w.String(csv);
  if (timings) {
    w.Key("timings");
    w.Bool(true);
  }
  w.EndObject();
  return w.str();
}

/// What drawing a dataset's appends needs: its current dirty state and
/// the cells written so far.
struct DatasetState {
  Database current;
  std::set<std::pair<size_t, size_t>> used;  // (row, column)
};

/// Generates one dataset: D0, a 300-query point-update log writing
/// distinct cells of rows [0, 900), and 15 corruptions with their
/// complaint sets. `state` receives what AppendBody needs to draw
/// appends on the reserved rows [900, 1000).
ServeDataset MakeDataset(const std::string& name, uint64_t seed,
                         DatasetState* state) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t a = 0; a <= kAttrs; ++a) names.push_back(Name(a));
  Database d0(qfix::relational::Schema(names), "T");
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<double> v{static_cast<double>(r)};
    for (size_t a = 0; a < kAttrs; ++a) {
      v.push_back(static_cast<double>(rng.UniformInt(0, kValueDomain)));
    }
    d0.AddTuple(std::move(v));
  }
  // Every cell is written at most once: a query whose effect a later
  // query overwrites could be "repaired" with no collateral damage,
  // which would make the diagnosis ambiguous.
  QueryLog clean;
  std::set<std::pair<size_t, size_t>> used;
  while (clean.size() < kBaseQueries) {
    const size_t attr = 1 + static_cast<size_t>(rng.UniformInt(0, kAttrs - 1));
    const size_t row =
        static_cast<size_t>(rng.UniformInt(0, kComplaintRows - 1));
    if (!used.insert({row, attr}).second) continue;
    double c = 0;
    do {
      c = static_cast<double>(rng.UniformInt(0, kValueDomain));
    } while (c == d0.slot(row).values[attr]);
    clean.push_back(PointSet(attr, c, row));
  }

  // Corrupt the kRanks newest writers of each diagnosis attribute.
  QueryLog dirty_log = clean;
  struct Injected {
    size_t index, row, attr;
    double good;
  };
  std::vector<Injected> injected;
  for (size_t attr = 1; attr <= kDiagAttrs; ++attr) {
    size_t rank = 0;
    for (size_t i = clean.size(); i-- > 0 && rank < kRanks;) {
      if (clean[i].set_clauses()[0].attr != attr) continue;
      const size_t row =
          static_cast<size_t>(clean[i].where().comparison().rhs);
      const double good = clean[i].set_clauses()[0].expr.constant();
      double bad = good;
      while (bad == good || bad == d0.slot(row).values[attr]) {
        bad = static_cast<double>(rng.UniformInt(0, kValueDomain));
      }
      dirty_log[i] = PointSet(attr, bad, row);
      injected.push_back({i, row, attr, good});
      ++rank;
    }
  }
  Database dirty = qfix::relational::ExecuteLog(dirty_log, d0);

  ServeDataset ds;
  ds.name = name;
  for (const Injected& inj : injected) {
    qfix::provenance::ComplaintSet set;
    qfix::provenance::Complaint c;
    c.tid = static_cast<int64_t>(inj.row);
    c.target_alive = true;
    c.target_values = dirty.slot(inj.row).values;
    c.target_values[inj.attr] = inj.good;
    set.Add(std::move(c));
    ds.csets.push_back(
        {qfix::io::ComplaintsToCsv(set, d0.schema()), inj.attr, inj.index});
  }
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("table");
  w.String("T");
  w.Key("d0_csv");
  w.String(qfix::io::DatabaseToCsv(d0));
  w.Key("log_sql");
  w.String(LogSql(dirty_log, d0.schema()));
  w.EndObject();
  ds.register_body = w.str();
  state->current = std::move(dirty);
  state->used = std::move(used);
  return ds;
}

/// An append body: `n` point updates on reserved rows, each writing a
/// fresh cell with a value that differs from the cell's current one.
/// The first query writes `touch_attr` when it is non-zero; the rest
/// write the append-only attributes.
std::string AppendBody(size_t n, size_t touch_attr, DatasetState* state,
                       Rng& rng) {
  QueryLog batch;
  while (batch.size() < n) {
    size_t attr = touch_attr != 0 && batch.empty()
                      ? touch_attr
                      : kDiagAttrs + 1 +
                            static_cast<size_t>(
                                rng.UniformInt(0, kAttrs - kDiagAttrs - 1));
    const size_t row = static_cast<size_t>(
        rng.UniformInt(kComplaintRows, kRows - 1));
    if (!state->used.insert({row, attr}).second) continue;
    double c = 0;
    do {
      c = static_cast<double>(rng.UniformInt(0, kValueDomain));
    } while (c == state->current.slot(row).values[attr]);
    batch.push_back(PointSet(attr, c, row));
    qfix::relational::ApplyQuery(batch.back(), state->current);
  }
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("log_sql");
  w.String(LogSql(batch, state->current.schema()));
  w.EndObject();
  return w.str();
}

ServeInputs GenerateInputs(uint64_t seed, size_t datasets) {
  ServeInputs in;
  DatasetState warm_state;
  in.warm = MakeDataset("warm/d0", MixSeed(seed, 7), &warm_state);
  Rng rng(MixSeed(seed, 20));
  for (size_t j = 0; j < datasets; ++j) {
    const std::string name = "t0/d" + std::to_string(j % kLiveDatasets);
    DatasetState state;
    in.datasets.push_back(MakeDataset(name, MixSeed(seed, 1000 + j), &state));
    const ServeDataset& ds = in.datasets.back();
    std::vector<size_t> order(ds.csets.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    auto diagnose = [&](OpKind kind, size_t cset) {
      ServeOp op;
      op.kind = kind;
      op.dataset = j;
      op.cset = cset;
      op.body = DiagnoseBody(name, ds.csets[cset].csv, false);
      in.ops.push_back(std::move(op));
    };
    if (j >= kLiveDatasets) {
      ServeOp op;
      op.kind = OpKind::kRegister;
      op.dataset = j;
      in.ops.push_back(std::move(op));
    }
    auto append = [&](size_t touch_attr) {
      ServeOp op;
      op.kind = OpKind::kAppend;
      op.dataset = j;
      op.body = AppendBody(kAppendQueries, touch_attr, &state, rng);
      op.append_queries = kAppendQueries;
      in.ops.push_back(std::move(op));
    };
    for (size_t f = 0; f < order.size(); ++f) {
      diagnose(OpKind::kFirst, order[f]);
      if (f % kFirstsPerAppend == kFirstsPerAppend - 1) append(0);
    }
    const size_t touched = 1 + rng.Index(kDiagAttrs);
    append(touched);
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (size_t c : order) {
      diagnose(ds.csets[c].attr == touched ? OpKind::kStale : OpKind::kReask,
               c);
    }
  }
  Digest digest;
  digest.Add(in.warm.register_body);
  for (const ServeDataset& ds : in.datasets) digest.Add(ds.register_body);
  for (const ServeOp& op : in.ops) {
    digest.Add(static_cast<uint64_t>(op.kind));
    digest.Add(op.body);
  }
  in.digest = digest.value();
  return in;
}

/// Raw text of the top-level member `key` of a compact JSON object (the
/// server's own rendering), or empty. Used to compare report bytes.
std::string_view RawMember(std::string_view doc, std::string_view key) {
  int depth = 0;
  bool in_string = false, escaped = false, capturing = false;
  size_t string_start = 0, value_start = 0;
  std::string_view last_string;
  for (size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
        if (depth == 1) last_string = doc.substr(string_start, i - string_start);
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        string_start = i + 1;
        break;
      case ':':
        if (depth == 1 && !capturing && last_string == key) {
          capturing = true;
          value_start = i + 1;
        }
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (depth == 1 && capturing) {
          return doc.substr(value_start, i - value_start);
        }
        --depth;
        break;
      case ',':
        if (depth == 1 && capturing) {
          return doc.substr(value_start, i - value_start);
        }
        break;
      default:
        break;
    }
  }
  return {};
}

double NumberAt(const JsonValue* v, const char* key) {
  const JsonValue* f = v == nullptr ? nullptr : v->Find(key);
  return f != nullptr && f->is_number() ? f->AsNumber() : 0.0;
}

bool BoolAt(const JsonValue* v, const char* key) {
  const JsonValue* f = v == nullptr ? nullptr : v->Find(key);
  return f != nullptr && f->is_bool() && f->AsBool();
}

/// What the connection saw in one pass.
struct ClientResult {
  Samples first, reask, append, stale, reg, all;
  std::vector<Failure> failures;
  std::vector<std::string> bench_errors;
  uint64_t solves = 0, attempts = 0, nodes = 0, rows = 0, int_vars = 0;
  uint64_t kept_queries = 0, refined = 0;
  uint64_t reasks_cached = 0;
  double encode_ms = 0.0, solve_ms = 0.0;
  // Traced pass only.
  std::vector<std::vector<qfix::obs::TraceSpan>> solve_traces;
  Samples replay_ms, wire_ms;
  uint64_t capped_traces = 0;
};

/// Checks a diagnosis answer that names a repair; returns false after
/// recording the failure class.
bool CheckRepair(const JsonValue& doc, const ComplaintSetSpec& cset,
                 ClientResult* out) {
  if (!BoolAt(&doc, "ok")) {
    out->failures.push_back(Failure::kErrorStatus);
    return false;
  }
  const JsonValue* report = doc.Find("report");
  if (!BoolAt(report, "verified")) {
    out->failures.push_back(Failure::kUnverified);
    return false;
  }
  const JsonValue* repairs = report->Find("repairs");
  if (repairs == nullptr || !repairs->is_array() ||
      repairs->AsArray().size() != 1 ||
      // Reports number queries from 1 (q1 is the oldest).
      NumberAt(&repairs->AsArray()[0], "query") !=
          static_cast<double>(cset.expect_query + 1)) {
    out->failures.push_back(Failure::kWrongQuery);
    return false;
  }
  return true;
}

void AddSolveStats(const JsonValue& doc, ClientResult* out) {
  const JsonValue* st = doc.Find("report")->Find("stats");
  ++out->solves;
  out->attempts += static_cast<uint64_t>(NumberAt(st, "attempts"));
  out->nodes += static_cast<uint64_t>(NumberAt(st, "solver_nodes"));
  out->rows += static_cast<uint64_t>(NumberAt(st, "constraints"));
  out->int_vars += static_cast<uint64_t>(NumberAt(st, "integer_vars"));
  out->kept_queries += static_cast<uint64_t>(NumberAt(st, "encoded_queries"));
  out->refined += BoolAt(st, "refined") ? 1 : 0;
  out->encode_ms += 1e3 * NumberAt(st, "encode_seconds");
  out->solve_ms += 1e3 * NumberAt(st, "solve_seconds");
}

/// Reads the "timings" block of a traced answer.
void AddTimings(const JsonValue& doc, double client_ms, bool solved,
                ClientResult* out) {
  const JsonValue* timings = doc.Find("timings");
  const JsonValue* phases = timings == nullptr ? nullptr
                                               : timings->Find("phases");
  if (phases == nullptr || !phases->is_array()) {
    out->bench_errors.push_back("traced answer without a timings block");
    return;
  }
  const double total_ms = NumberAt(timings, "total_ms");
  std::vector<qfix::obs::TraceSpan> spans;
  double top_level_ms = 0.0;
  for (const JsonValue& p : phases->AsArray()) {
    qfix::obs::TraceSpan s;
    const JsonValue* name = p.Find("phase");
    s.phase = name != nullptr && name->is_string() ? name->AsString() : "";
    s.start_seconds = NumberAt(&p, "start_ms") / 1e3;
    s.end_seconds = s.start_seconds + NumberAt(&p, "ms") / 1e3;
    const JsonValue* parent = p.Find("parent");
    s.parent = parent != nullptr && parent->is_number()
                   ? static_cast<int>(parent->AsNumber())
                   : -1;
    if (s.parent < 0) top_level_ms += NumberAt(&p, "ms");
    spans.push_back(std::move(s));
  }
  if (spans.size() >= qfix::obs::TraceContext::kMaxSpans) {
    ++out->capped_traces;
  }
  out->wire_ms.Add(client_ms - total_ms);
  if (solved) {
    out->replay_ms.Add(total_ms - top_level_ms);
    out->solve_traces.push_back(std::move(spans));
  }
}

/// Sends every operation of `in` over one keep-alive connection and
/// checks each answer.
void Drive(int port, const ServeInputs& in, bool timings, ClientResult* out) {
  qfix::service::ClientConnection conn("127.0.0.1", port);
  // The report bytes each complaint set was last answered with.
  std::vector<std::vector<std::string>> reports(in.datasets.size());
  for (size_t d = 0; d < in.datasets.size(); ++d) {
    reports[d].resize(in.datasets[d].csets.size());
  }
  for (const ServeOp& op : in.ops) {
    const ServeDataset& ds = in.datasets[op.dataset];
    const bool diagnose =
        op.kind != OpKind::kAppend && op.kind != OpKind::kRegister;
    const std::string path =
        diagnose ? std::string("/v1/diagnose")
        : op.kind == OpKind::kRegister ? std::string("/v1/datasets")
                                       : "/v1/datasets/" + ds.name + "/append";
    const std::string& body =
        op.kind == OpKind::kRegister ? ds.register_body
        : diagnose && timings ? DiagnoseBody(ds.name, ds.csets[op.cset].csv,
                                             true)
                              : op.body;
    WallTimer timer;
    auto resp = conn.Post(path, body, 120.0);
    const double ms = timer.ElapsedMillis();
    out->all.Add(ms);
    switch (op.kind) {
      case OpKind::kFirst:
        out->first.Add(ms);
        break;
      case OpKind::kReask:
        out->reask.Add(ms);
        break;
      case OpKind::kAppend:
        out->append.Add(ms);
        break;
      case OpKind::kStale:
        out->stale.Add(ms);
        break;
      case OpKind::kRegister:
        out->reg.Add(ms);
        break;
    }
    if (!resp.ok()) {
      out->failures.push_back(Failure::kTransport);
      continue;
    }
    if (resp->status < 200 || resp->status >= 300) {
      out->failures.push_back(Failure::kNon2xx);
      continue;
    }
    auto doc = qfix::service::ParseJson(resp->body);
    if (!doc.ok() || !doc->is_object()) {
      out->failures.push_back(Failure::kErrorStatus);
      continue;
    }
    if (op.kind == OpKind::kRegister) {
      if (NumberAt(&*doc, "queries") != static_cast<double>(kBaseQueries)) {
        out->failures.push_back(Failure::kErrorStatus);
      }
      continue;
    }
    if (op.kind == OpKind::kAppend) {
      if (NumberAt(&*doc, "appended") !=
          static_cast<double>(op.append_queries)) {
        out->failures.push_back(Failure::kWrongAppend);
      }
      continue;
    }
    std::string& last = reports[op.dataset][op.cset];
    if (BoolAt(&*doc, "cached")) {
      if (timings) AddTimings(*doc, ms, false, out);
      if (op.kind == OpKind::kStale) {
        // The touching append changed this report's window, so a hit
        // hands back a diagnosis of the log as it was before.
        out->failures.push_back(Failure::kStaleHit);
      } else if (RawMember(resp->body, "report") != last) {
        // A hit must splice the bytes of the answer it memoized.
        out->failures.push_back(Failure::kReaskMismatch);
      } else if (op.kind == OpKind::kReask) {
        ++out->reasks_cached;
      }
      continue;
    }
    // The cache memoizes every optimal report, checked or not, so a
    // later hit must reproduce this answer even when the check below
    // rejects it.
    last = std::string(RawMember(resp->body, "report"));
    if (!CheckRepair(*doc, ds.csets[op.cset], out)) continue;
    AddSolveStats(*doc, out);
    if (timings) AddTimings(*doc, ms, true, out);
  }
}

struct Deployment {
  std::unique_ptr<qfix::service::DiagnosisServer> server;
  Samples register_ms;
};

/// Starts a server, registers every dataset over HTTP and warms it up
/// with one first ask and one re-ask on a dataset no tenant uses.
bool Deploy(const ServeInputs& in, Deployment* dep, std::string* why) {
  qfix::service::ServerOptions options;
  options.jobs = 1;  // solver pool of one
  // The default cache budgets hold the live datasets' working set many
  // times over, and the default 30 s time limit is far above any
  // diagnosis here. Keep-alive must not recycle connections mid-run (a
  // reconnect would land in some operation's latency) or drop them while
  // a set-up repeat runs.
  options.max_requests_per_conn = 1 << 30;
  options.idle_timeout_seconds = 600.0;
  dep->server = std::make_unique<qfix::service::DiagnosisServer>(options);
  qfix::Status started = dep->server->Start();
  if (!started.ok()) {
    *why = "server start: " + started.ToString();
    return false;
  }
  qfix::service::ClientConnection admin("127.0.0.1", dep->server->port());
  auto post = [&](const std::string& path, const std::string& body,
                  Samples* latency) {
    WallTimer timer;
    auto resp = admin.Post(path, body, 120.0);
    if (latency != nullptr) latency->Add(timer.ElapsedMillis());
    if (!resp.ok() || resp->status != 200) {
      *why = "set-up POST " + path + " failed: " +
             (resp.ok() ? std::to_string(resp->status) + " " + resp->body
                        : resp.status().ToString());
      return false;
    }
    return true;
  };
  if (!post("/v1/datasets", in.warm.register_body, nullptr)) return false;
  for (size_t j = 0; j < kLiveDatasets && j < in.datasets.size(); ++j) {
    if (!post("/v1/datasets", in.datasets[j].register_body,
              &dep->register_ms)) {
      return false;
    }
  }
  const std::string warm =
      DiagnoseBody(in.warm.name, in.warm.csets[0].csv, false);
  return post("/v1/diagnose", warm, nullptr) &&
         post("/v1/diagnose", warm, nullptr);
}

bool ScrapeServer(int port, Scrape* metrics, std::string* stats_body,
                  std::string* why) {
  qfix::service::ClientConnection admin("127.0.0.1", port);
  auto m = admin.Get("/metrics", 60.0);
  auto s = admin.Get("/v1/stats", 60.0);
  if (!m.ok() || m->status != 200 || !s.ok() || s->status != 200) {
    *why = "scrape of /metrics or /v1/stats failed";
    return false;
  }
  *stats_body = s->body;
  return metrics->Parse(m->body, why);
}

/// `path` is a dotted member path into the /v1/stats document.
double StatsAt(const std::string& body, const char* section,
               const char* key) {
  auto doc = qfix::service::ParseJson(body);
  if (!doc.ok()) return 0.0;
  return NumberAt(doc->Find(section), key);
}

struct PassResult {
  ClientResult seen;
  double wall_s = 0.0;
  Scrape before, after;
  std::string stats_before, stats_after;
};

bool RunPass(const ServeInputs& in, const Deployment& dep, bool timings,
             PassResult* out, std::string* why) {
  const int port = dep.server->port();
  if (!ScrapeServer(port, &out->before, &out->stats_before, why)) {
    return false;
  }
  WallTimer wall;
  Drive(port, in, timings, &out->seen);
  out->wall_s = wall.ElapsedSeconds();
  return ScrapeServer(port, &out->after, &out->stats_after, why);
}

}  // namespace

void RunServeMixed(const RunArgs& args, Report* report) {
  const size_t datasets = std::max<size_t>(
      8, static_cast<size_t>(std::lround(kDatasetsPerSecond * args.seconds)));

  std::vector<double> setup_s;
  ServeInputs inputs;
  Deployment dep;
  std::string why;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (dep.server != nullptr) dep.server->Stop();
    dep = Deployment();
    inputs = ServeInputs();
    WallTimer timer;
    inputs = GenerateInputs(args.seed, datasets);
    if (!Deploy(inputs, &dep, &why)) {
      report->BenchError(why);
      return;
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }
  report->SetInputDigest(inputs.digest);

  PassResult pass;
  if (!RunPass(inputs, dep, false, &pass, &why)) report->BenchError(why);
  const uint64_t requests = pass.seen.all.size();
  report->Attempt(requests);
  for (Failure f : pass.seen.failures) report->Fail(f);
  for (const std::string& e : pass.seen.bench_errors) report->BenchError(e);

  const ClientResult& m = pass.seen;
  report->Line(
      "workload serve_mixed: one connection, %zu datasets; %zu first "
      "asks, %zu re-asks, %zu appends, %zu stale re-asks, %zu "
      "re-registrations in %.3f s",
      datasets, m.first.size(), m.reask.size(), m.append.size(),
      m.stale.size(), m.reg.size(), pass.wall_s);
  report->Line("first-ask ms: p50 %.3f  p90 %.3f  %s %.3f  mean %.3f",
               m.first.P50(), m.first.P90(), m.first.TailLabel().c_str(),
               m.first.Tail(), m.first.Mean());
  report->Line("re-ask ms:    p50 %.4f  p90 %.4f  %s %.4f  (%llu cached)",
               m.reask.P50(), m.reask.P90(), m.reask.TailLabel().c_str(),
               m.reask.Tail(),
               static_cast<unsigned long long>(m.reasks_cached));
  report->Line("append ms:    p50 %.4f  stale re-ask ms: p50 %.3f",
               m.append.P50(), m.stale.P50());
  report->Line("all requests ms: p50 %.4f  %s %.3f", m.all.P50(),
               m.all.TailLabel().c_str(), m.all.Tail());

  report->Set("setup_s", Median(setup_s));
  report->Set("diag_p50_ms", m.first.P50());
  report->Set("diag_p90_ms", m.first.P90());
  report->Set("diag_per_s", static_cast<double>(m.first.size()) / pass.wall_s);
  report->Set("req_per_s", static_cast<double>(requests) / pass.wall_s);
  report->Set("ok_frac", report->OkFrac());

  // Per-layer, from outside the server: phase histograms and solver
  // counters in /metrics, the /v1/stats blocks, the reports' stats.
  const Scrape& b = pass.before;
  const Scrape& a = pass.after;
  const std::string phase = "qfix_request_phase_seconds";
  const double solves = std::max<double>(1.0, static_cast<double>(m.solves));
  const double lp_iters = Delta(b, a, "qfix_solver_lp_iterations_total");
  const double items = Delta(b, a, "qfix_items_total");
  auto stats_delta = [&](const char* section, const char* key) {
    return StatsAt(pass.stats_after, section, key) -
           StatsAt(pass.stats_before, section, key);
  };
  const double hits = stats_delta("cache", "hits");
  const double misses = stats_delta("cache", "misses");
  const double evictions = stats_delta("cache", "evictions");
  const double prefix_reused = Delta(b, a, "qfix_encoder_prefix_reused_total");
  const double gap_replays = stats_delta("ingest", "prefix_computes");
  dep.register_ms.Add(m.reg);
  report->Set("service.register_ms", dep.register_ms.Mean());
  report->Set("service.parse_ms", HistogramMeanMs(b, a, phase, "phase", "parse"));
  report->Set("cache.lookup_ms", HistogramMeanMs(b, a, phase, "phase", "cache"));
  report->Set("service.admission_ms",
              HistogramMeanMs(b, a, phase, "phase", "admission"));
  report->Set("service.render_ms",
              HistogramMeanMs(b, a, phase, "phase", "render"));
  report->Set("service.write_ms", HistogramMeanMs(b, a, phase, "phase", "write"));
  report->Set("service.reask_p50_ms", m.reask.P50());
  report->Set("service.reask_p90_ms", m.reask.P90());
  report->Set("service.shed", stats_delta("requests", "shed_429"));
  report->Set("service.errors", stats_delta("requests", "errors_4xx") +
                                    stats_delta("requests", "errors_5xx"));
  report->Set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  report->Set("cache.evictions", evictions);
  report->Set("ingest.append_p50_ms", m.append.P50());
  report->Set("ingest.prefix_reuse_ratio", items > 0 ? prefix_reused / items : 0);
  report->Set("ingest.gap_replays", gap_replays);
  report->Set("provenance.kept_queries",
              static_cast<double>(m.kept_queries) / solves);
  report->Set("qfix.attempts", static_cast<double>(m.attempts) / solves);
  report->Set("qfix.attempt_yield",
              m.attempts > 0 ? static_cast<double>(m.solves) /
                                   static_cast<double>(m.attempts)
                             : 0.0);
  report->Set("qfix.encode_ms", m.encode_ms / solves);
  report->Set("qfix.model_rows", static_cast<double>(m.rows) / solves);
  report->Set("qfix.model_int_vars", static_cast<double>(m.int_vars) / solves);
  report->Set("qfix.refined_frac", static_cast<double>(m.refined) / solves);
  report->Set("milp.solve_ms", m.solve_ms / solves);
  report->Set("milp.nodes", static_cast<double>(m.nodes) / solves);
  report->Set("milp.lp_iters", lp_iters / solves);
  report->Set("milp.lp_iters_per_node",
              m.nodes > 0 ? lp_iters / static_cast<double>(m.nodes) : 0.0);
  // Both layers run in the server, but nothing outside it sees them.
  report->Absent("provenance.impact_ms",
                 "not observable over HTTP: no phase times impact analysis");
  report->Absent("milp.optimal_frac",
                 "not observable over HTTP: reports carry no optimal flag");

  report->Count("first_asks", m.first.size());
  report->Count("reasks", m.reask.size());
  report->Count("reasks_cached", m.reasks_cached);
  report->Count("appends", m.append.size());
  report->Count("stale_reasks", m.stale.size());
  report->Count("registrations", m.reg.size());
  report->Count("solves", m.solves);
  report->Count("attempts", m.attempts);
  report->Count("solver_nodes", m.nodes);
  report->Count("lp_iterations", static_cast<uint64_t>(lp_iters));
  report->Count("model_rows", m.rows);
  report->Count("cache_hits", static_cast<uint64_t>(hits));
  report->Count("cache_misses", static_cast<uint64_t>(misses));
  report->Count("cache_evictions", static_cast<uint64_t>(evictions));
  report->Count("prefix_reuses", static_cast<uint64_t>(prefix_reused));
  report->Count("gap_replays", static_cast<uint64_t>(gap_replays));

  if (args.trace) {
    // The traced pass: a fresh server, the same operations, and
    // "timings": true on every diagnosis.
    dep.server->Stop();
    Deployment traced_dep;
    PassResult traced;
    if (!Deploy(inputs, &traced_dep, &why) ||
        !RunPass(inputs, traced_dep, true, &traced, &why)) {
      report->BenchError(why);
    } else {
      for (const std::string& e : traced.seen.bench_errors) {
        report->BenchError(e);
      }
      // The timings block says nothing of dropped spans; a trace that
      // reached the cap may have lost some, so it stays out of the means.
      SpanTotals spans;
      for (const auto& t : traced.seen.solve_traces) {
        spans.Add(t, t.size() >= qfix::obs::TraceContext::kMaxSpans ? 1 : 0);
      }
      const ClientResult& tm = traced.seen;
      for (const std::string& ph : spans.Phases()) {
        report->Line("span %-18s mean %.4f ms  self %.4f ms (per solve with it)",
                     ph.c_str(), spans.MeanMs(ph), spans.MeanSelfMs(ph));
      }
      if (tm.replay_ms.Mean() < -1e-6) {
        report->BenchError("serve replay residual is negative");
      }
      report->Set("qfix.replay_ms", tm.replay_ms.Mean());
      report->Set("qfix.refine_ms",
                  spans.MeanMs("refine_encode") + spans.MeanMs("refine_solve"));
      report->Set("milp.presolve_ms", spans.MeanMs("presolve"));
      report->Set("milp.root_lp_ms", spans.MeanMs("root_lp"));
      report->Set("milp.tree_ms", spans.TreeMs());
      report->Set("service.wire_ms", tm.wire_ms.Mean());
      report->Set("trace.dropped_spans", static_cast<double>(tm.capped_traces));
      report->Set("trace.overhead_pct",
                  100.0 * (tm.first.P50() - m.first.P50()) / m.first.P50());
      report->Line("traced first-ask p50 %.3f ms vs untraced %.3f ms; %llu "
                   "traces reached the %zu-span cap",
                   tm.first.P50(), m.first.P50(),
                   static_cast<unsigned long long>(tm.capped_traces),
                   qfix::obs::TraceContext::kMaxSpans);
    }
    traced_dep.server->Stop();
  }
  dep.server->Stop();
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
