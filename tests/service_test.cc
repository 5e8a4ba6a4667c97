// src/service: HTTP parser and JSON decoder units, DatasetRegistry
// concurrency (TSan lane), and end-to-end loopback coverage of the
// diagnosis server — register the Figure-2 fixture over HTTP, post a
// complaint, and check the JSON repair matches the library result
// byte-for-byte (modulo timing stats). Also the admission-control
// acceptance: an over-capacity burst sheds with 429 instead of
// queueing, and the server recovers afterwards.
#include <gtest/gtest.h>
#include <strings.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "qfix/batch.h"
#include "qfix/report_json.h"
#include "service/client.h"
#include "service/http.h"
#include "service/json_value.h"
#include "service/registry.h"
#include "service/server.h"
#include "sql/parser.h"
#include "test_support.h"

namespace qfix {
namespace {

using service::DatasetRegistry;
using service::DiagnosisServer;
using service::HttpRequestParser;
using service::HttpResponse;
using service::JsonValue;
using service::ParseJson;
using service::ServerOptions;

// ---------------------------------------------------------------------------
// HTTP request parser

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser p;
  auto state = p.Feed("GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/v1/healthz");
  EXPECT_EQ(p.request().version, "HTTP/1.1");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(HttpParserTest, ParsesPostWithBodyAndHeaders) {
  HttpRequestParser p;
  std::string req =
      "POST /v1/diagnose HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "content-length: 11\r\n"
      "\r\n"
      "{\"a\": true}";
  ASSERT_EQ(p.Feed(req), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().body, "{\"a\": true}");
  // Header lookup is case-insensitive.
  ASSERT_NE(p.request().FindHeader("CONTENT-TYPE"), nullptr);
  EXPECT_EQ(*p.request().FindHeader("CONTENT-TYPE"), "application/json");
}

TEST(HttpParserTest, AcceptsByteByByteFeeding) {
  HttpRequestParser p;
  std::string req =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpRequestParser::State state = HttpRequestParser::State::kNeedMore;
  for (char c : req) {
    state = p.Feed(std::string_view(&c, 1));
  }
  ASSERT_EQ(state, HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().body, "hello");
}

TEST(HttpParserTest, AcceptsBareLfLineEndings) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("GET / HTTP/1.0\nHost: x\n\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().version, "HTTP/1.0");
}

TEST(HttpParserTest, LfHeadWithCrlfInBodyParsesCorrectly) {
  // The earliest blank line wins: an LF-terminated head followed (in
  // the same segment) by a body containing "\r\n\r\n" must not have
  // the terminator search skip into the body.
  HttpRequestParser p;
  std::string body = "{\"a\":\r\n\r\n1}";  // valid JSON whitespace
  std::string req = "POST /x HTTP/1.1\nContent-Length: " +
                    std::to_string(body.size()) + "\n\n" + body;
  ASSERT_EQ(p.Feed(req), HttpRequestParser::State::kComplete)
      << p.error();
  EXPECT_EQ(p.request().body, body);
}

TEST(HttpParserTest, SplitsPathAndQuery) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("GET /v1/stats?verbose=1 HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().path(), "/v1/stats");
  EXPECT_EQ(p.request().query(), "verbose=1");
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("NONSENSE\r\n\r\n"), HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParserTest, RejectsNonHttpVersion) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("GET / SPDY/9\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParserTest, RejectsOversizedHead) {
  service::HttpLimits limits;
  limits.max_head_bytes = 128;
  HttpRequestParser p(limits);
  std::string big = "GET / HTTP/1.1\r\nX-Pad: " + std::string(500, 'a');
  ASSERT_EQ(p.Feed(big), HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParserTest, RejectsOversizedBodyUpfront) {
  service::HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpRequestParser p(limits);
  ASSERT_EQ(p.Feed("POST / HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParserTest, RejectsChunkedTransferEncoding) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 501);
}

TEST(HttpParserTest, RejectsMalformedContentLength) {
  HttpRequestParser p;
  ASSERT_EQ(p.Feed("POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(p.error_status(), 400);
  // Signed values must be 400 (malformed), not 413: strtoull would
  // silently wrap "-1" to ULLONG_MAX.
  for (const char* bad : {"-1", "+5"}) {
    HttpRequestParser q;
    ASSERT_EQ(q.Feed(std::string("POST / HTTP/1.1\r\nContent-Length: ") +
                     bad + "\r\n\r\n"),
              HttpRequestParser::State::kError)
        << bad;
    EXPECT_EQ(q.error_status(), 400) << bad;
  }
}

TEST(HttpResponseTest, SerializeRoundTripsThroughResponseParser) {
  HttpResponse r;
  r.status = 429;
  r.body = "{\"error\":{}}";
  auto parsed = service::ParseHttpResponse(r.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->status, 429);
  EXPECT_EQ(parsed->body, "{\"error\":{}}");
}

TEST(HttpResponseTest, SerializeAnnouncesConnectionPersistence) {
  HttpResponse r;
  EXPECT_NE(r.Serialize().find("Connection: close"), std::string::npos);
  r.keep_alive = true;
  EXPECT_NE(r.Serialize().find("Connection: keep-alive"),
            std::string::npos);
}

TEST(HttpParserTest, KeepAliveSemanticsFollowVersionAndHeader) {
  auto wants = [](const std::string& head) {
    HttpRequestParser p;
    EXPECT_EQ(p.Feed(head), HttpRequestParser::State::kComplete) << head;
    return p.request().WantsKeepAlive();
  };
  // HTTP/1.1 defaults to keep-alive; `close` wins over anything.
  EXPECT_TRUE(wants("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(wants("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_FALSE(wants("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"));
  // HTTP/1.0 defaults to close unless it opts in.
  EXPECT_FALSE(wants("GET / HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(wants("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
}

TEST(HttpParserTest, PipelinedBytesCarryOverViaTakeLeftover) {
  HttpRequestParser p;
  std::string two =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
      "GET /b HTTP/1.1\r\n\r\n";
  ASSERT_EQ(p.Feed(two), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().body, "abc");
  std::string rest = p.TakeLeftover();
  HttpRequestParser q;
  ASSERT_EQ(q.Feed(rest), HttpRequestParser::State::kComplete);
  EXPECT_EQ(q.request().target, "/b");
  EXPECT_TRUE(q.TakeLeftover().empty());
}

// ---------------------------------------------------------------------------
// JSON request decoder

TEST(JsonValueTest, ParsesScalarsAndContainers) {
  auto v = ParseJson(
      " {\"a\": 1.5, \"b\": [true, null, \"x\"], \"c\": {\"d\": -2e3}} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->Find("a")->AsNumber(), 1.5);
  const JsonValue& b = *v->Find("b");
  ASSERT_TRUE(b.is_array());
  ASSERT_EQ(b.AsArray().size(), 3u);
  EXPECT_TRUE(b.AsArray()[0].AsBool());
  EXPECT_TRUE(b.AsArray()[1].is_null());
  EXPECT_EQ(b.AsArray()[2].AsString(), "x");
  EXPECT_DOUBLE_EQ(v->Find("c")->Find("d")->AsNumber(), -2000.0);
}

TEST(JsonValueTest, DecodesEscapesAndUnicode) {
  auto v = ParseJson(R"({"s": "a\"b\\c\nd A 😀"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("s")->AsString(), "a\"b\\c\nd A \xF0\x9F\x98\x80");
}

TEST(JsonValueTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("truth").ok());
  EXPECT_FALSE(ParseJson("1e999").ok());  // non-finite
  EXPECT_FALSE(ParseJson(R"({"s":"\uD800"})").ok());  // lone surrogate
}

TEST(JsonValueTest, EnforcesDepthLimit) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(ParseJson("[[[[1]]]]", /*max_depth=*/64).ok());
}

TEST(JsonValueTest, EnforcesNodeBudget) {
  // Every value costs ~100 bytes of JsonValue, so a small body of tiny
  // scalars amplifies ~50x in memory; the node budget bounds it.
  EXPECT_FALSE(ParseJson("[1,1,1,1,1]", /*max_depth=*/64,
                         /*max_nodes=*/4)
                   .ok());
  EXPECT_TRUE(ParseJson("[1,1,1,1,1]", /*max_depth=*/64,
                        /*max_nodes=*/6)
                  .ok());
  // The service default admits any legitimate request shape.
  EXPECT_TRUE(ParseJson(R"({"items":[{"dataset":"d","k":2}]})").ok());
}

TEST(JsonValueTest, LookupHelpers) {
  auto v = ParseJson(R"({"k": 3, "flag": true, "name": "x"})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->NumberOr("k", 1.0).value(), 3.0);
  EXPECT_DOUBLE_EQ(v->NumberOr("missing", 1.0).value(), 1.0);
  EXPECT_TRUE(v->BoolOr("flag", false).value());
  EXPECT_FALSE(v->BoolOr("missing", false).value());
  auto name = v->RequiredString("name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "x");
  EXPECT_FALSE(v->RequiredString("k").ok());       // wrong kind
  EXPECT_FALSE(v->RequiredString("missing").ok());  // absent
}

TEST(JsonValueTest, LookupHelpersRejectWrongKinds) {
  // A present key of the wrong kind must surface as an error, not fall
  // back to the default — the request would otherwise be served with
  // silently different parameters.
  auto v = ParseJson(R"({"k": "5", "flag": 1})");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->NumberOr("k", 1.0).ok());
  EXPECT_FALSE(v->BoolOr("flag", false).ok());
}

// ---------------------------------------------------------------------------
// Fixtures shared by registry and server tests (the paper's Figure 2)

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

constexpr const char* kTaxComplaintsCsv =
    "tid,alive,income,owed,pay\n"
    "2,1,86000,21500,64500\n"
    "3,1,86500,21625,64875\n";

// ---------------------------------------------------------------------------
// DatasetRegistry

TEST(DatasetRegistryTest, RegistersAndGets) {
  DatasetRegistry registry;
  auto ds = registry.Register("taxes", kTaxD0Csv, "Taxes", kTaxLogSql);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->d0().NumSlots(), 4u);
  EXPECT_EQ((*ds)->log.size(), 3u);
  EXPECT_EQ((*ds)->dirty.NumSlots(), 5u);  // the INSERT added a tuple
  ASSERT_NE(registry.Get("taxes"), nullptr);
  EXPECT_EQ(registry.Get("taxes").get(), ds->get());
  EXPECT_EQ(registry.Get("other"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(DatasetRegistryTest, AcceptsSnapshotCheckpoints) {
  DatasetRegistry registry;
  std::string snapshot = io::WriteSnapshot(test::TaxD0());
  auto ds = registry.Register("snap", snapshot, "ignored", kTaxLogSql);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ((*ds)->d0().table_name(), "Taxes");
}

TEST(DatasetRegistryTest, RejectsBadInputs) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Register("", kTaxD0Csv, "T", kTaxLogSql).ok());
  EXPECT_FALSE(
      registry.Register("bad name", kTaxD0Csv, "T", kTaxLogSql).ok());
  EXPECT_FALSE(registry.Register("x", "not,a\nvalid", "T", "SELECT").ok());
  EXPECT_FALSE(
      registry.Register("x", kTaxD0Csv, "Taxes", "DROP TABLE Taxes").ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(DatasetRegistryTest, CapacityBoundsNewNamesButAllowsReplacement) {
  DatasetRegistry registry(/*max_datasets=*/2);
  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Register("b", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  auto third = registry.Register("c", kTaxD0Csv, "Taxes", kTaxLogSql);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted());
  // Replacing a registered name is always allowed at capacity.
  EXPECT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(DatasetRegistryTest, FullRegistryRejectsBeforeParsing) {
  DatasetRegistry registry(/*max_datasets=*/1);
  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  // A new name on a full registry must be rejected with the capacity
  // error before the body is parsed: garbage d0 text would otherwise
  // surface as InvalidArgument, proving the expensive parse ran.
  auto rejected = registry.Register("b", "not,a\nvalid", "T", "garbage");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  // Replacement of the existing name still parses (and still rejects
  // malformed bodies on their own merits).
  EXPECT_FALSE(registry.Register("a", "not,a\nvalid", "T", "garbage")
                   .status()
                   .IsResourceExhausted());
}

TEST(DatasetRegistryTest, ReplacementKeepsOldSnapshotAliveForReaders) {
  DatasetRegistry registry;
  auto first = registry.Register("d", kTaxD0Csv, "Taxes", kTaxLogSql);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const service::Dataset> held = registry.Get("d");
  auto second =
      registry.Register("d", kTaxD0Csv, "Taxes",
                        "UPDATE Taxes SET pay = income - owed;");
  ASSERT_TRUE(second.ok());
  // The held reference still sees the original three-query log.
  EXPECT_EQ(held->log.size(), 3u);
  EXPECT_EQ(registry.Get("d")->log.size(), 1u);
}

// Registration racing lookups on the same name must be clean under
// TSan: readers hold shared_ptr snapshots, writers swap the map entry.
TEST(DatasetRegistryTest, ConcurrentRegisterAndGet) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.Register("shared", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        if (t % 2 == 0) {
          auto ds = registry.Register("shared", kTaxD0Csv, "Taxes",
                                      kTaxLogSql);
          ASSERT_TRUE(ds.ok());
        } else {
          std::shared_ptr<const service::Dataset> ds =
              registry.Get("shared");
          ASSERT_NE(ds, nullptr);
          // Read through the snapshot; stale is fine, torn is not.
          ASSERT_EQ(ds->log.size(), 3u);
          ASSERT_EQ(ds->d0().NumSlots(), 4u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// End-to-end loopback

// Zeroes the values of the timing stats fields, which legitimately
// differ between two runs of the same diagnosis.
std::string NormalizeTiming(std::string json) {
  for (const char* key :
       {"\"encode_seconds\":", "\"solve_seconds\":", "\"total_seconds\":"}) {
    size_t pos = 0;
    while ((pos = json.find(key, pos)) != std::string::npos) {
      size_t begin = pos + std::string(key).size();
      size_t end = begin;
      while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
      }
      json.replace(begin, end - begin, "0");
      pos = begin;
    }
  }
  return json;
}

// Extracts the balanced JSON object that follows `"report":` — the raw
// report_json document the server spliced into its response.
std::string ExtractReport(const std::string& body) {
  size_t start = body.find("\"report\":");
  if (start == std::string::npos) return "";
  start += std::string("\"report\":").size();
  int depth = 0;
  bool in_string = false;
  for (size_t i = start; i < body.size(); ++i) {
    char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      if (depth == 0) return body.substr(start, i - start + 1);
    }
  }
  return "";
}

class ServerTest : public testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    server_ = std::make_unique<DiagnosisServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }

  service::HttpResponse Post(const std::string& path,
                             const std::string& body,
                             double timeout = 60.0) {
    auto r = service::HttpPost("127.0.0.1", port_, path, body, timeout);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : service::HttpResponse{};
  }

  service::HttpResponse Get(const std::string& path) {
    auto r = service::HttpGet("127.0.0.1", port_, path);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : service::HttpResponse{};
  }

  // The /v1/stats document, read in-process from the metrics registry:
  // a GET would count itself.
  JsonValue Stats() {
    auto doc = ParseJson(server_->RenderStats(server_->metrics().Snapshot()));
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return doc.ok() ? *doc : JsonValue();
  }

  // One member of a Stats() section, e.g. Stat(stats, "requests",
  // "items").
  static const JsonValue& Stat(const JsonValue& stats, const char* section,
                               const char* key) {
    static const JsonValue kMissing = JsonValue::MakeNumber(-1.0);
    const JsonValue* value = stats.Find(section);
    value = value != nullptr ? value->Find(key) : nullptr;
    EXPECT_NE(value, nullptr) << section << "." << key;
    return value != nullptr ? *value : kMissing;
  }

  std::string RegisterTaxesBody() {
    JsonWriter w;
    w.BeginObject();
    w.Key("name");
    w.String("taxes");
    w.Key("table");
    w.String("Taxes");
    w.Key("d0_csv");
    w.String(kTaxD0Csv);
    w.Key("log_sql");
    w.String(kTaxLogSql);
    w.EndObject();
    return w.str();
  }

  std::string DiagnoseTaxesBody() {
    JsonWriter w;
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(kTaxComplaintsCsv);
    w.EndObject();
    return w.str();
  }

  std::unique_ptr<DiagnosisServer> server_;
  int port_ = 0;
};

TEST_F(ServerTest, HealthzAndStats) {
  StartServer(ServerOptions{});
  auto health = Get("/v1/healthz");
  EXPECT_EQ(health.status, 200);
  auto doc = ParseJson(health.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("status")->AsString(), "ok");

  auto stats = Get("/v1/stats");
  EXPECT_EQ(stats.status, 200);
  auto sdoc = ParseJson(stats.body);
  ASSERT_TRUE(sdoc.ok());
  // The healthz request above is already counted.
  EXPECT_GE(sdoc->Find("requests")->Find("healthz")->AsNumber(), 1.0);
  EXPECT_EQ(sdoc->Find("queue")->Find("capacity")->AsNumber(), 8.0);
}

TEST_F(ServerTest, RoutingErrors) {
  StartServer(ServerOptions{});
  EXPECT_EQ(Get("/v1/nope").status, 404);
  EXPECT_EQ(Post("/v1/healthz", "{}").status, 405);
  EXPECT_EQ(Post("/v1/diagnose", "this is not json").status, 400);
  EXPECT_EQ(Post("/v1/datasets", "{\"name\":\"x\"}").status, 400);
  // Debug endpoints are off by default.
  EXPECT_EQ(Post("/v1/debug/sleep", "{}").status, 404);
  auto diag = Post("/v1/diagnose", DiagnoseTaxesBody());
  EXPECT_EQ(diag.status, 404);  // dataset not registered
}

TEST_F(ServerTest, EndToEndMatchesLibraryResult) {
  // Deterministic pool so the served result is bit-identical to the
  // serial library path.
  ServerOptions options;
  options.jobs = 0;
  StartServer(options);

  auto reg = Post("/v1/datasets", RegisterTaxesBody());
  ASSERT_EQ(reg.status, 200) << reg.body;
  auto reg_doc = ParseJson(reg.body);
  ASSERT_TRUE(reg_doc.ok());
  EXPECT_EQ(reg_doc->Find("tuples")->AsNumber(), 4.0);
  EXPECT_EQ(reg_doc->Find("queries")->AsNumber(), 3.0);

  auto diag = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(diag.status, 200) << diag.body;
  auto diag_doc = ParseJson(diag.body);
  ASSERT_TRUE(diag_doc.ok()) << diag.body;
  EXPECT_TRUE(diag_doc->Find("ok")->AsBool());
  std::string served_report = ExtractReport(diag.body);
  ASSERT_FALSE(served_report.empty()) << diag.body;

  // The same diagnosis through the library: identical inputs, the
  // serial BatchDiagnoser, the same report rendering.
  auto d0 = io::DatabaseFromCsv(kTaxD0Csv, "Taxes");
  ASSERT_TRUE(d0.ok());
  auto log = sql::ParseLog(kTaxLogSql, d0->schema());
  ASSERT_TRUE(log.ok());
  auto complaints = io::ComplaintsFromCsv(kTaxComplaintsCsv, d0->schema());
  ASSERT_TRUE(complaints.ok());
  qfixcore::QFixOptions qopts;
  qopts.time_limit_seconds = 30.0;  // the server's default cap
  qfixcore::BatchItem item = qfixcore::MakeBatchItem(*log, *d0, *complaints,
                                                     qopts, /*k=*/1);
  qfixcore::BatchDiagnoser diagnoser(qfixcore::BatchOptions{});
  auto results = diagnoser.Run({item});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  std::string direct_report = qfixcore::RepairToJson(
      *results[0], item.data->log, item.data->d0().schema());

  EXPECT_EQ(NormalizeTiming(served_report), NormalizeTiming(direct_report));
  // And the repair is the paper's: threshold 85700 -> 86501.
  EXPECT_NE(served_report.find("\"after\":86501"), std::string::npos);
  // The latency histogram counts served diagnoses only; the
  // registration this test also performed must not be in it.
  EXPECT_EQ(Stat(Stats(), "latency", "count").AsNumber(), 1.0);
}

TEST_F(ServerTest, BatchedItemsReturnAlignedResults) {
  StartServer(ServerOptions{});
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  for (int i = 0; i < 2; ++i) {
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(kTaxComplaintsCsv);
    if (i == 1) {
      w.Key("basic");
      w.Bool(true);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  auto response = Post("/v1/diagnose", w.str());
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 2u);
  for (const JsonValue& r : results->AsArray()) {
    EXPECT_TRUE(r.Find("ok")->AsBool());
    ASSERT_NE(r.Find("report"), nullptr);
    EXPECT_TRUE(r.Find("report")->Find("verified")->AsBool());
  }
}

TEST_F(ServerTest, WrongTypedOptionalFieldsAre400NotDefaults) {
  StartServer(ServerOptions{});
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  // "k" as a string must be rejected, not silently diagnosed with the
  // default k.
  std::string body = DiagnoseTaxesBody();
  body.insert(body.size() - 1, ",\"k\":\"5\"");
  EXPECT_EQ(Post("/v1/diagnose", body).status, 400);
  body = DiagnoseTaxesBody();
  body.insert(body.size() - 1, ",\"denoise\":1");
  EXPECT_EQ(Post("/v1/diagnose", body).status, 400);
  body = DiagnoseTaxesBody();
  body.insert(body.size() - 1, ",\"time_limit_seconds\":\"10\"");
  EXPECT_EQ(Post("/v1/diagnose", body).status, 400);
}

TEST_F(ServerTest, OversizedItemsArrayIsRejected) {
  // Every BatchItem copies the full dataset, so items[] length is the
  // memory-amplification knob; the cap must bound it before any item
  // is decoded or admitted.
  ServerOptions options;
  options.max_items = 2;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  for (int i = 0; i < 3; ++i) {
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(kTaxComplaintsCsv);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(Post("/v1/diagnose", w.str()).status, 413);
}

// Concurrent diagnoses against one shared dataset: the TSan-lane
// acceptance. Every request must succeed and carry the verified repair.
TEST_F(ServerTest, ConcurrentDiagnosesOnSharedDataset) {
  ServerOptions options;
  options.jobs = 2;
  options.max_inflight = 16;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int> statuses(kClients, 0);
  std::vector<std::string> bodies(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &statuses, &bodies] {
      auto r = service::HttpPost("127.0.0.1", port_, "/v1/diagnose",
                                 DiagnoseTaxesBody(), 60.0);
      if (r.ok()) {
        statuses[c] = r->status;
        bodies[c] = r->body;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(statuses[c], 200) << bodies[c];
    EXPECT_NE(bodies[c].find("\"verified\":true"), std::string::npos)
        << bodies[c];
  }
}

// Over capacity, diagnosis requests shed with 429 rather than queueing
// without bound — and the server stays observable and recovers.
TEST_F(ServerTest, OverCapacityBurstShedsWith429) {
  ServerOptions options;
  options.max_inflight = 2;
  options.enable_test_endpoints = true;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  // Occupy both admission slots with debug sleeps.
  std::vector<std::thread> sleepers;
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([this] {
      auto r = service::HttpPost("127.0.0.1", port_, "/v1/debug/sleep",
                                 "{\"seconds\": 3.0}", 30.0);
      EXPECT_TRUE(r.ok() && r->status == 200);
    });
  }
  // Give the sleepers time to be admitted (generous for TSan).
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  // The burst: every diagnosis request must be shed immediately.
  for (int i = 0; i < 4; ++i) {
    auto r = Post("/v1/diagnose", DiagnoseTaxesBody(), 10.0);
    EXPECT_EQ(r.status, 429) << r.body;
  }
  // Health stays responsive under load (it bypasses the gate).
  EXPECT_EQ(Get("/v1/healthz").status, 200);
  auto stats = ParseJson(Get("/v1/stats").body);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Find("requests")->Find("shed_429")->AsNumber(), 4.0);
  EXPECT_EQ(stats->Find("queue")->Find("inflight")->AsNumber(), 2.0);

  for (std::thread& t : sleepers) t.join();
  // Capacity freed: the same request now succeeds.
  auto recovered = Post("/v1/diagnose", DiagnoseTaxesBody());
  EXPECT_EQ(recovered.status, 200) << recovered.body;
}

// ---------------------------------------------------------------------------
// Keep-alive

TEST_F(ServerTest, KeepAliveServesManyRequestsOverOneConnection) {
  StartServer(ServerOptions{});
  service::ClientConnection conn("127.0.0.1", port_);
  auto reg = conn.Post("/v1/datasets", RegisterTaxesBody());
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  ASSERT_EQ(reg->status, 200) << reg->body;
  for (int i = 0; i < 3; ++i) {
    auto r = conn.Get("/v1/healthz");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  // One TCP connect carried all four requests.
  EXPECT_EQ(conn.connects(), 1);
  JsonValue stats = Stats();
  EXPECT_EQ(Stat(stats, "requests", "connections").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "requests", "total").AsNumber(), 4.0);
}

TEST_F(ServerTest, MaxRequestsPerConnClosesAndClientReconnects) {
  ServerOptions options;
  options.max_requests_per_conn = 2;
  StartServer(options);
  service::ClientConnection conn("127.0.0.1", port_);
  for (int i = 0; i < 4; ++i) {
    auto r = conn.Get("/v1/healthz");
    ASSERT_TRUE(r.ok()) << "request " << i << ": " << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }
  // The server closed after every second request; the client noticed
  // (Connection: close) and reconnected.
  EXPECT_EQ(conn.connects(), 2);
  EXPECT_EQ(Stat(Stats(), "requests", "connections").AsNumber(), 2.0);
}

// ---------------------------------------------------------------------------
// Report cache

TEST_F(ServerTest, RepeatDiagnoseServedFromCacheByteIdenticalAndZeroCopy) {
  ServerOptions options;
  options.jobs = 0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  // The acceptance criterion: zero implicit Database deep copies on the
  // hot path — across the cold solve (miss) AND the warm hit.
  const int64_t copies_before = relational::Database::CopyCount();
  auto cold = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"cached\":false"), std::string::npos)
      << cold.body;

  auto warm = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_NE(warm.body.find("\"cached\":true"), std::string::npos)
      << warm.body;
  EXPECT_EQ(relational::Database::CopyCount(), copies_before);

  // The hit splices the original solve's bytes: identical report
  // including the timing stats a re-solve could never reproduce.
  EXPECT_EQ(ExtractReport(cold.body), ExtractReport(warm.body));

  JsonValue stats = Stats();
  EXPECT_TRUE(Stat(stats, "cache", "enabled").AsBool());
  EXPECT_EQ(Stat(stats, "requests", "cached_hits").AsNumber(), 1.0);
  EXPECT_GE(Stat(stats, "cache", "hits").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "cache", "inserts").AsNumber(), 1.0);
  // Only the cold solve bought an admission slot.
  EXPECT_EQ(Stat(stats, "requests", "items").AsNumber(), 1.0);
}

TEST_F(ServerTest, ReRegistrationInvalidatesCachedReports) {
  ServerOptions options;
  options.jobs = 0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  ASSERT_NE(Post("/v1/diagnose", DiagnoseTaxesBody())
                .body.find("\"cached\":false"),
            std::string::npos);
  ASSERT_NE(Post("/v1/diagnose", DiagnoseTaxesBody())
                .body.find("\"cached\":true"),
            std::string::npos);

  // Re-registering the name mints a new version: the next diagnosis
  // must solve cold even though the bytes are identical.
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  auto after = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(after.status, 200) << after.body;
  EXPECT_NE(after.body.find("\"cached\":false"), std::string::npos)
      << after.body;
  EXPECT_GE(Stat(Stats(), "cache", "invalidations").AsNumber(), 1.0);
}

TEST_F(ServerTest, CacheOffSolvesEveryRequestCold) {
  ServerOptions options;
  options.jobs = 0;
  options.cache_bytes = 0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  for (int i = 0; i < 2; ++i) {
    auto r = Post("/v1/diagnose", DiagnoseTaxesBody());
    ASSERT_EQ(r.status, 200) << r.body;
    EXPECT_NE(r.body.find("\"cached\":false"), std::string::npos) << r.body;
  }
  JsonValue stats = Stats();
  EXPECT_FALSE(Stat(stats, "cache", "enabled").AsBool());
  EXPECT_EQ(Stat(stats, "requests", "cached_hits").AsNumber(), 0.0);
  EXPECT_EQ(Stat(stats, "requests", "items").AsNumber(), 2.0);
}

TEST_F(ServerTest, IdenticalItemsInOneRequestSolveOnce) {
  ServerOptions options;
  options.jobs = 0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  for (int i = 0; i < 2; ++i) {
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(kTaxComplaintsCsv);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  auto response = Post("/v1/diagnose", w.str());
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 2u);
  for (const JsonValue& r : results->AsArray()) {
    EXPECT_TRUE(r.Find("ok")->AsBool());
    ASSERT_NE(r.Find("report"), nullptr);
  }
  // The duplicate coalesced within the request: one solve, one slot.
  EXPECT_EQ(Stat(Stats(), "requests", "items").AsNumber(), 1.0);

  // The same request again: the first item hits, and its duplicate is
  // rendered from the same cached entry without a lookup of its own.
  auto repeat = Post("/v1/diagnose", w.str());
  ASSERT_EQ(repeat.status, 200) << repeat.body;
  // Two answers of two reports each, all four the one solve's bytes.
  std::vector<std::string> reports;
  for (const std::string* body : {&response.body, &repeat.body}) {
    auto parsed = ParseJson(*body);
    ASSERT_TRUE(parsed.ok()) << *body;
    for (const JsonValue& r : parsed->Find("results")->AsArray()) {
      EXPECT_TRUE(r.Find("ok")->AsBool()) << *body;
      EXPECT_EQ(r.Find("cached")->AsBool(), body == &repeat.body) << *body;
    }
    const size_t second =
        body->find("\"report\":", body->find("\"report\":") + 1);
    ASSERT_NE(second, std::string::npos) << *body;
    reports.push_back(ExtractReport(*body));
    reports.push_back(ExtractReport(body->substr(second)));
  }
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_FALSE(reports[0].empty());
  for (const std::string& report : reports) EXPECT_EQ(report, reports[0]);

  JsonValue stats = Stats();
  EXPECT_EQ(Stat(stats, "requests", "items").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "requests", "cached_hits").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "cache", "hits").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "cache", "misses").AsNumber(), 1.0);
  EXPECT_EQ(Stat(stats, "cache", "inserts").AsNumber(), 1.0);
}

// ---------------------------------------------------------------------------
// Item-weighted admission

TEST_F(ServerTest, AdmissionGateCountsItemsNotRequests) {
  ServerOptions options;
  options.jobs = 0;
  options.max_inflight = 2;
  options.enable_test_endpoints = true;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  // Two items with DISTINCT complaint sets (no in-request coalescing).
  const char* complaint_rows[] = {
      "tid,alive,income,owed,pay\n2,1,86000,21500,64500\n",
      "tid,alive,income,owed,pay\n3,1,86500,21625,64875\n"};
  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  for (const char* rows : complaint_rows) {
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(rows);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string two_items = w.str();

  // Occupy ONE of the two slots; a two-item request then wants two
  // slots over the one remaining and must shed. A request-counting
  // gate (the old semantics) would have admitted it: one sleeping
  // request + one new request fit a capacity of 2.
  std::thread sleeper([this] {
    auto r = service::HttpPost("127.0.0.1", port_, "/v1/debug/sleep",
                               "{\"seconds\": 3.0}", 30.0);
    EXPECT_TRUE(r.ok() && r->status == 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  auto shed = Post("/v1/diagnose", two_items);
  EXPECT_EQ(shed.status, 429) << shed.body;
  // A single-item request fits the remaining slot.
  auto one = Post("/v1/diagnose", DiagnoseTaxesBody());
  EXPECT_EQ(one.status, 200) << one.body;
  sleeper.join();

  // With the gate empty the same two-item request is admitted — and an
  // items[] array larger than the whole capacity is weight-capped, not
  // shed forever.
  EXPECT_EQ(Post("/v1/diagnose", two_items).status, 200);

  auto stats = ParseJson(Get("/v1/stats").body);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Find("requests")->Find("shed_429")->AsNumber(), 1.0);
  // Items admitted: 1 (single) + 2 (batch); the shed request admitted
  // none. (The single-item solve was a cache miss of its own key.)
  EXPECT_EQ(stats->Find("requests")->Find("items")->AsNumber(), 3.0);
  EXPECT_EQ(stats->Find("queue")->Find("capacity")->AsNumber(), 2.0);
}

TEST_F(ServerTest, OversizedBatchIsAdmittedOnAnEmptyGate) {
  // items[] > max_inflight: the weight is capped at capacity, so the
  // request occupies the whole gate rather than being 429'd forever.
  ServerOptions options;
  options.jobs = 0;
  options.max_inflight = 2;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  const char* complaint_rows[] = {
      "tid,alive,income,owed,pay\n2,1,86000,21500,64500\n",
      "tid,alive,income,owed,pay\n3,1,86500,21625,64875\n",
      "tid,alive,income,owed,pay\n"
      "2,1,86000,21500,64500\n3,1,86500,21625,64875\n"};
  JsonWriter w;
  w.BeginObject();
  w.Key("items");
  w.BeginArray();
  for (const char* rows : complaint_rows) {
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(rows);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  auto response = Post("/v1/diagnose", w.str());
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("results")->AsArray().size(), 3u);
}

TEST_F(ServerTest, StopCancelsDebugSleepCooperatively) {
  ServerOptions options;
  options.enable_test_endpoints = true;
  StartServer(options);
  std::thread sleeper([this] {
    // Long sleep; Stop() must cut it short via the shutdown token.
    service::HttpPost("127.0.0.1", port_, "/v1/debug/sleep",
                      "{\"seconds\": 25.0}", 30.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double stop_started = MonotonicSeconds();
  server_->Stop();
  const double stop_seconds = MonotonicSeconds() - stop_started;
  sleeper.join();
  // Cooperative cancellation: far less than the requested 25 s.
  EXPECT_LT(stop_seconds, 10.0);
}

// ---------------------------------------------------------------------------
// Observability: /metrics, request ids, timings, slow-request log

// HttpResponse has no FindHeader; the tests scan case-insensitively.
const std::string* ResponseHeader(const service::HttpResponse& response,
                                  const char* name) {
  for (const auto& [key, value] : response.headers) {
    if (strcasecmp(key.c_str(), name) == 0) return &value;
  }
  return nullptr;
}

TEST_F(ServerTest, MetricsExpositionLintsCleanAndCoversSubsystems) {
  ServerOptions options;
  options.enable_test_endpoints = true;
  StartServer(options);

  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseTaxesBody()).status, 200);
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseTaxesBody()).status, 200);  // hit
  ASSERT_EQ(Post("/v1/datasets/taxes/append",
                 "{\"log_sql\":\"UPDATE Taxes SET pay = pay WHERE "
                 "income < 0;\"}")
                .status,
            200);

  auto metrics = Get("/metrics");
  ASSERT_EQ(metrics.status, 200) << metrics.body;
  const std::string* content_type = ResponseHeader(metrics, "Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("version=0.0.4"), std::string::npos);

  Status lint = obs::LintExposition(metrics.body);
  EXPECT_TRUE(lint.ok()) << lint.ToString();

  auto parsed = obs::ParseExposition(metrics.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Every layer of the stack shows up in one scrape.
  for (const char* family :
       {"qfix_requests_total", "qfix_http_responses_total",
        "qfix_open_connections", "qfix_inflight_items",
        "qfix_request_phase_seconds", "qfix_diagnose_seconds",
        "qfix_report_cache_events_total", "qfix_registry_datasets",
        "qfix_encoding_cache_events_total", "qfix_ingest_appends_total",
        "qfix_tenant_requests_total", "qfix_solver_nodes_total",
        "qfix_encoder_constraints_total", "qfix_pool_workers",
        "qfix_uptime_seconds"}) {
    EXPECT_TRUE(parsed->types.count(family)) << "missing family " << family;
  }

  // Spot-check values: requests routed, phases observed, solver worked.
  auto series = [&](const char* name, const char* label_name,
                    const char* label_value) -> double {
    for (const auto& sample : parsed->samples) {
      if (sample.name != name) continue;
      if (label_name == nullptr) return sample.value;
      const std::string* v = sample.FindLabel(label_name);
      if (v != nullptr && *v == label_value) return sample.value;
    }
    return -1.0;
  };
  EXPECT_EQ(series("qfix_requests_total", "endpoint", "diagnose"), 2.0);
  EXPECT_EQ(series("qfix_requests_total", "endpoint", "append"), 1.0);
  EXPECT_EQ(series("qfix_registry_datasets", nullptr, nullptr), 1.0);
  EXPECT_EQ(series("qfix_ingest_appends_total", nullptr, nullptr), 1.0);
  EXPECT_GE(series("qfix_solver_nodes_total", nullptr, nullptr), 1.0);
  EXPECT_GE(series("qfix_encoder_constraints_total", nullptr, nullptr), 1.0);
  // One cold solve + one cache hit, both diagnoses phase-traced.
  EXPECT_GE(series("qfix_report_cache_events_total", "event", "hits"), 1.0);
  EXPECT_EQ(series("qfix_request_phase_seconds_count", "phase", "solve"),
            2.0);
  EXPECT_EQ(series("qfix_request_phase_seconds_count", "phase", "parse"),
            2.0);
  // TenantOf("taxes") is "taxes": unprefixed datasets are their own
  // tenant namespace.
  EXPECT_EQ(series("qfix_diagnose_seconds_count", "tenant", "taxes"), 2.0);
  // The write phase is recorded at the connection layer for every
  // response served so far.
  EXPECT_GE(series("qfix_request_phase_seconds_count", "phase", "write"),
            4.0);

  // /metrics serves GET only.
  EXPECT_EQ(Post("/metrics", "{}").status, 405);
}

TEST_F(ServerTest, TimingsBlockIsOptInAndInternallyConsistent) {
  StartServer(ServerOptions{});
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  // Without the flag: no timings block.
  auto plain = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body.find("\"timings\""), std::string::npos);

  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String("taxes");
  w.Key("complaints_csv");
  w.String(kTaxComplaintsCsv);
  w.Key("timings");
  w.Bool(true);
  w.EndObject();
  auto timed = Post("/v1/diagnose", w.str());
  ASSERT_EQ(timed.status, 200) << timed.body;

  auto doc = ParseJson(timed.body);
  ASSERT_TRUE(doc.ok()) << timed.body;
  const JsonValue* timings = doc->Find("timings");
  ASSERT_NE(timings, nullptr) << timed.body;

  // The id in the body is the id on the wire.
  const JsonValue* request_id = timings->Find("request_id");
  ASSERT_NE(request_id, nullptr);
  const std::string* header_id = ResponseHeader(timed, "X-Request-Id");
  ASSERT_NE(header_id, nullptr);
  EXPECT_EQ(request_id->AsString(), *header_id);

  const JsonValue* total_ms = timings->Find("total_ms");
  ASSERT_NE(total_ms, nullptr);
  EXPECT_GT(total_ms->AsNumber(), 0.0);

  const JsonValue* phases = timings->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  std::vector<std::string> names;
  double phase_sum_ms = 0.0;
  double prev_start = -1.0;
  for (const JsonValue& phase : phases->AsArray()) {
    names.push_back(phase.Find("phase")->AsString());
    double start = phase.Find("start_ms")->AsNumber();
    double ms = phase.Find("ms")->AsNumber();
    EXPECT_GE(ms, 0.0);
    EXPECT_GE(start, prev_start);  // spans in chronological order
    prev_start = start;
    phase_sum_ms += ms;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"parse", "cache", "admission",
                                             "encode", "solve", "render"}));
  // Phases are disjoint sub-intervals of the request: their sum cannot
  // exceed the total (the render span closes before serialization).
  EXPECT_LE(phase_sum_ms, total_ms->AsNumber() + 1e-6);
}

TEST_F(ServerTest, RequestIdEchoedGeneratedAndSanitized) {
  StartServer(ServerOptions{});

  // A safe client id is echoed byte-for-byte.
  auto echoed = service::HttpPost("127.0.0.1", port_, "/v1/diagnose",
                                  DiagnoseTaxesBody(), 30.0,
                                  {{"X-Request-Id", "client-id.42"}});
  ASSERT_TRUE(echoed.ok());
  const std::string* id = ResponseHeader(*echoed, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(*id, "client-id.42");
  EXPECT_EQ(echoed->status, 404);  // unregistered dataset: errors echo too

  // An unsafe id (header injection shape) is replaced, not echoed.
  auto unsafe = service::HttpPost("127.0.0.1", port_, "/v1/healthz", "",
                                  30.0, {{"X-Request-Id", "bad id\"!"}});
  ASSERT_TRUE(unsafe.ok());
  id = ResponseHeader(*unsafe, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->compare(0, 2, "q-"), 0) << *id;

  // No client id: the server mints one, on every route including 404s.
  auto generated = Get("/v1/healthz");
  id = ResponseHeader(generated, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->compare(0, 2, "q-"), 0) << *id;
  auto missing = Get("/v1/nope");
  EXPECT_EQ(missing.status, 404);
  id = ResponseHeader(missing, "X-Request-Id");
  ASSERT_NE(id, nullptr);
  EXPECT_FALSE(id->empty());
}

TEST_F(ServerTest, EveryRoutedEndpointIncrementsExactlyOneCounter) {
  ServerOptions options;
  options.enable_test_endpoints = true;
  StartServer(options);

  struct Snapshot {
    uint64_t total, datasets, append, diagnose, health, stats, metrics,
        debug;
  };
  auto snapshot = [this]() -> Snapshot {
    JsonValue s = Stats();
    auto n = [&s](const char* key) {
      return static_cast<uint64_t>(Stat(s, "requests", key).AsNumber());
    };
    return {n("total"),    n("datasets"), n("append"),  n("diagnose"),
            n("healthz"),  n("stats"),    n("metrics"), n("debug")};
  };
  auto endpoint_sum = [](const Snapshot& s) {
    return s.datasets + s.append + s.diagnose + s.health + s.stats +
           s.metrics + s.debug;
  };
  auto expect_one = [&](const char* label, uint64_t before_field,
                        uint64_t after_field, const Snapshot& before,
                        const Snapshot& after) {
    EXPECT_EQ(after.total - before.total, 1u) << label;
    EXPECT_EQ(after_field - before_field, 1u) << label;
    EXPECT_EQ(endpoint_sum(after) - endpoint_sum(before), 1u) << label;
  };

  Snapshot before = snapshot();
  Get("/v1/healthz");
  Snapshot after = snapshot();
  expect_one("healthz", before.health, after.health, before, after);

  before = after;
  Get("/v1/stats");
  after = snapshot();
  expect_one("stats", before.stats, after.stats, before, after);

  before = after;
  Get("/metrics");
  after = snapshot();
  expect_one("metrics", before.metrics, after.metrics, before, after);

  before = after;
  Post("/v1/datasets", RegisterTaxesBody());
  after = snapshot();
  expect_one("datasets", before.datasets, after.datasets, before, after);

  before = after;
  Post("/v1/datasets/taxes/append",
       "{\"log_sql\":\"UPDATE Taxes SET pay = pay WHERE income < 0;\"}");
  after = snapshot();
  expect_one("append", before.append, after.append, before, after);

  before = after;
  Post("/v1/diagnose", DiagnoseTaxesBody());
  after = snapshot();
  expect_one("diagnose", before.diagnose, after.diagnose, before, after);

  before = after;
  Post("/v1/debug/payload", "{\"bytes\": 16}");
  after = snapshot();
  expect_one("debug", before.debug, after.debug, before, after);

  // Unrouted paths count toward the total but no endpoint bucket.
  before = after;
  Get("/v1/nope");
  after = snapshot();
  EXPECT_EQ(after.total - before.total, 1u);
  EXPECT_EQ(endpoint_sum(after) - endpoint_sum(before), 0u);
}

// ---------------------------------------------------------------------------
// /v1/stats as a view of the metrics registry

// Leaf key paths of a JSON object, dotted ("requests.total").
void CollectPaths(const JsonValue& object, const std::string& prefix,
                  std::set<std::string>* out) {
  for (const auto& [key, member] : object.AsObject()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (member.is_object()) {
      CollectPaths(member, path, out);
    } else {
      out->insert(path);
    }
  }
}

std::string RegisterBody(const std::string& name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("table");
  w.String("Taxes");
  w.Key("d0_csv");
  w.String(kTaxD0Csv);
  w.Key("log_sql");
  w.String(kTaxLogSql);
  w.EndObject();
  return w.str();
}

std::string DiagnoseBody(const std::string& dataset,
                         const std::string& complaints_csv) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(dataset);
  w.Key("complaints_csv");
  w.String(complaints_csv);
  w.EndObject();
  return w.str();
}

// Every key path the document has always had stays, and none is added:
// tools and dashboards read them by name.
TEST_F(ServerTest, StatsKeySetIsStable) {
  ServerOptions options;
  options.jobs = 0;
  StartServer(options);
  // No tenant yet: the block is present and empty.
  JsonValue fresh = Stats();
  ASSERT_NE(fresh.Find("tenants"), nullptr);
  EXPECT_TRUE(fresh.Find("tenants")->AsObject().empty());

  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseTaxesBody()).status, 200);
  auto response = Get("/v1/stats");
  ASSERT_EQ(response.status, 200);
  auto doc = ParseJson(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;

  std::set<std::string> top, tenant;
  CollectPaths(*doc, "", &top);
  const std::string tenant_prefix = "tenants.taxes.";
  for (auto it = top.begin(); it != top.end();) {
    if (it->compare(0, tenant_prefix.size(), tenant_prefix) == 0) {
      tenant.insert(it->substr(tenant_prefix.size()));
      it = top.erase(it);
    } else {
      ++it;
    }
  }
  const std::set<std::string> kTopLevel = {
      "requests.total", "requests.datasets", "requests.append",
      "requests.diagnose", "requests.healthz", "requests.stats",
      "requests.metrics", "requests.debug", "requests.shed_429",
      "requests.errors_4xx", "requests.errors_5xx", "requests.connections",
      "requests.items", "requests.cached_hits",
      "cache.enabled", "cache.hits", "cache.misses", "cache.coalesced",
      "cache.inserts", "cache.evictions", "cache.invalidations",
      "cache.bytes", "cache.entries", "cache.capacity_bytes",
      "latency.count", "latency.p50_ms", "latency.p90_ms", "latency.p99_ms",
      "latency.max_ms",
      "queue.inflight", "queue.capacity",
      "registry.datasets", "registry.bytes", "registry.capacity_bytes",
      "registry.evictions", "registry.ttl_evictions",
      "ingest.appends", "ingest.chunks", "ingest.appended_queries",
      "ingest.prefix_hits", "ingest.prefix_misses", "ingest.prefix_computes",
      "ingest.encoding_cache_enabled", "ingest.encoding_cache_bytes",
      "ingest.encoding_cache_entries", "ingest.surviving_cache_bytes",
      "pool_workers", "uptime_seconds", "metrics_scrapes_total",
      "trace_recorder.enabled", "trace_recorder.recorded",
      "trace_recorder.retained", "trace_recorder.sampled_out",
      "trace_recorder.forced", "trace_recorder.evicted",
      "trace_recorder.buffered", "trace_recorder.buffered_bytes",
      "stalls.event_loop", "stalls.solve_deadline",
      "stalls.admission_starvation",
      "log_lines_dropped"};
  const std::set<std::string> kPerTenant = {
      "weight", "share", "inflight", "requests", "shed_429", "cached_hits",
      "items", "cache_bytes", "latency.count", "latency.p50_ms",
      "latency.p90_ms", "latency.p99_ms", "latency.max_ms"};
  ASSERT_EQ(kTopLevel.size(), 61u);
  ASSERT_EQ(kPerTenant.size(), 13u);
  EXPECT_EQ(top, kTopLevel);
  EXPECT_EQ(tenant, kPerTenant);
}

// From one registry snapshot, every number /v1/stats shows equals the
// /metrics series it stands for, after traffic that moves each block.
TEST_F(ServerTest, StatsAgreesWithMetricsFromOneSnapshot) {
  ServerOptions options;
  options.jobs = 0;
  options.max_inflight = 1;
  options.enable_test_endpoints = true;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseTaxesBody()).status, 200);  // cold
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseTaxesBody()).status, 200);  // hit
  ASSERT_EQ(Post("/v1/datasets/taxes/append",
                 "{\"log_sql\":\"UPDATE Taxes SET pay = pay WHERE "
                 "income < 0;\"}")
                .status,
            200);
  EXPECT_EQ(Get("/v1/nope").status, 404);
  // Fill the only admission slot, then shed a cache miss with 429.
  std::thread sleeper([this] {
    auto r = service::HttpPost("127.0.0.1", port_, "/v1/debug/sleep",
                               "{\"seconds\": 3.0}", 30.0);
    EXPECT_TRUE(r.ok() && r->status == 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  EXPECT_EQ(Post("/v1/diagnose",
                 DiagnoseBody("taxes", "tid,alive,income,owed,pay\n"
                                       "3,1,86500,21625,64875\n"))
                .status,
            429);
  sleeper.join();

  const obs::MetricsSnapshot snapshot = server_->metrics().Snapshot();
  auto stats = ParseJson(server_->RenderStats(snapshot));
  ASSERT_TRUE(stats.ok());
  auto exposition = obs::ParseExposition(snapshot.RenderPrometheus());
  ASSERT_TRUE(exposition.ok()) << exposition.status().ToString();
  // The /metrics sample `name{label="value"}`; -1 when absent.
  auto series = [&](const std::string& name, const char* label,
                    const std::string& value) {
    for (const obs::ParsedSample& sample : exposition->samples) {
      if (sample.name != name) continue;
      const std::string* v =
          label != nullptr ? sample.FindLabel(label) : nullptr;
      if (label == nullptr || (v != nullptr && *v == value)) {
        return sample.value;
      }
    }
    return -1.0;
  };
  struct Pair {
    const char* path;  // section.key, or a top-level key
    const char* family;
    const char* label = nullptr;
    const char* value = "";
  };
  const Pair kPairs[] = {
      {"requests.datasets", "qfix_requests_total", "endpoint", "datasets"},
      {"requests.append", "qfix_requests_total", "endpoint", "append"},
      {"requests.diagnose", "qfix_requests_total", "endpoint", "diagnose"},
      {"requests.healthz", "qfix_requests_total", "endpoint", "healthz"},
      {"requests.stats", "qfix_requests_total", "endpoint", "stats"},
      {"requests.metrics", "qfix_requests_total", "endpoint", "metrics"},
      {"requests.debug", "qfix_requests_total", "endpoint", "debug"},
      {"requests.shed_429", "qfix_shed_total"},
      {"requests.errors_4xx", "qfix_http_responses_total", "class", "4xx"},
      {"requests.errors_5xx", "qfix_http_responses_total", "class", "5xx"},
      {"requests.connections", "qfix_connections_total"},
      {"requests.items", "qfix_items_total"},
      {"requests.cached_hits", "qfix_cached_hits_total"},
      {"cache.hits", "qfix_report_cache_events_total", "event", "hits"},
      {"cache.misses", "qfix_report_cache_events_total", "event", "misses"},
      {"cache.coalesced", "qfix_report_cache_events_total", "event",
       "coalesced"},
      {"cache.inserts", "qfix_report_cache_events_total", "event", "inserts"},
      {"cache.evictions", "qfix_report_cache_events_total", "event",
       "evictions"},
      {"cache.invalidations", "qfix_report_cache_events_total", "event",
       "invalidations"},
      {"cache.bytes", "qfix_report_cache_bytes"},
      {"cache.entries", "qfix_report_cache_entries"},
      {"cache.capacity_bytes", "qfix_report_cache_capacity_bytes"},
      {"queue.inflight", "qfix_inflight_items"},
      {"queue.capacity", "qfix_inflight_capacity"},
      {"registry.datasets", "qfix_registry_datasets"},
      {"registry.bytes", "qfix_registry_bytes"},
      {"registry.capacity_bytes", "qfix_registry_capacity_bytes"},
      {"registry.evictions", "qfix_registry_evictions_total", "kind", "lru"},
      {"registry.ttl_evictions", "qfix_registry_evictions_total", "kind",
       "ttl"},
      {"ingest.appends", "qfix_ingest_appends_total"},
      {"ingest.chunks", "qfix_ingest_chunks"},
      {"ingest.appended_queries", "qfix_ingest_appended_queries_total"},
      {"ingest.prefix_hits", "qfix_encoding_cache_events_total", "event",
       "hit"},
      {"ingest.prefix_misses", "qfix_encoding_cache_events_total", "event",
       "miss"},
      {"ingest.prefix_computes", "qfix_encoding_cache_events_total", "event",
       "compute"},
      {"ingest.encoding_cache_bytes", "qfix_encoding_cache_bytes"},
      {"ingest.encoding_cache_entries", "qfix_encoding_cache_entries"},
      {"ingest.surviving_cache_bytes", "qfix_surviving_cache_bytes"},
      {"pool_workers", "qfix_pool_workers"},
      {"uptime_seconds", "qfix_uptime_seconds"},
      {"metrics_scrapes_total", "qfix_metrics_scrapes_total"},
      {"log_lines_dropped", "qfix_log_lines_dropped_total"},
      {"trace_recorder.recorded", "qfix_trace_recorder_events_total",
       "event", "recorded"},
      {"trace_recorder.retained", "qfix_trace_recorder_events_total",
       "event", "retained"},
      {"trace_recorder.sampled_out", "qfix_trace_recorder_events_total",
       "event", "sampled_out"},
      {"trace_recorder.forced", "qfix_trace_recorder_events_total", "event",
       "forced"},
      {"trace_recorder.evicted", "qfix_trace_recorder_events_total", "event",
       "evicted"},
      {"trace_recorder.buffered", "qfix_trace_buffer_traces"},
      {"trace_recorder.buffered_bytes", "qfix_trace_buffer_bytes"},
      {"stalls.event_loop", "qfix_stalls_total", "kind", "event_loop"},
      {"stalls.solve_deadline", "qfix_stalls_total", "kind",
       "solve_deadline"},
      {"stalls.admission_starvation", "qfix_stalls_total", "kind",
       "admission_starvation"},
      {"tenants.taxes.requests", "qfix_tenant_requests_total", "tenant",
       "taxes"},
      {"tenants.taxes.shed_429", "qfix_tenant_shed_total", "tenant", "taxes"},
      {"tenants.taxes.items", "qfix_tenant_items_total", "tenant", "taxes"},
      {"tenants.taxes.cached_hits", "qfix_tenant_cached_hits_total", "tenant",
       "taxes"},
      {"tenants.taxes.cache_bytes", "qfix_tenant_cache_bytes", "tenant",
       "taxes"},
      {"tenants.taxes.weight", "qfix_tenant_weight", "tenant", "taxes"},
      {"tenants.taxes.share", "qfix_tenant_share", "tenant", "taxes"},
      {"tenants.taxes.inflight", "qfix_tenant_inflight", "tenant", "taxes"},
      {"tenants.taxes.latency.count", "qfix_diagnose_seconds_count",
       "tenant", "taxes"},
  };
  auto at = [&](const std::string& path) -> const JsonValue* {
    const JsonValue* v = &*stats;
    for (size_t begin = 0; v != nullptr;) {
      size_t dot = path.find('.', begin);
      v = v->Find(path.substr(begin, dot - begin));
      if (dot == std::string::npos) break;
      begin = dot + 1;
    }
    return v;
  };
  for (const Pair& pair : kPairs) {
    const JsonValue* shown = at(pair.path);
    ASSERT_NE(shown, nullptr) << pair.path;
    // The exposition prints non-integral values to 10 significant
    // digits (uptime_seconds is the only one here).
    const double expected = series(pair.family, pair.label, pair.value);
    EXPECT_NEAR(shown->AsNumber(), expected,
                1e-9 * std::max(1.0, std::fabs(expected)))
        << pair.path << " vs " << pair.family;
  }
  // requests.total is the sum of the response classes, latency.count
  // that of every tenant's diagnose histogram (the debug sleep observes
  // into tenant "default").
  EXPECT_EQ(at("requests.total")->AsNumber(),
            series("qfix_http_responses_total", "class", "2xx") +
                series("qfix_http_responses_total", "class", "4xx") +
                series("qfix_http_responses_total", "class", "5xx"));
  double diagnose_count = 0.0;
  for (const obs::ParsedSample& sample : exposition->samples) {
    if (sample.name == "qfix_diagnose_seconds_count") {
      diagnose_count += sample.value;
    }
  }
  EXPECT_EQ(at("latency.count")->AsNumber(), diagnose_count);
  EXPECT_EQ(diagnose_count, 3.0);  // cold, hit, sleep

  // And the traffic moved what it should have.
  EXPECT_EQ(at("requests.cached_hits")->AsNumber(), 1.0);
  EXPECT_EQ(at("requests.shed_429")->AsNumber(), 1.0);
  EXPECT_GE(at("requests.errors_4xx")->AsNumber(), 2.0);  // 404 + 429
  EXPECT_EQ(at("ingest.appends")->AsNumber(), 1.0);
  EXPECT_EQ(at("tenants.taxes.shed_429")->AsNumber(), 1.0);
  EXPECT_GE(at("trace_recorder.retained")->AsNumber(), 1.0);
}

// Per-tenant counters split by dataset namespace and list tenants in
// name order.
TEST_F(ServerTest, PerTenantCountersSplitByTenant) {
  ServerOptions options;
  options.jobs = 0;
  options.max_inflight = 1;
  options.enable_test_endpoints = true;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterBody("b/y")).status, 200);
  ASSERT_EQ(Post("/v1/datasets", RegisterBody("a/x")).status, 200);
  // Tenant a: a cold solve, then a cache hit.
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseBody("a/x", kTaxComplaintsCsv))
                .status,
            200);
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseBody("a/x", kTaxComplaintsCsv))
                .status,
            200);
  // Tenant b: a cold solve, then a shed while tenant c sleeps in the
  // only admission slot.
  ASSERT_EQ(Post("/v1/diagnose", DiagnoseBody("b/y", kTaxComplaintsCsv))
                .status,
            200);
  std::thread sleeper([this] {
    auto r = service::HttpPost("127.0.0.1", port_, "/v1/debug/sleep",
                               "{\"seconds\": 3.0, \"tenant\": \"c\"}", 30.0);
    EXPECT_TRUE(r.ok() && r->status == 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  EXPECT_EQ(Post("/v1/diagnose",
                 DiagnoseBody("b/y", "tid,alive,income,owed,pay\n"
                                     "3,1,86500,21625,64875\n"))
                .status,
            429);
  sleeper.join();

  JsonValue stats = Stats();
  const JsonValue* tenants = stats.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  std::vector<std::string> names;
  for (const auto& [name, block] : tenants->AsObject()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  auto count = [&](const char* tenant, const char* key) {
    return Stat(*tenants, tenant, key).AsNumber();
  };
  EXPECT_EQ(count("a", "requests"), 2.0);
  EXPECT_EQ(count("a", "items"), 1.0);
  EXPECT_EQ(count("a", "cached_hits"), 1.0);
  EXPECT_EQ(count("a", "shed_429"), 0.0);
  EXPECT_EQ(count("b", "requests"), 2.0);
  EXPECT_EQ(count("b", "items"), 1.0);
  EXPECT_EQ(count("b", "cached_hits"), 0.0);
  EXPECT_EQ(count("b", "shed_429"), 1.0);
  EXPECT_EQ(count("c", "requests"), 1.0);
  EXPECT_EQ(count("c", "shed_429"), 0.0);
}

// An errored request keeps the real duration of the phase it failed in:
// the parse span of a 404 closes when the handler returns instead of
// staying zero-length.
TEST_F(ServerTest, ErrorTraceKeepsItsParseSpanDuration) {
  StartServer(ServerOptions{});
  std::string csv = "tid,alive,income,owed,pay\n";
  for (int i = 0; i < 20000; ++i) csv += "2,1,86000,21500,64500\n";
  auto response = service::HttpPost(
      "127.0.0.1", port_, "/v1/diagnose", DiagnoseBody("missing", csv),
      60.0, {{"X-Request-Id", "probe-404"}});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 404) << response->body;

  auto traces = Get("/v1/debug/traces?outcome=error");
  ASSERT_EQ(traces.status, 200) << traces.body;
  auto doc = ParseJson(traces.body);
  ASSERT_TRUE(doc.ok()) << traces.body;
  const JsonValue* mine = nullptr;
  for (const JsonValue& t : doc->Find("traces")->AsArray()) {
    if (t.Find("request_id")->AsString() == "probe-404") mine = &t;
  }
  ASSERT_NE(mine, nullptr) << traces.body;
  const double duration_ms = mine->Find("duration_ms")->AsNumber();
  const auto& spans = mine->Find("spans")->AsArray();
  ASSERT_EQ(spans.size(), 1u) << traces.body;
  EXPECT_EQ(spans[0].Find("phase")->AsString(), "parse");
  const double parse_ms = spans[0].Find("ms")->AsNumber();
  EXPECT_GT(parse_ms, 0.0);
  EXPECT_LE(parse_ms, duration_ms);
}

TEST_F(ServerTest, SlowRequestLogFiresAboveThresholdOnly) {
  std::vector<std::string> lines;
  std::mutex lines_mu;
  SetLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  });

  // Threshold far above any loopback diagnosis: nothing logged.
  ServerOptions quiet;
  quiet.slow_request_ms = 1e9;
  StartServer(quiet);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  auto fast = Post("/v1/diagnose", DiagnoseTaxesBody());
  ASSERT_EQ(fast.status, 200);
  {
    std::lock_guard<std::mutex> lock(lines_mu);
    for (const std::string& line : lines) {
      EXPECT_EQ(line.find("slow_request"), std::string::npos) << line;
    }
  }
  server_->Stop();

  // Threshold below any diagnosis: the warn line fires and carries the
  // request id the client saw.
  ServerOptions noisy;
  noisy.slow_request_ms = 1e-6;
  StartServer(noisy);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  auto slow = service::HttpPost("127.0.0.1", port_, "/v1/diagnose",
                                DiagnoseTaxesBody(), 30.0,
                                {{"X-Request-Id", "slow-probe-1"}});
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->status, 200);
  {
    std::lock_guard<std::mutex> lock(lines_mu);
    bool found = false;
    for (const std::string& line : lines) {
      if (line.find("slow_request") == std::string::npos) continue;
      found = true;
      EXPECT_NE(line.find("slow-probe-1"), std::string::npos) << line;
      EXPECT_NE(line.find("WARN"), std::string::npos) << line;
      EXPECT_NE(line.find("solve_ms"), std::string::npos) << line;
    }
    EXPECT_TRUE(found);
  }
  SetLogSink(nullptr);
}

std::string RegisterSlowTaxesBody(const std::string& name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String(name);
  w.Key("table");
  w.String("Taxes");
  w.Key("d0_csv");
  w.String(kTaxD0Csv);
  w.Key("log_sql");
  w.String(test::SlowTaxLogSql());
  w.EndObject();
  return w.str();
}

std::string DiagnoseSlowTaxesBody(const std::string& name) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(name);
  w.Key("basic");
  w.Bool(true);
  w.Key("time_limit_seconds");
  w.Double(20.0);
  w.Key("complaints_csv");
  w.String("tid,alive,income,owed,pay\n2,1,86000,21500,50000\n");
  w.EndObject();
  return w.str();
}

TEST_F(ServerTest, SlowRequestRetainedInDebugTracesWithSolverSpans) {
  ServerOptions options;
  options.slow_request_ms = 10.0;
  // Tail sampling at probability zero: only the slow classification
  // (or a watchdog pin) can retain anything.
  options.trace_sample_probability = 0.0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterSlowTaxesBody("slowtax")).status,
            200);

  auto slow = service::HttpPost("127.0.0.1", port_, "/v1/diagnose",
                                DiagnoseSlowTaxesBody("slowtax"), 60.0,
                                {{"X-Request-Id", "it-slow-1"}});
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(slow->status, 200) << slow->body;

  auto traces = Get("/v1/debug/traces?outcome=slow");
  ASSERT_EQ(traces.status, 200) << traces.body;
  auto doc = ParseJson(traces.body);
  ASSERT_TRUE(doc.ok()) << traces.body;
  const JsonValue* list = doc->Find("traces");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());

  const JsonValue* mine = nullptr;
  for (const JsonValue& t : list->AsArray()) {
    const JsonValue* id = t.Find("request_id");
    if (id != nullptr && id->is_string() && id->AsString() == "it-slow-1") {
      mine = &t;
      break;
    }
  }
  ASSERT_NE(mine, nullptr)
      << "slow request not retained in /v1/debug/traces: " << traces.body;
  EXPECT_EQ(mine->Find("outcome")->AsString(), "slow");
  EXPECT_EQ(mine->Find("retain_reason")->AsString(), "slow");
  EXPECT_EQ(mine->Find("dataset")->AsString(), "slowtax");
  EXPECT_GE(mine->Find("duration_ms")->AsNumber(), 10.0);

  // The retained trace crosses the solver boundary: at least one
  // solver-internal child span, nested under a top-level phase.
  const JsonValue* spans = mine->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  size_t solver_children = 0;
  std::set<std::string> phases;
  for (const JsonValue& span : spans->AsArray()) {
    const std::string phase = span.Find("phase")->AsString();
    phases.insert(phase);
    if (phase == "presolve" || phase == "root_lp" || phase == "node_batch" ||
        phase == "incumbent_update") {
      ++solver_children;
      const JsonValue* parent = span.Find("parent");
      ASSERT_NE(parent, nullptr) << "solver span '" << phase
                                 << "' has no parent";
      EXPECT_GE(parent->AsNumber(), 0.0);
    }
  }
  EXPECT_GE(solver_children, 1u) << traces.body;
  for (const char* top : {"parse", "encode", "solve", "render"}) {
    EXPECT_TRUE(phases.count(top)) << "missing top-level phase " << top;
  }

  // Filters: an impossible duration floor excludes it.
  auto none = Get("/v1/debug/traces?min_duration_ms=1000000000");
  ASSERT_EQ(none.status, 200);
  EXPECT_EQ(none.body.find("it-slow-1"), std::string::npos);

  // The slow diagnosis is the worst-recent in its latency bucket, so
  // the histogram exemplar carries its request id.
  auto metrics = Get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("trace_id=\"it-slow-1\""), std::string::npos);
  EXPECT_TRUE(obs::LintExposition(metrics.body).ok());
}

TEST_F(ServerTest, WatchdogFlagsOverdueSolveAndForceRetainsTrace) {
  std::vector<std::string> lines;
  std::mutex lines_mu;
  SetLogSink([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(lines_mu);
    lines.push_back(line);
  });

  ServerOptions options;
  // Retention can only come from the watchdog's pin: sampling is off
  // and the slow classification is disabled.
  options.trace_sample_probability = 0.0;
  options.slow_request_ms = 0.0;
  options.solve_deadline_warn_ms = 10.0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterSlowTaxesBody("stalltax")).status,
            200);

  auto slow = service::HttpPost("127.0.0.1", port_, "/v1/diagnose",
                                DiagnoseSlowTaxesBody("stalltax"), 60.0,
                                {{"X-Request-Id", "it-stall-1"}});
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(slow->status, 200) << slow->body;

  // The watchdog flagged the solve while it was still running.
  {
    std::lock_guard<std::mutex> lock(lines_mu);
    bool found = false;
    for (const std::string& line : lines) {
      if (line.find("stall") == std::string::npos ||
          line.find("solve_deadline") == std::string::npos) {
        continue;
      }
      found = true;
      EXPECT_NE(line.find("it-stall-1"), std::string::npos) << line;
      EXPECT_NE(line.find("WARN"), std::string::npos) << line;
    }
    EXPECT_TRUE(found) << "no solve_deadline stall WARN logged";
  }

  // ... counted it ...
  auto metrics = Get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  auto parsed = obs::ParseExposition(metrics.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  double stalls = -1.0;
  for (const auto& sample : parsed->samples) {
    if (sample.name != "qfix_stalls_total") continue;
    const std::string* kind = sample.FindLabel("kind");
    if (kind != nullptr && *kind == "solve_deadline") stalls = sample.value;
  }
  EXPECT_GE(stalls, 1.0);

  // ... and pinned the offending trace despite sampling being off.
  auto traces = Get("/v1/debug/traces");
  ASSERT_EQ(traces.status, 200);
  auto doc = ParseJson(traces.body);
  ASSERT_TRUE(doc.ok()) << traces.body;
  const JsonValue* list = doc->Find("traces");
  ASSERT_NE(list, nullptr);
  bool retained = false;
  for (const JsonValue& t : list->AsArray()) {
    const JsonValue* id = t.Find("request_id");
    if (id == nullptr || !id->is_string() || id->AsString() != "it-stall-1") {
      continue;
    }
    retained = true;
    EXPECT_TRUE(t.Find("forced")->AsBool());
    EXPECT_EQ(t.Find("retain_reason")->AsString(), "stall:solve_deadline");
  }
  EXPECT_TRUE(retained) << "stalled request's trace not force-retained: "
                        << traces.body;
  SetLogSink(nullptr);
}

TEST_F(ServerTest, HealthzCarriesBuildInfo) {
  StartServer(ServerOptions{});
  auto health = Get("/v1/healthz");
  ASSERT_EQ(health.status, 200);
  auto doc = ParseJson(health.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* build = doc->Find("build");
  ASSERT_NE(build, nullptr) << health.body;
  for (const char* key : {"version", "compiler", "build_type", "sanitize"}) {
    const JsonValue* field = build->Find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_FALSE(field->AsString().empty()) << key;
  }
}

}  // namespace
}  // namespace qfix
