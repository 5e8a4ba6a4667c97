// Load-generation stack: LatencyHistogram quantization/merge
// guarantees, TenantGovernor weighted fair-share admission (fake
// clock), and harness::RunLoad driven end to end against a live
// DiagnosisServer — closed-loop steady state sustains the target
// concurrency, open-loop overload sheds 429s per tenant (a greedy
// tenant cannot starve a light one), and /v1/stats keeps per-tenant
// latency recorders split so one tenant's slow solves never skew
// another's p99. Runs in the TSan CI lane: the governor and the
// per-worker histogram/merge pattern must be race-free.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "harness/histogram.h"
#include "harness/loadgen.h"
#include "service/client.h"
#include "service/json_value.h"
#include "service/server.h"
#include "service/tenant.h"

namespace qfix {
namespace {

using harness::LatencyHistogram;
using harness::LoadOptions;
using harness::LoadRequestTemplate;
using harness::LoadResult;
using harness::LoadTenantSpec;
using harness::RunLoad;
using service::DiagnosisServer;
using service::ParseJson;
using service::ServerOptions;
using service::TenantGovernor;
using service::TenantOf;

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(LatencyHistogramTest, LinearRegionIsExact) {
  // The first 64 buckets are one-per-microsecond: percentiles of small
  // values quantize to exactly the recorded microsecond.
  LatencyHistogram h;
  for (int us = 1; us <= 50; ++us) {
    h.Record(us * 1e-6);
  }
  EXPECT_EQ(h.count(), 50u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 50e-6);
  EXPECT_NEAR(h.Percentile(0.50), 25e-6, 1e-6);
  EXPECT_NEAR(h.Percentile(0.90), 45e-6, 1e-6);
  EXPECT_NEAR(h.Percentile(1.00), 50e-6, 1e-9);  // clamped to exact max
}

TEST(LatencyHistogramTest, RelativeErrorIsBounded) {
  // Each power-of-two group splits into 32 sub-buckets, so a reported
  // percentile overshoots the true value by at most ~1/32 plus the
  // 1us quantization. Check across four decades.
  for (double value : {130e-6, 1.7e-3, 23e-3, 0.9, 7.5}) {
    LatencyHistogram h;
    h.Record(value);
    const double p = h.Percentile(0.5);
    EXPECT_GE(p, value - 1e-6) << value;
    EXPECT_LE(p, value * (1.0 + 1.0 / 32) + 2e-6) << value;
  }
}

TEST(LatencyHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(1e-4 + i * 1e-5);  // 0.1ms .. ~10ms
  }
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double p = h.Percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
  EXPECT_NEAR(h.Percentile(0.999), 10.1e-3, 0.5e-3);
}

TEST(LatencyHistogramTest, MergeMatchesSingleRecorder) {
  // The harness records per worker thread and merges at the end; the
  // merged histogram must be indistinguishable from one recorder
  // having seen every sample.
  LatencyHistogram a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double v = 1e-5 + (i % 97) * 3e-4;
    (i % 2 == 0 ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), all.Percentile(q)) << q;
  }
}

TEST(LatencyHistogramTest, NegativeSamplesClampToZero) {
  LatencyHistogram h;
  h.Record(-1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
}

// ---------------------------------------------------------------------------
// TenantOf

TEST(TenantOfTest, SplitsNamespacePrefix) {
  EXPECT_EQ(TenantOf("acme/taxes"), "acme");
  EXPECT_EQ(TenantOf("acme/sub/x"), "acme");
  EXPECT_EQ(TenantOf("taxes"), "taxes");
  EXPECT_EQ(TenantOf(""), "");
}

// ---------------------------------------------------------------------------
// TenantGovernor (fake clock: reservations expire deterministically)

double g_fake_now = 0.0;
double FakeNow() { return g_fake_now; }

TenantGovernor::Options GovOptions(int capacity, double window = 5.0) {
  TenantGovernor::Options o;
  o.capacity = capacity;
  o.activity_window_seconds = window;
  return o;
}

TEST(TenantGovernorTest, SingleTenantDegeneratesToGlobalGate) {
  TenantGovernor gov(GovOptions(4));
  TenantGovernor::Ticket t1, t2, t3;
  // One contending tenant owns the whole capacity.
  EXPECT_TRUE(gov.TryAcquire({{"a", 4}}, &t1));
  EXPECT_EQ(gov.inflight(), 4);
  EXPECT_FALSE(gov.TryAcquire({{"a", 1}}, &t2));
  t1.Release();
  EXPECT_EQ(gov.inflight(), 0);
  EXPECT_TRUE(gov.TryAcquire({{"a", 1}}, &t3));
  EXPECT_EQ(gov.inflight(), 1);
}

TEST(TenantGovernorTest, OversizedBatchIsCappedNotStarved) {
  // A batch bigger than the whole gate must still be admittable on an
  // idle gate (capped at capacity), exactly like the old global gate —
  // otherwise it would shed forever.
  TenantGovernor gov(GovOptions(2));
  TenantGovernor::Ticket t;
  EXPECT_TRUE(gov.TryAcquire({{"a", 5}}, &t));
  EXPECT_EQ(gov.inflight(), 2);
}

TEST(TenantGovernorTest, TicketMoveTransfersOwnership) {
  TenantGovernor gov(GovOptions(2));
  TenantGovernor::Ticket a;
  ASSERT_TRUE(gov.TryAcquire({{"x", 2}}, &a));
  TenantGovernor::Ticket b = std::move(a);
  EXPECT_FALSE(a.held());
  EXPECT_TRUE(b.held());
  EXPECT_EQ(gov.inflight(), 2);
  b.Release();
  EXPECT_EQ(gov.inflight(), 0);
}

TEST(TenantGovernorTest, ShedTenantKeepsItsReservation) {
  g_fake_now = 0.0;
  TenantGovernor gov(GovOptions(4));
  gov.SetClockForTest(&FakeNow);

  // Greedy fills the gate; light is shed (no global room) and thereby
  // stamps its reservation.
  TenantGovernor::Ticket greedy, light, retry;
  ASSERT_TRUE(gov.TryAcquire({{"greedy", 4}}, &greedy));
  EXPECT_FALSE(gov.TryAcquire({{"light", 1}}, &light));
  greedy.Release();

  // Light is now a contender (shed within the window) even with zero
  // inflight: each tenant's guaranteed share is 2, so greedy may not
  // re-grab the whole gate...
  EXPECT_FALSE(gov.TryAcquire({{"greedy", 4}}, &greedy));
  // ...but may take up to light's reserved share's complement, and
  // light's retry is admitted into its reservation.
  ASSERT_TRUE(gov.TryAcquire({{"greedy", 2}}, &greedy));
  ASSERT_TRUE(gov.TryAcquire({{"light", 1}}, &retry));
  EXPECT_EQ(gov.inflight(), 3);
}

TEST(TenantGovernorTest, ReservationExpiresAfterWindow) {
  g_fake_now = 0.0;
  TenantGovernor gov(GovOptions(4, /*window=*/5.0));
  gov.SetClockForTest(&FakeNow);

  TenantGovernor::Ticket greedy, light;
  ASSERT_TRUE(gov.TryAcquire({{"greedy", 4}}, &greedy));
  EXPECT_FALSE(gov.TryAcquire({{"light", 1}}, &light));
  greedy.Release();

  // Past the activity window the shed tenant stops reserving; the
  // gate is work-conserving again.
  g_fake_now = 6.0;
  EXPECT_TRUE(gov.TryAcquire({{"greedy", 4}}, &greedy));
}

TEST(TenantGovernorTest, CompletedTenantReservesNothing) {
  g_fake_now = 0.0;
  TenantGovernor gov(GovOptions(4));
  gov.SetClockForTest(&FakeNow);

  // A tenant that ran and finished (never shed) holds no reservation:
  // another tenant may immediately borrow the whole gate.
  TenantGovernor::Ticket a, b;
  ASSERT_TRUE(gov.TryAcquire({{"a", 2}}, &a));
  a.Release();
  EXPECT_TRUE(gov.TryAcquire({{"b", 4}}, &b));
}

TEST(TenantGovernorTest, WeightsSkewGuaranteedShares) {
  g_fake_now = 0.0;
  TenantGovernor gov(GovOptions(8));
  gov.SetClockForTest(&FakeNow);
  gov.SetWeight("heavy", 3);  // shares with light: 6 vs 2

  TenantGovernor::Ticket heavy, light;
  ASSERT_TRUE(gov.TryAcquire({{"heavy", 2}}, &heavy));
  // Light asking for 6 would borrow past its share of 2 while heavy
  // (inflight) could no longer reach its share of 6: shed.
  EXPECT_FALSE(gov.TryAcquire({{"light", 6}}, &light));
  // Within its share, light is admitted.
  EXPECT_TRUE(gov.TryAcquire({{"light", 2}}, &light));
  EXPECT_EQ(gov.inflight(), 4);
}

// ---------------------------------------------------------------------------
// RunLoad against a live server

std::string SleepBody(double seconds, const std::string& tenant) {
  JsonWriter w;
  w.BeginObject();
  w.Key("seconds");
  w.Double(seconds);
  w.Key("tenant");
  w.String(tenant);
  w.EndObject();
  return w.str();
}

LoadTenantSpec SleepTenant(const std::string& name, int weight,
                           double seconds) {
  LoadTenantSpec t;
  t.name = name;
  t.weight = weight;
  LoadRequestTemplate r;
  r.path = "/v1/debug/sleep";
  r.body = SleepBody(seconds, name);
  t.requests.push_back(std::move(r));
  return t;
}

class LoadGenTest : public testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.enable_test_endpoints = true;
    server_ = std::make_unique<DiagnosisServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }

  std::unique_ptr<DiagnosisServer> server_;
  int port_ = 0;
};

TEST_F(LoadGenTest, ClosedLoopSustainsTargetConcurrency) {
  ServerOptions so;
  so.jobs = 4;
  StartServer(so);

  // 4 workers x 20ms service time for ~1.2s: a healthy closed loop
  // completes ~240 requests. Require enough that fewer than three
  // effective workers would fail, and no more than the loop could
  // physically issue.
  LoadOptions lo;
  lo.host = "127.0.0.1";
  lo.port = port_;
  lo.mode = LoadOptions::Mode::kClosed;
  lo.duration_seconds = 1.2;
  lo.concurrency = 4;
  lo.tenants.push_back(SleepTenant("t1", 1, 0.020));

  LoadResult r = RunLoad(lo);
  EXPECT_GE(r.attempted, 140u) << "closed loop under-drove the server";
  EXPECT_LE(r.attempted, 400u);
  EXPECT_EQ(r.classes.ok_2xx, r.attempted);
  EXPECT_EQ(r.classes.shed_429, 0u);
  EXPECT_EQ(r.classes.transport, 0u);
  EXPECT_EQ(r.latency.count(), r.classes.ok_2xx);
  // Per-request latency is at least the service time.
  EXPECT_GE(r.latency.Percentile(0.5), 0.018);
  ASSERT_EQ(r.tenants.size(), 1u);
  EXPECT_EQ(r.tenants[0].name, "t1");
  EXPECT_EQ(r.tenants[0].attempted, r.attempted);
  EXPECT_GT(r.achieved_rps, 0.0);
}

TEST_F(LoadGenTest, OpenLoopOverloadShedsGreedyNotLight) {
  // The satellite acceptance: a 9:1 greedy:light open-loop mix into a
  // 4-slot gate. Demand is ~11 slots, so the server must shed — but
  // the light tenant's demand (~1.2 slots) fits under its guaranteed
  // share of 2, so shedding lands on the greedy tenant and the light
  // tenant keeps (well over) 25% of its fair-share throughput.
  ServerOptions so;
  so.jobs = 8;
  so.max_inflight = 4;
  StartServer(so);

  LoadOptions lo;
  lo.host = "127.0.0.1";
  lo.port = port_;
  lo.mode = LoadOptions::Mode::kOpen;
  lo.duration_seconds = 2.0;
  lo.concurrency = 16;
  lo.rate_per_second = 400;
  lo.tenants.push_back(SleepTenant("greedy", 9, 0.030));
  lo.tenants.push_back(SleepTenant("light", 1, 0.030));

  LoadResult r = RunLoad(lo);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].name, "greedy");
  EXPECT_EQ(r.tenants[1].name, "light");
  const auto& greedy = r.tenants[0];
  const auto& light = r.tenants[1];

  // Overload reached the gate and was shed with 429s, nothing else.
  EXPECT_GT(greedy.classes.shed_429, 0u);
  EXPECT_EQ(r.classes.err_4xx, 0u);
  EXPECT_EQ(r.classes.err_5xx, 0u);
  EXPECT_EQ(r.classes.transport, 0u);

  // The greedy tenant saw far more offered load...
  EXPECT_GT(greedy.attempted, light.attempted * 4);
  // ...but could not starve the light tenant: the light tenant's
  // reserved share (2 slots / 30ms = ~66 rps) exceeds its offered
  // ~40 rps, so most light requests are admitted. 25% of its
  // fair-share throughput over the run is the acceptance floor.
  const double fair_floor = 0.25 * light.attempted;
  EXPECT_GE(light.classes.ok_2xx, static_cast<uint64_t>(fair_floor))
      << "light tenant starved: " << light.classes.ok_2xx << " ok of "
      << light.attempted << " attempted";
  // And the gate was genuinely saturated: greedy completed no more
  // than its achievable slice (4 slots / 30ms = ~133 rps * 2s = ~266,
  // with slack for scheduling).
  EXPECT_LT(greedy.classes.ok_2xx, 320u);
}

TEST_F(LoadGenTest, PerTenantStatsKeepLatencySplit) {
  // Regression for the aggregated-recorder bug: /v1/stats used to fold
  // every tenant's solve latency into one recorder, so a slow tenant
  // dragged every tenant's percentiles. The per-tenant latency series
  // must keep a fast tenant's p99 far below a slow tenant's p50.
  StartServer(ServerOptions{});

  service::ClientConnection conn("127.0.0.1", port_);
  for (int i = 0; i < 12; ++i) {
    auto r = conn.Post("/v1/debug/sleep", SleepBody(0.002, "fast"), 30.0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200);
  }
  for (int i = 0; i < 4; ++i) {
    auto r = conn.Post("/v1/debug/sleep", SleepBody(0.080, "slow"), 30.0);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200);
  }

  auto stats = service::HttpGet("127.0.0.1", port_, "/v1/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->status, 200);
  auto doc = ParseJson(stats->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const service::JsonValue* tenants = doc->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  const service::JsonValue* fast = tenants->Find("fast");
  const service::JsonValue* slow = tenants->Find("slow");
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);

  const double fast_p99 =
      fast->Find("latency")->Find("p99_ms")->AsNumber();
  const double slow_p50 =
      slow->Find("latency")->Find("p50_ms")->AsNumber();
  EXPECT_GE(slow_p50, 75.0);
  EXPECT_LT(fast_p99, 40.0);
  EXPECT_LT(fast_p99, slow_p50);
  EXPECT_DOUBLE_EQ(fast->Find("requests")->AsNumber(), 12.0);
  EXPECT_DOUBLE_EQ(slow->Find("requests")->AsNumber(), 4.0);
}

TEST_F(LoadGenTest, JsonOutputRoundTrips) {
  StartServer(ServerOptions{});

  LoadOptions lo;
  lo.host = "127.0.0.1";
  lo.port = port_;
  lo.mode = LoadOptions::Mode::kClosed;
  lo.duration_seconds = 0.3;
  lo.concurrency = 2;
  lo.tenants.push_back(SleepTenant("acme", 1, 0.001));

  LoadResult r = RunLoad(lo);
  auto doc = ParseJson(harness::LoadResultToJson(r));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("mode")->AsString(), "closed");
  EXPECT_DOUBLE_EQ(doc->Find("attempted")->AsNumber(),
                   static_cast<double>(r.attempted));
  const service::JsonValue* classes = doc->Find("classes");
  ASSERT_NE(classes, nullptr);
  EXPECT_DOUBLE_EQ(classes->Find("ok_2xx")->AsNumber(),
                   static_cast<double>(r.classes.ok_2xx));
  const service::JsonValue* latency = doc->Find("latency_ms");
  ASSERT_NE(latency, nullptr);
  for (const char* key : {"count", "mean", "p50", "p90", "p99", "p999",
                          "max"}) {
    EXPECT_NE(latency->Find(key), nullptr) << key;
  }
  const service::JsonValue* acme =
      doc->Find("tenants") ? doc->Find("tenants")->Find("acme") : nullptr;
  ASSERT_NE(acme, nullptr);
  EXPECT_NE(acme->Find("latency_ms")->Find("p99"), nullptr);
}

TEST(LoadGenUnitTest, ConnectionFailuresClassifyAsTransport) {
  // Reserve an ephemeral port, then close it: connects are refused.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(fd);

  LoadOptions lo;
  lo.host = "127.0.0.1";
  lo.port = dead_port;
  lo.mode = LoadOptions::Mode::kClosed;
  lo.duration_seconds = 0.2;
  lo.concurrency = 2;
  lo.request_timeout_seconds = 1.0;
  lo.tenants.push_back(SleepTenant("t", 1, 0.001));

  LoadResult r = RunLoad(lo);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.classes.ok_2xx, 0u);
  EXPECT_EQ(r.classes.transport, r.attempted);
  EXPECT_EQ(r.latency.count(), 0u);  // failed sends record no latency
}

}  // namespace
}  // namespace qfix
