// Tests for the observability layer: obs::MetricsRegistry (instruments,
// Prometheus exposition, the in-repo parser/linter the CI smoke and
// qfix_load reuse), obs::TraceContext (span bracketing, request ids),
// and the structured logger in common/logging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "harness/histogram.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace qfix {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Instruments

TEST(MetricsTest, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);

  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  Histogram h({0.1, 1.0, 10.0});
  h.Observe(0.05);   // bucket 0
  h.Observe(0.1);    // le=0.1 is inclusive: bucket 0
  h.Observe(0.5);    // bucket 1
  h.Observe(100.0);  // +Inf bucket
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 0u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
  EXPECT_DOUBLE_EQ(h.Sum(), 0.05 + 0.1 + 0.5 + 100.0);
}

TEST(MetricsTest, DefaultLatencyEdgesMatchHarnessHistogramLayout) {
  std::vector<double> edges = DefaultLatencyBucketEdges();
  ASSERT_FALSE(edges.empty());
  // Strictly ascending (a Histogram constructor invariant, but assert
  // it here so a bad derivation fails with a readable message).
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]) << "edge " << i;
  }
  // Every edge must be an exact harness::LatencyHistogram bucket upper
  // edge: recording an edge-valued latency into both histograms lands
  // in buckets with identical upper bounds.
  using harness::LatencyHistogram;
  std::set<uint64_t> harness_edges_us;
  const size_t total =
      LatencyHistogram::kLinearBuckets +
      LatencyHistogram::kGroups * LatencyHistogram::kSubBuckets;
  for (size_t i = 0; i < total; ++i) {
    harness_edges_us.insert(LatencyHistogram::UpperEdgeUs(i));
  }
  for (double edge : edges) {
    uint64_t us = static_cast<uint64_t>(std::llround(edge * 1e6));
    EXPECT_TRUE(harness_edges_us.count(us))
        << edge << "s is not a harness bucket edge";
  }
}

// ---------------------------------------------------------------------------
// Registry + exposition round-trip

TEST(MetricsTest, RenderParsesBackWithTypesHelpAndValues) {
  MetricsRegistry registry;
  CounterFamily* requests =
      registry.AddCounter("test_requests_total", "Requests served.",
                          {"endpoint"});
  requests->WithLabels({"diagnose"})->Inc(3);
  requests->WithLabels({"healthz"})->Inc(1);
  GaugeFamily* inflight = registry.AddGauge("test_inflight", "In flight.");
  inflight->Get()->Set(2.0);

  auto parsed = ParseExposition(registry.RenderPrometheus());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->types.at("test_requests_total"), "counter");
  EXPECT_EQ(parsed->types.at("test_inflight"), "gauge");
  EXPECT_EQ(parsed->help.at("test_requests_total"), "Requests served.");

  double diagnose = -1, healthz = -1, gauge = -1;
  for (const auto& sample : parsed->samples) {
    if (sample.name == "test_requests_total") {
      const std::string* endpoint = sample.FindLabel("endpoint");
      ASSERT_NE(endpoint, nullptr);
      (*endpoint == "diagnose" ? diagnose : healthz) = sample.value;
    } else if (sample.name == "test_inflight") {
      gauge = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(diagnose, 3.0);
  EXPECT_DOUBLE_EQ(healthz, 1.0);
  EXPECT_DOUBLE_EQ(gauge, 2.0);
}

TEST(MetricsTest, LabelValueEscapingRoundTrips) {
  MetricsRegistry registry;
  CounterFamily* family =
      registry.AddCounter("test_escapes_total", "Help with \\ and \n inside.",
                          {"tenant"});
  const std::string nasty = "a\"b\\c\nd";
  family->WithLabels({nasty})->Inc();

  std::string text = registry.RenderPrometheus();
  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->help.at("test_escapes_total"),
            "Help with \\ and \n inside.");
  ASSERT_EQ(parsed->samples.size(), 1u);
  const std::string* tenant = parsed->samples[0].FindLabel("tenant");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(*tenant, nasty);
  EXPECT_TRUE(LintExposition(text).ok());
}

TEST(MetricsTest, HistogramExpositionIsCumulativeAndLintsClean) {
  MetricsRegistry registry;
  HistogramFamily* family = registry.AddHistogram(
      "test_latency_seconds", "Latency.", {0.1, 1.0}, {"phase"});
  Histogram* h = family->WithLabels({"solve"});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);

  std::string text = registry.RenderPrometheus();
  ASSERT_TRUE(LintExposition(text).ok()) << LintExposition(text).ToString();

  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok());
  double le_01 = -1, le_1 = -1, le_inf = -1, sum = -1, count = -1;
  for (const auto& sample : parsed->samples) {
    if (sample.name == "test_latency_seconds_bucket") {
      const std::string* le = sample.FindLabel("le");
      ASSERT_NE(le, nullptr);
      if (*le == "0.1") le_01 = sample.value;
      if (*le == "1") le_1 = sample.value;
      if (*le == "+Inf") le_inf = sample.value;
    } else if (sample.name == "test_latency_seconds_sum") {
      sum = sample.value;
    } else if (sample.name == "test_latency_seconds_count") {
      count = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(le_01, 1.0);   // cumulative
  EXPECT_DOUBLE_EQ(le_1, 2.0);
  EXPECT_DOUBLE_EQ(le_inf, 3.0);
  EXPECT_DOUBLE_EQ(count, 3.0);
  EXPECT_NEAR(sum, 5.55, 1e-9);
}

TEST(MetricsTest, WithLabelsReturnsStablePointer) {
  MetricsRegistry registry;
  CounterFamily* family =
      registry.AddCounter("test_stable_total", "Stable.", {"k"});
  Counter* first = family->WithLabels({"v"});
  first->Inc();
  // Creating more series must not move existing instruments.
  for (int i = 0; i < 100; ++i) {
    family->WithLabels({"other" + std::to_string(i)})->Inc();
  }
  EXPECT_EQ(family->WithLabels({"v"}), first);
  EXPECT_EQ(first->Value(), 1u);
}

TEST(MetricsTest, CallbackFamilySampledAtScrapeTime) {
  MetricsRegistry registry;
  std::atomic<int> source{7};
  registry.AddCallback(
      "test_callback_total", "Callback.", MetricsRegistry::Kind::kCounter,
      {"kind"}, [&source](std::vector<MetricsRegistry::Sample>* out) {
        out->push_back({{"a"}, static_cast<double>(source.load())});
      });

  auto first = ParseExposition(registry.RenderPrometheus());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->samples.size(), 1u);
  EXPECT_DOUBLE_EQ(first->samples[0].value, 7.0);

  source = 9;  // a later scrape sees the new value: nothing is cached
  auto second = ParseExposition(registry.RenderPrometheus());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->samples[0].value, 9.0);
}

TEST(MetricsTest, SnapshotValueSumsSeriesMatchingLeadingLabels) {
  MetricsRegistry registry;
  CounterFamily* requests =
      registry.AddCounter("test_requests_total", "Requests.", {"tenant"});
  requests->WithLabels({"a"})->Inc(2);
  requests->WithLabels({"b"})->Inc(3);
  registry.AddGauge("test_level", "Level.")->Get()->Set(1.5);
  HistogramFamily* latency = registry.AddHistogram(
      "test_seconds", "Latency.", {0.1, 1.0}, {"tenant"});
  latency->WithLabels({"a"})->Observe(0.05);
  latency->WithLabels({"b"})->Observe(0.5);
  latency->WithLabels({"b"})->Observe(5.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Sum("test_requests_total", {"a"}).value, 2.0);
  EXPECT_EQ(snapshot.Sum("test_requests_total", {"b"}).value, 3.0);
  EXPECT_EQ(snapshot.Sum("test_requests_total").value, 5.0);  // every tenant
  EXPECT_EQ(snapshot.Sum("test_requests_total", {"c"}).value, 0.0);
  EXPECT_EQ(snapshot.Sum("test_level").value, 1.5);
  EXPECT_EQ(snapshot.Sum("no_such_family").value, 0.0);
  EXPECT_EQ(snapshot.Sum("test_seconds", {"b"}).buckets,
            (std::vector<uint64_t>{0, 1, 1}));
  EXPECT_EQ(snapshot.Sum("test_seconds").buckets,
            (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_TRUE(snapshot.Sum("no_such_family").buckets.empty());
  ASSERT_NE(snapshot.Find("test_seconds"), nullptr);
  EXPECT_EQ(snapshot.Find("test_seconds")->kind,
            MetricsRegistry::Kind::kHistogram);
  // /metrics is a rendering of the same snapshot.
  EXPECT_EQ(snapshot.RenderPrometheus(), registry.RenderPrometheus());
}

// Hand-computed Prometheus histogram_quantile() values over edges
// {1, 2, 4} (+Inf): the bucket holding rank q * count, interpolated
// linearly from its lower edge (0 for the first bucket).
TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  const std::vector<double> edges = {1, 2, 4};
  const std::vector<uint64_t> buckets = {0, 0, 0, 0};
  EXPECT_EQ(HistogramQuantile(0.5, edges, buckets), 0.0);
  EXPECT_EQ(HistogramQuantile(0.99, edges, buckets), 0.0);
  EXPECT_EQ(HistogramQuantile(1.0, edges, buckets), 0.0);
}

TEST(HistogramQuantileTest, OneBucketInterpolatesAcrossIt) {
  const std::vector<double> edges = {1, 2, 4};
  // Ten observations in (0, 1]: rank q * 10 sits q of the way up.
  const std::vector<uint64_t> first = {10, 0, 0, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.5, edges, first), 0.5);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.9, edges, first), 0.9);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.99, edges, first), 0.99);
  EXPECT_EQ(HistogramQuantile(1.0, edges, first), 1.0);
  // Four observations in (2, 4]: rank 2 is half way, 2 + 2 * 0.5.
  const std::vector<uint64_t> third = {0, 0, 4, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.5, edges, third), 3.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.99, edges, third), 3.98);
  EXPECT_EQ(HistogramQuantile(1.0, edges, third), 4.0);
}

TEST(HistogramQuantileTest, SeveralBuckets) {
  const std::vector<double> edges = {1, 2, 4};
  const std::vector<uint64_t> buckets = {2, 3, 5, 0};  // 10 observations
  // rank 1 of 2 in (0, 1]: 0 + 1 * 1/2.
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.1, edges, buckets), 0.5);
  // rank 5 = the last of (1, 2]: 1 + 1 * (5 - 2) / 3.
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.5, edges, buckets), 2.0);
  // rank 9 in (2, 4]: 2 + 2 * (9 - 5) / 5.
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.9, edges, buckets), 3.6);
  // rank 9.9: 2 + 2 * (9.9 - 5) / 5.
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.99, edges, buckets), 3.96);
  EXPECT_EQ(HistogramQuantile(1.0, edges, buckets), 4.0);
}

TEST(HistogramQuantileTest, RankInInfBucketReportsTopFiniteEdge) {
  const std::vector<double> edges = {1, 2, 4};
  const std::vector<uint64_t> buckets = {1, 0, 0, 9};
  EXPECT_DOUBLE_EQ(HistogramQuantile(0.05, edges, buckets), 0.5);
  EXPECT_EQ(HistogramQuantile(0.5, edges, buckets), 4.0);
  EXPECT_EQ(HistogramQuantile(0.99, edges, buckets), 4.0);
  EXPECT_EQ(HistogramQuantile(1.0, edges, buckets), 4.0);
}

TEST(HistogramQuantileTest, PercentilesOrderedAndBoundedByMax) {
  Histogram h(DefaultLatencyBucketEdges());
  // A skewed spread: many fast requests, a slow tail.
  for (int i = 1; i <= 1000; ++i) h.Observe(1e-4 * i);
  for (int i = 1; i <= 20; ++i) h.Observe(0.5 * i);
  std::vector<uint64_t> buckets;
  for (size_t b = 0; b <= h.edges().size(); ++b) {
    buckets.push_back(h.BucketCount(b));
  }
  const double p50 = HistogramQuantile(0.50, h.edges(), buckets);
  const double p90 = HistogramQuantile(0.90, h.edges(), buckets);
  const double p99 = HistogramQuantile(0.99, h.edges(), buckets);
  const double max = HistogramQuantile(1.0, h.edges(), buckets);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, max);
  // The largest observation (10 s) lies in the bucket max closes.
  EXPECT_GE(max, 10.0);
}

TEST(MetricsTest, NameValidation) {
  EXPECT_TRUE(ValidMetricName("qfix_requests_total"));
  EXPECT_TRUE(ValidMetricName("ns:sub_total"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(ValidMetricName("has-dash"));
  EXPECT_TRUE(ValidLabelName("tenant"));
  EXPECT_FALSE(ValidLabelName("__reserved"));
  EXPECT_FALSE(ValidLabelName("has.dot"));
}

// ---------------------------------------------------------------------------
// Lint negative cases: each payload is one specific scraper-visible bug.

TEST(MetricsLintTest, RejectsSampleWithoutType) {
  EXPECT_FALSE(LintExposition("orphan_total 1\n").ok());
}

TEST(MetricsLintTest, RejectsDuplicateSeries) {
  const char* text =
      "# TYPE dup_total counter\n"
      "dup_total{t=\"a\"} 1\n"
      "dup_total{t=\"a\"} 2\n";
  EXPECT_FALSE(LintExposition(text).ok());
}

TEST(MetricsLintTest, RejectsNegativeCounter) {
  EXPECT_FALSE(
      LintExposition("# TYPE neg_total counter\nneg_total -1\n").ok());
}

TEST(MetricsLintTest, RejectsNonCumulativeHistogram) {
  const char* text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 5\n"
      "h_bucket{le=\"1\"} 3\n"          // decreasing: not cumulative
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_sum 1\n"
      "h_count 5\n";
  EXPECT_FALSE(LintExposition(text).ok());
}

TEST(MetricsLintTest, RejectsHistogramWithoutInfBucket) {
  const char* text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"0.1\"} 1\n"
      "h_sum 1\n"
      "h_count 1\n";
  EXPECT_FALSE(LintExposition(text).ok());
}

TEST(MetricsLintTest, RejectsCountDisagreeingWithInfBucket) {
  const char* text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"+Inf\"} 3\n"
      "h_sum 1\n"
      "h_count 4\n";
  EXPECT_FALSE(LintExposition(text).ok());
}

TEST(MetricsParseTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseExposition("no_value\n").ok());
  EXPECT_FALSE(ParseExposition("bad{unterminated=\"x} 1\n").ok());
  EXPECT_FALSE(ParseExposition("bad_value notanumber\n").ok());
}

TEST(MetricsParseTest, AcceptsInfNanAndTimestamps) {
  auto parsed = ParseExposition(
      "g_one +Inf\n"
      "g_two -Inf\n"
      "g_three NaN\n"
      "g_four 1.5 1712000000000\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->samples.size(), 4u);
  EXPECT_TRUE(std::isinf(parsed->samples[0].value));
  EXPECT_TRUE(std::isinf(parsed->samples[1].value));
  EXPECT_LT(parsed->samples[1].value, 0);
  EXPECT_TRUE(std::isnan(parsed->samples[2].value));
  EXPECT_DOUBLE_EQ(parsed->samples[3].value, 1.5);
}

// ---------------------------------------------------------------------------
// Concurrency: scrapes interleaved with writers must stay lint-clean.
// (Run under the TSan lane in CI; the assertions here catch torn
// exposition, TSan catches races.)

TEST(MetricsTest, ConcurrentObserveAndRenderStaysConsistent) {
  MetricsRegistry registry;
  CounterFamily* counters =
      registry.AddCounter("test_mt_total", "MT.", {"worker"});
  HistogramFamily* hists = registry.AddHistogram(
      "test_mt_seconds", "MT latency.", {0.001, 0.01, 0.1}, {"worker"});

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string label = "w" + std::to_string(w);
      Counter* c = counters->WithLabels({label});
      Histogram* h = hists->WithLabels({label});
      for (int i = 0; i < kOpsPerWriter; ++i) {
        c->Inc();
        h->Observe(0.0005 * (i % 400));
      }
    });
  }
  // Scrape continuously while writers run; every payload must lint.
  int scrapes = 0;
  while (!stop.load()) {
    std::string text = registry.RenderPrometheus();
    Status lint = LintExposition(text);
    ASSERT_TRUE(lint.ok()) << lint.ToString();
    ++scrapes;
    bool all_done = true;
    for (int w = 0; w < kWriters; ++w) {
      if (counters->WithLabels({"w" + std::to_string(w)})->Value() <
          kOpsPerWriter) {
        all_done = false;
      }
    }
    if (all_done) stop = true;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GE(scrapes, 1);

  // Final totals are exact once writers are quiescent.
  auto parsed = ParseExposition(registry.RenderPrometheus());
  ASSERT_TRUE(parsed.ok());
  double total = 0, count_total = 0;
  for (const auto& sample : parsed->samples) {
    if (sample.name == "test_mt_total") total += sample.value;
    if (sample.name == "test_mt_seconds_count") count_total += sample.value;
  }
  EXPECT_DOUBLE_EQ(total, kWriters * kOpsPerWriter);
  EXPECT_DOUBLE_EQ(count_total, kWriters * kOpsPerWriter);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, SpansRecordOrderedOffsets) {
  TraceContext trace("test-id");
  EXPECT_EQ(trace.request_id(), "test-id");

  size_t parse = trace.BeginSpan("parse");
  trace.EndSpan(parse);
  size_t solve = trace.BeginSpan("solve");
  trace.EndSpan(solve);

  ASSERT_EQ(trace.spans().size(), 2u);
  const TraceSpan& first = trace.spans()[0];
  const TraceSpan& second = trace.spans()[1];
  EXPECT_EQ(first.phase, "parse");
  EXPECT_EQ(second.phase, "solve");
  EXPECT_GE(first.start_seconds, 0.0);
  EXPECT_LE(first.start_seconds, first.end_seconds);
  EXPECT_LE(first.end_seconds, second.start_seconds);
  EXPECT_LE(second.end_seconds, trace.ElapsedSeconds());
}

TEST(TraceTest, EndSpanOnlyExtendsForward) {
  TraceContext trace;
  size_t span = trace.BeginSpan("phase");
  trace.EndSpan(span);
  double first_end = trace.spans()[0].end_seconds;
  trace.EndSpan(span);  // re-close later: extends
  EXPECT_GE(trace.spans()[0].end_seconds, first_end);
}

TEST(TraceTest, AddSpanClampsBackwardExtents) {
  TraceContext trace;
  trace.AddSpan("computed", 0.5, 0.2);  // end before start: clamped
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.spans()[0].start_seconds, 0.5);
  EXPECT_DOUBLE_EQ(trace.spans()[0].end_seconds, 0.5);
  EXPECT_DOUBLE_EQ(trace.spans()[0].DurationSeconds(), 0.0);
}

TEST(TraceTest, GeneratedRequestIdsAreUniqueAndWellFormed) {
  std::set<std::string> ids;
  for (int i = 0; i < 1000; ++i) {
    std::string id = GenerateRequestId();
    ASSERT_EQ(id.size(), 18u) << id;
    ASSERT_EQ(id.compare(0, 2, "q-"), 0) << id;
    for (size_t p = 2; p < id.size(); ++p) {
      char c = id[p];
      ASSERT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }
  // An empty-constructed context mints an id too.
  EXPECT_FALSE(TraceContext().request_id().empty());
}

TEST(TraceTest, SanitizeRequestIdFiltersUnsafeValues) {
  EXPECT_EQ(SanitizeRequestId("abc-123.XYZ_ok"), "abc-123.XYZ_ok");
  EXPECT_EQ(SanitizeRequestId(""), "");
  EXPECT_EQ(SanitizeRequestId("evil\r\nSet-Cookie: x"), "");
  EXPECT_EQ(SanitizeRequestId("has space"), "");
  EXPECT_EQ(SanitizeRequestId("quote\"inject"), "");
  EXPECT_EQ(SanitizeRequestId(std::string(65, 'a')), "");
  EXPECT_EQ(SanitizeRequestId(std::string(64, 'a')), std::string(64, 'a'));
}

// ---------------------------------------------------------------------------
// Structured logging

class LogCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogSink([this](const std::string& line) { lines_.push_back(line); });
    SetLogLevel(LogLevel::kInfo);
    SetLogJson(false);
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogLevel(LogLevel::kInfo);
    SetLogJson(false);
  }
  std::vector<std::string> lines_;
};

TEST_F(LogCaptureTest, PlainFormatAndFieldQuoting) {
  LogEvent(LogLevel::kInfo, "request_done")
      .Str("id", "q-1234")
      .Str("msg", "two words")
      .Int("items", 3)
      .Double("ms", 1.5)
      .Bool("cached", true);
  ASSERT_EQ(lines_.size(), 1u);
  const std::string& line = lines_[0];
  EXPECT_NE(line.find(" INFO request_done "), std::string::npos) << line;
  EXPECT_NE(line.find("id=q-1234"), std::string::npos) << line;
  // Values with spaces are quoted; bare tokens are not.
  EXPECT_NE(line.find("msg=\"two words\""), std::string::npos) << line;
  EXPECT_NE(line.find("items=3"), std::string::npos) << line;
  EXPECT_NE(line.find("cached=true"), std::string::npos) << line;
}

TEST_F(LogCaptureTest, LevelFilterDropsBelowThreshold) {
  SetLogLevel(LogLevel::kWarn);
  LogEvent(LogLevel::kInfo, "dropped");
  LogEvent(LogLevel::kDebug, "dropped_too");
  LogEvent(LogLevel::kWarn, "kept");
  LogEvent(LogLevel::kError, "kept_too");
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_NE(lines_[0].find("kept"), std::string::npos);
  EXPECT_NE(lines_[1].find("kept_too"), std::string::npos);

  SetLogLevel(LogLevel::kOff);
  LogEvent(LogLevel::kError, "silenced");
  EXPECT_EQ(lines_.size(), 2u);
}

TEST_F(LogCaptureTest, JsonLinesCarryAllFields) {
  SetLogJson(true);
  LogEvent(LogLevel::kWarn, "slow_request")
      .Str("id", "q-ff")
      .Double("total_ms", 12.25)
      .Int("items", -2);
  ASSERT_EQ(lines_.size(), 1u);
  const std::string& line = lines_[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"event\":\"slow_request\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"id\":\"q-ff\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"items\":-2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos) << line;
}

TEST(LogLevelTest, ParseAndNameRoundTrip) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kOff);  // untouched on failure
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

TEST_F(LogCaptureTest, WarnRateLimitDropsAndCounts) {
  const uint64_t dropped_before = DroppedLogLines();
  SetWarnLogPerSec(2.0);  // burst 2, then drops
  for (int i = 0; i < 10; ++i) {
    LogEvent(LogLevel::kWarn, "slow_request").Int("i", i);
  }
  // ERROR is never limited, even with the WARN bucket empty.
  LogEvent(LogLevel::kError, "still_logged");
  SetWarnLogPerSec(0.0);  // restore: unlimited
  size_t warns = 0, errors = 0;
  for (const std::string& line : lines_) {
    if (line.find("slow_request") != std::string::npos) ++warns;
    if (line.find("still_logged") != std::string::npos) ++errors;
  }
  EXPECT_EQ(warns, 2u);
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(DroppedLogLines() - dropped_before, 8u);
}

// ---------------------------------------------------------------------------
// Histogram exemplars

TEST(MetricsTest, ExemplarTracksWorstRecentPerBucket) {
  Histogram h({0.1, 1.0});
  h.ObserveWithExemplar(0.05, "q-fast");
  h.ObserveWithExemplar(0.5, "q-mid");
  h.ObserveWithExemplar(0.7, "q-mid-worse");
  h.ObserveWithExemplar(0.3, "q-mid-better");  // not a new worst
  h.ObserveWithExemplar(50.0, "q-inf");
  ASSERT_TRUE(h.ExemplarFor(0).valid());
  EXPECT_EQ(h.ExemplarFor(0).trace_id, "q-fast");
  ASSERT_TRUE(h.ExemplarFor(1).valid());
  EXPECT_EQ(h.ExemplarFor(1).trace_id, "q-mid-worse");
  EXPECT_DOUBLE_EQ(h.ExemplarFor(1).value, 0.7);
  ASSERT_TRUE(h.ExemplarFor(2).valid());
  EXPECT_EQ(h.ExemplarFor(2).trace_id, "q-inf");
  // Empty trace id degrades to a plain Observe: count moves, exemplar
  // unchanged.
  h.ObserveWithExemplar(0.9, "");
  EXPECT_EQ(h.ExemplarFor(1).trace_id, "q-mid-worse");
}

TEST(MetricsTest, ExemplarsRenderAndParseAndLintClean) {
  MetricsRegistry registry;
  auto* family = registry.AddHistogram("qfix_test_seconds", "test latency",
                                       {0.1, 1.0});
  Histogram* h = family->WithLabels({});
  h->ObserveWithExemplar(0.05, "q-abc123");
  h->ObserveWithExemplar(0.5, "q-def456");

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# {trace_id=\"q-abc123\"} 0.05"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# {trace_id=\"q-def456\"} 0.5"), std::string::npos)
      << text;

  Status lint = LintExposition(text);
  EXPECT_TRUE(lint.ok()) << lint.ToString();
  auto parsed = ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool found = false;
  for (const auto& sample : parsed->samples) {
    if (sample.name != "qfix_test_seconds_bucket") continue;
    const std::string* le = sample.FindLabel("le");
    if (le == nullptr || *le != "0.1") continue;
    found = true;
    ASSERT_TRUE(sample.has_exemplar);
    const std::string* trace_id = sample.FindExemplarLabel("trace_id");
    ASSERT_NE(trace_id, nullptr);
    EXPECT_EQ(*trace_id, "q-abc123");
    EXPECT_DOUBLE_EQ(sample.exemplar_value, 0.05);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Flight recorder

RetainedTrace MakeTrace(const std::string& id, TraceOutcome outcome,
                        double duration_seconds, int status = 200) {
  RetainedTrace t;
  t.request_id = id;
  t.tenant = "t1";
  t.dataset = "t1/taxes";
  t.endpoint = "/v1/diagnose";
  t.outcome = outcome;
  t.http_status = status;
  t.duration_seconds = duration_seconds;
  return t;
}

TEST(TraceRecorderTest, TailSamplingRetainsSlowErrorShedAlways) {
  TraceRecorder::Options options;
  options.sample_probability = 0.0;  // ok-fast is NEVER kept
  options.slow_threshold_seconds = 0.1;
  TraceRecorder recorder(options);

  EXPECT_FALSE(recorder.Record(MakeTrace("ok", TraceOutcome::kOk, 0.01)));
  // Duration at/over the threshold upgrades kOk to kSlow.
  EXPECT_TRUE(recorder.Record(MakeTrace("slow", TraceOutcome::kOk, 0.1)));
  EXPECT_TRUE(
      recorder.Record(MakeTrace("err", TraceOutcome::kError, 0.01, 500)));
  EXPECT_TRUE(
      recorder.Record(MakeTrace("shed", TraceOutcome::kShed, 0.001, 429)));

  TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_total, 4u);
  EXPECT_EQ(stats.retained_total, 3u);
  EXPECT_EQ(stats.sampled_out_total, 1u);

  auto all = recorder.Snapshot({});
  ASSERT_EQ(all.size(), 3u);
  // Newest first.
  EXPECT_EQ(all[0].request_id, "shed");
  EXPECT_EQ(all[1].request_id, "err");
  EXPECT_EQ(all[2].request_id, "slow");
  EXPECT_EQ(all[2].outcome, TraceOutcome::kSlow);  // upgraded
  EXPECT_EQ(all[2].retain_reason, "slow");
}

TEST(TraceRecorderTest, ProbabilityOneRetainsEverything) {
  TraceRecorder::Options options;
  options.sample_probability = 1.0;
  TraceRecorder recorder(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(recorder.Record(
        MakeTrace("ok-" + std::to_string(i), TraceOutcome::kOk, 0.001)));
  }
  EXPECT_EQ(recorder.stats().retained_total, 100u);
  EXPECT_EQ(recorder.stats().sampled_out_total, 0u);
}

TEST(TraceRecorderTest, ByteBudgetEvictsOldestButKeepsNewest) {
  TraceRecorder::Options options;
  options.sample_probability = 1.0;
  // Tiny budget: a couple of traces at most.
  options.byte_budget = 2 * MakeTrace("x", TraceOutcome::kOk, 0.0)
                                .ApproxBytes();
  TraceRecorder recorder(options);
  for (int i = 0; i < 50; ++i) {
    recorder.Record(MakeTrace("t" + std::to_string(i), TraceOutcome::kOk,
                              0.001));
  }
  TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.retained_total, 50u);
  EXPECT_GT(stats.evicted_total, 0u);
  EXPECT_LE(stats.buffered_bytes, stats.byte_budget);
  EXPECT_GE(stats.buffered, 1u);  // the newest trace always survives
  auto all = recorder.Snapshot({});
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().request_id, "t49");
}

TEST(TraceRecorderTest, ForceRetainPinsOkFastTraceOnce) {
  TraceRecorder::Options options;
  options.sample_probability = 0.0;
  TraceRecorder recorder(options);
  recorder.ForceRetain("q-pinned", "stall:solve_deadline");

  EXPECT_TRUE(recorder.Record(MakeTrace("q-pinned", TraceOutcome::kOk, 0.01)));
  // The pin was consumed: the same id records again as plain ok-fast.
  EXPECT_FALSE(recorder.Record(MakeTrace("q-pinned", TraceOutcome::kOk, 0.01)));

  auto all = recorder.Snapshot({});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].forced);
  EXPECT_EQ(all[0].retain_reason, "stall:solve_deadline");
  EXPECT_EQ(recorder.stats().forced_total, 1u);
}

TEST(TraceRecorderTest, SnapshotFiltersMatch) {
  TraceRecorder::Options options;
  options.sample_probability = 1.0;
  TraceRecorder recorder(options);
  auto t1 = MakeTrace("a", TraceOutcome::kOk, 0.001);
  auto t2 = MakeTrace("b", TraceOutcome::kError, 0.5, 500);
  t2.tenant = "t2";
  t2.dataset = "t2/sales";
  recorder.Record(std::move(t1));
  recorder.Record(std::move(t2));

  TraceRecorder::Filter by_tenant;
  by_tenant.tenant = "t2";
  auto got = recorder.Snapshot(by_tenant);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, "b");

  TraceRecorder::Filter by_duration;
  by_duration.min_duration_seconds = 0.1;
  got = recorder.Snapshot(by_duration);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, "b");

  TraceRecorder::Filter by_outcome;
  by_outcome.has_outcome = true;
  by_outcome.outcome = TraceOutcome::kError;
  got = recorder.Snapshot(by_outcome);
  ASSERT_EQ(got.size(), 1u);

  TraceRecorder::Filter limited;
  limited.limit = 1;
  got = recorder.Snapshot(limited);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, "b");  // newest wins the limit
}

TEST(TraceRecorderTest, OutcomeNamesRoundTrip) {
  EXPECT_STREQ(TraceOutcomeName(TraceOutcome::kSlow), "slow");
  TraceOutcome out = TraceOutcome::kOk;
  EXPECT_TRUE(ParseTraceOutcome("shed", &out));
  EXPECT_EQ(out, TraceOutcome::kShed);
  EXPECT_FALSE(ParseTraceOutcome("bogus", &out));
  EXPECT_EQ(out, TraceOutcome::kShed);  // untouched on failure
}

TEST(TraceRecorderTest, ConcurrentRecordSnapshotAndPinStayConsistent) {
  TraceRecorder::Options options;
  options.sample_probability = 0.5;
  options.slow_threshold_seconds = 0.1;
  options.byte_budget = 64 * 1024;
  TraceRecorder recorder(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        auto outcome = i % 7 == 0 ? TraceOutcome::kError : TraceOutcome::kOk;
        double duration = i % 11 == 0 ? 0.5 : 0.001;
        recorder.Record(MakeTrace(
            "w" + std::to_string(w) + "-" + std::to_string(i), outcome,
            duration, outcome == TraceOutcome::kError ? 500 : 200));
        if (i % 13 == 0) {
          recorder.ForceRetain("w" + std::to_string(w) + "-pin", "test");
        }
      }
    });
  }
  std::thread reader([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 200; ++i) {
      auto snap = recorder.Snapshot({});
      for (size_t j = 1; j < snap.size(); ++j) {
        // Newest-first order holds under concurrent writes.
        EXPECT_GE(snap[j - 1].recorded_unix_seconds,
                  snap[j].recorded_unix_seconds);
      }
      (void)recorder.stats();
    }
  });
  go.store(true);
  for (auto& t : writers) t.join();
  reader.join();

  TraceRecorder::Stats stats = recorder.stats();
  EXPECT_EQ(stats.recorded_total,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.recorded_total,
            stats.retained_total + stats.sampled_out_total);
  EXPECT_LE(stats.buffered_bytes, stats.byte_budget);
}

// ---------------------------------------------------------------------------
// Watchdog

TEST(WatchdogTest, HeartbeatStallFiresOnceAndRearmsOnRecovery) {
  Watchdog::Options options;
  options.loop_stall_seconds = 0.01;
  std::vector<Watchdog::StallEvent> events;
  Watchdog wd(options, [&](const Watchdog::StallEvent& e) {
    events.push_back(e);
  });
  int hb = wd.RegisterHeartbeat("loop-0");
  wd.Beat(hb);
  EXPECT_EQ(wd.PollOnce(), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wd.PollOnce(), 1);  // stale -> one event
  EXPECT_EQ(wd.PollOnce(), 0);  // edge-triggered: not repeated
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "event_loop");
  EXPECT_EQ(events[0].detail, "loop-0");
  EXPECT_GE(events[0].age_seconds, 0.01);

  wd.Beat(hb);  // recovery re-arms the edge
  EXPECT_EQ(wd.PollOnce(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wd.PollOnce(), 1);
  EXPECT_EQ(events.size(), 2u);
}

TEST(WatchdogTest, OverdueSolveFlaggedOnceWhileRunning) {
  Watchdog::Options options;
  options.loop_stall_seconds = 0.0;  // isolate the solve probe
  options.solve_deadline_warn_seconds = 0.01;
  std::vector<Watchdog::StallEvent> events;
  Watchdog wd(options, [&](const Watchdog::StallEvent& e) {
    events.push_back(e);
  });
  uint64_t token = wd.BeginSolve("q-runaway");
  EXPECT_EQ(wd.PollOnce(), 0);  // not overdue yet
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wd.PollOnce(), 1);
  EXPECT_EQ(wd.PollOnce(), 0);  // flagged once
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "solve_deadline");
  EXPECT_EQ(events[0].request_id, "q-runaway");
  wd.EndSolve(token);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(wd.PollOnce(), 0);  // finished solves can't re-fire
}

TEST(WatchdogTest, StarvationNeedsContinuousWindow) {
  Watchdog::Options options;
  options.loop_stall_seconds = 0.0;
  options.starvation_window_seconds = 0.02;
  std::vector<Watchdog::StallEvent> events;
  Watchdog wd(options, [&](const Watchdog::StallEvent& e) {
    events.push_back(e);
  });
  bool starving = true;
  wd.SetStarvationProbe([&](std::string* detail) {
    *detail = "gate pinned";
    return starving;
  });
  EXPECT_EQ(wd.PollOnce(), 0);  // window starts now
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  starving = false;
  EXPECT_EQ(wd.PollOnce(), 0);  // recovered before the window elapsed
  starving = true;
  EXPECT_EQ(wd.PollOnce(), 0);  // window restarts
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(wd.PollOnce(), 1);
  EXPECT_EQ(wd.PollOnce(), 0);  // once per episode
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, "admission_starvation");
  EXPECT_EQ(events[0].detail, "gate pinned");
}

TEST(WatchdogTest, MonitorThreadFiresWithoutManualPolling) {
  Watchdog::Options options;
  options.poll_interval_seconds = 0.005;
  options.loop_stall_seconds = 0.01;
  std::atomic<int> fired{0};
  Watchdog wd(options, [&](const Watchdog::StallEvent&) { ++fired; });
  int hb = wd.RegisterHeartbeat("loop-0");
  wd.Beat(hb);
  wd.Start();
  for (int i = 0; i < 200 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wd.Stop();
  EXPECT_GE(fired.load(), 1);
}

}  // namespace
}  // namespace obs
}  // namespace qfix
