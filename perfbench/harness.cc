#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/json.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace perfbench {

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"diag_p50_ms", "ms"}, {"diag_p90_ms", "ms"},
    {"diag_per_s", "1/s"}, {"req_per_s", "1/s"},  {"ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};
const size_t kNumEndToEnd = sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);

const MetricSpec kPerLayer[] = {
    {"provenance.impact_ms", "ms"},
    {"provenance.kept_queries", "count"},
    {"qfix.attempts", "count"},
    {"qfix.attempt_yield", "ratio"},
    {"qfix.encode_ms", "ms"},
    {"qfix.replay_ms", "ms"},
    {"qfix.model_rows", "count"},
    {"qfix.model_int_vars", "count"},
    {"qfix.refined_frac", "ratio"},
    {"qfix.refine_ms", "ms"},
    {"milp.solve_ms", "ms"},
    {"milp.nodes", "count"},
    {"milp.lp_iters", "count"},
    {"milp.lp_iters_per_node", "count"},
    {"milp.presolve_ms", "ms"},
    {"milp.root_lp_ms", "ms"},
    {"milp.tree_ms", "ms"},
    {"milp.optimal_frac", "ratio"},
    {"service.register_ms", "ms"},
    {"service.parse_ms", "ms"},
    {"service.admission_ms", "ms"},
    {"service.render_ms", "ms"},
    {"service.write_ms", "ms"},
    {"service.wire_ms", "ms"},
    {"service.reask_p50_ms", "ms"},
    {"service.reask_p90_ms", "ms"},
    {"service.shed", "count"},
    {"service.errors", "count"},
    {"cache.lookup_ms", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"ingest.append_p50_ms", "ms"},
    {"ingest.prefix_reuse_ratio", "ratio"},
    {"ingest.gap_replays", "count"},
    {"trace.dropped_spans", "count"},
    {"trace.overhead_pct", "%"},
};
const size_t kNumPerLayer = sizeof(kPerLayer) / sizeof(kPerLayer[0]);

double TailQuantile(size_t n) {
  if (n <= 10) return 0.0;
  return 1.0 - 10.0 / static_cast<double>(n);
}

double NearestRank(const std::vector<double>& sorted, double q) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) -
                                              1e-9));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

std::vector<double> Samples::Sorted() const {
  std::vector<double> s = ms_;
  std::sort(s.begin(), s.end());
  return s;
}

double Samples::Mean() const {
  if (ms_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : ms_) sum += v;
  return sum / static_cast<double>(ms_.size());
}

double Samples::P50() const {
  return ms_.empty() ? std::nan("") : NearestRank(Sorted(), 0.5);
}

double Samples::P90() const {
  if (TailQuantile(ms_.size()) < 0.9) return std::nan("");
  return NearestRank(Sorted(), 0.9);
}

double Samples::Tail() const {
  double q = TailQuantile(ms_.size());
  return q <= 0.0 ? std::nan("") : NearestRank(Sorted(), q);
}

std::string Samples::TailLabel() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f (n=%zu)",
                100.0 * TailQuantile(ms_.size()), ms_.size());
  return buf;
}

double Residual(double wall, std::initializer_list<double> parts) {
  for (double p : parts) wall -= p;
  return wall;
}

bool SpanTotals::Add(const std::vector<qfix::obs::TraceSpan>& spans,
                     uint64_t dropped) {
  if (dropped > 0) return false;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.DurationSeconds() * 1e3;
    }
  }
  std::map<std::string, std::pair<double, double>> here;  // total, self
  double tree = 0.0;
  bool any_solve = false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double ms = spans[i].DurationSeconds() * 1e3;
    auto& slot = here[spans[i].phase];
    slot.first += ms;
    slot.second += std::max(0.0, ms - child_ms[i]);
    if (spans[i].phase == "solve" || spans[i].phase == "refine_solve") {
      any_solve = true;
      double t = ms;
      for (const auto& c : spans) {
        if (c.parent == static_cast<int>(i) &&
            (c.phase == "presolve" || c.phase == "root_lp")) {
          t -= c.DurationSeconds() * 1e3;
        }
      }
      tree += std::max(0.0, t);
    }
  }
  for (const auto& [phase, v] : here) {
    Acc& acc = by_phase_[phase];
    acc.total += v.first;
    acc.self += v.second;
    ++acc.traces;
  }
  if (any_solve) {
    tree_total_ += tree;
    ++tree_traces_;
  }
  ++traces_;
  return true;
}

double SpanTotals::MeanMs(const std::string& phase) const {
  auto it = by_phase_.find(phase);
  if (it == by_phase_.end() || it->second.traces == 0) return 0.0;
  return it->second.total / static_cast<double>(it->second.traces);
}

double SpanTotals::MeanSelfMs(const std::string& phase) const {
  auto it = by_phase_.find(phase);
  if (it == by_phase_.end() || it->second.traces == 0) return 0.0;
  return it->second.self / static_cast<double>(it->second.traces);
}

double SpanTotals::TreeMs() const {
  return tree_traces_ == 0 ? 0.0
                           : tree_total_ / static_cast<double>(tree_traces_);
}

std::vector<std::string> SpanTotals::Phases() const {
  std::vector<std::string> out;
  for (const auto& [phase, acc] : by_phase_) out.push_back(phase);
  return out;
}

namespace {

std::string SeriesKey(const std::string& name, const std::string& label,
                      const std::string& value) {
  return label.empty() ? name : name + "{" + label + "=" + value + "}";
}

}  // namespace

bool Scrape::Parse(std::string_view text, std::string* why) {
  qfix::Status lint = qfix::obs::LintExposition(text);
  if (!lint.ok()) {
    *why = "metrics lint: " + lint.ToString();
    return false;
  }
  auto parsed = qfix::obs::ParseExposition(text);
  if (!parsed.ok()) {
    *why = "metrics parse: " + parsed.status().ToString();
    return false;
  }
  series_.clear();
  for (const qfix::obs::ParsedSample& s : parsed->samples) {
    if (s.labels.size() > 1) continue;  // only single-label series used
    if (s.labels.empty()) {
      series_[s.name] = s.value;
    } else {
      series_[SeriesKey(s.name, s.labels[0].first, s.labels[0].second)] =
          s.value;
    }
  }
  return true;
}

double Scrape::Get(const std::string& name, const std::string& label,
                   const std::string& value) const {
  auto it = series_.find(SeriesKey(name, label, value));
  return it == series_.end() ? 0.0 : it->second;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& name, const std::string& label,
             const std::string& value) {
  return after.Get(name, label, value) - before.Get(name, label, value);
}

double HistogramMeanMs(const Scrape& before, const Scrape& after,
                       const std::string& family, const std::string& label,
                       const std::string& value, double* count) {
  double n = Delta(before, after, family + "_count", label, value);
  double sum = Delta(before, after, family + "_sum", label, value);
  if (count != nullptr) *count = n;
  return n > 0.0 ? 1e3 * sum / n : 0.0;
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(uint64_t v) {
  Add(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

const char* FailureName(Failure f) {
  switch (f) {
    case Failure::kErrorStatus:
      return "error_status";
    case Failure::kTruncated:
      return "truncated";
    case Failure::kUnverified:
      return "unverified";
    case Failure::kWrongQuery:
      return "wrong_query";
    case Failure::kNon2xx:
      return "non_2xx";
    case Failure::kTransport:
      return "transport";
    case Failure::kReaskMismatch:
      return "reask_mismatch";
    case Failure::kWrongAppend:
      return "wrong_append";
    case Failure::kStaleHit:
      return "stale_hit";
  }
  return "unknown";
}

void Report::Line(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  lines_.emplace_back(buf);
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Absent(const std::string& name, std::string reason) {
  absent_reasons_[name] = std::move(reason);
}

void Report::Count(std::string name, uint64_t value) {
  counts_.emplace_back(std::move(name), value);
}

void Report::Fail(Failure f) {
  ++fail_by_class_[static_cast<int>(f)];
  ++failed_;
}

void Report::BenchError(const std::string& what) {
  if (bench_errors_.size() < 8) bench_errors_.push_back(what);
}

void Report::CheckResidual(const char* what, double residual_ms) {
  // Timers around and inside one interval read one monotonic clock, so
  // only rounding separates a legal zero residual from a negative one.
  if (residual_ms < -1e-6) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s residual is negative (%.6f ms)",
                  what, residual_ms);
    BenchError(buf);
  }
}

bool Report::correct() const {
  return bench_errors_.empty() &&
         fail_by_class_[static_cast<int>(Failure::kReaskMismatch)] == 0 &&
         fail_by_class_[static_cast<int>(Failure::kWrongAppend)] == 0 &&
         fail_by_class_[static_cast<int>(Failure::kStaleHit)] == 0;
}

double Report::OkFrac() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

bool Report::Print(bool trace) {
  if (attempted_ == 0) {
    for (const std::string& e : bench_errors_) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    std::fprintf(stderr, "perfbench: no operation ran; no result\n");
    return false;
  }
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  std::printf("input_digest %016llx\n",
              static_cast<unsigned long long>(input_digest_));
  Digest counts;
  for (const auto& [name, v] : counts_) {
    std::printf("count %-28s %llu\n", name.c_str(),
                static_cast<unsigned long long>(v));
    counts.Add(name);
    counts.Add(v);
  }
  std::printf("count_digest %s\n", counts.Hex().c_str());
  std::printf("fail_frac %.6f (%llu of %llu attempted)", 1.0 - OkFrac(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (int i = 0; i < kNumFailureClasses; ++i) {
    std::printf(" %s=%llu", FailureName(static_cast<Failure>(i)),
                static_cast<unsigned long long>(fail_by_class_[i]));
  }
  std::printf("\n");
  const MetricSpec* specs = trace ? kPerLayer : kEndToEnd;
  const size_t num_specs = trace ? kNumPerLayer : kNumEndToEnd;
  std::map<std::string, std::string> absent;
  for (size_t i = 0; i < num_specs; ++i) {
    auto it = values_.find(specs[i].name);
    if (it != values_.end() && std::isfinite(it->second)) continue;
    if (!trace) {
      BenchError(std::string("end-to-end metric ") + specs[i].name +
                 " was not measured");
    }
    values_[specs[i].name] = 0.0;
    auto reason = absent_reasons_.find(specs[i].name);
    absent[specs[i].name] = reason != absent_reasons_.end()
                                ? reason->second
                                : "not on this workload's path";
  }
  for (const std::string& e : bench_errors_) {
    std::printf("BENCH ERROR: %s\n", e.c_str());
  }
  for (size_t i = 0; i < num_specs; ++i) {
    auto reason = absent.find(specs[i].name);
    std::printf("%-28s %14.6f %-6s%s\n", specs[i].name,
                values_[specs[i].name], specs[i].unit,
                reason != absent.end() ? ("  (" + reason->second + ")").c_str()
                                       : "");
  }
  qfix::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  w.Key("metrics");
  w.BeginObject();
  for (size_t i = 0; i < num_specs; ++i) {
    w.Key(specs[i].name);
    w.BeginObject();
    w.Key("value");
    w.Double(values_[specs[i].name]);
    w.Key("unit");
    w.String(specs[i].unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return true;
}

double PeakRssMb() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : NearestRank(xs, 0.5);
}

namespace {

// A fixed amount of integer work; the result feeds an atomic so the
// loop cannot be folded away.
std::atomic<uint64_t> g_spin_sink{0};
void Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

}  // namespace

void PrintStamp(Report* report, uint64_t seed) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int threads = nproc > 0 ? static_cast<int>(nproc) : 1;
  constexpr uint64_t kIterations = 60'000'000;
  qfix::WallTimer one;
  Spin(kIterations);
  const double t1 = one.ElapsedSeconds();
  qfix::WallTimer all;
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(Spin, kIterations);
  for (std::thread& t : pool) t.join();
  const double tn = all.ElapsedSeconds();
  report->Line(
      "stamp nproc=%d effective_parallelism=%.2f (1-thread spin %.3fs, "
      "%d-thread spin %.3fs) build_type=%s compiler=%s seed=%llu",
      threads, tn > 0.0 ? threads * t1 / tn : 0.0, t1, threads, tn,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      static_cast<unsigned long long>(seed));
}

bool SelfTest(std::string* why) {
  auto fail = [why](const std::string& msg) {
    *why = msg;
    return false;
  };
  // Percentile selection: the tail has >= 10 samples beyond it, and no
  // p90 exists below 100 samples.
  if (TailQuantile(100) != 0.9) return fail("TailQuantile(100) != 0.9");
  if (std::fabs(TailQuantile(1000) - 0.99) > 1e-12) {
    return fail("TailQuantile(1000) != 0.99");
  }
  if (TailQuantile(10) != 0.0) return fail("a tail claimed with 10 samples");
  for (size_t n : {11u, 57u, 100u, 101u, 250u, 999u, 1000u, 4321u}) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const double tail = NearestRank(v, TailQuantile(n));
    const size_t beyond = n - 1 - static_cast<size_t>(tail);
    if (beyond < 10) return fail("fewer than 10 samples beyond the tail");
  }
  Samples s;
  for (int i = 1; i <= 99; ++i) s.Add(i);
  if (!std::isnan(s.P90())) return fail("p90 reported with 99 samples");
  s.Add(100);
  if (s.P90() != 90.0) return fail("p90 of 1..100 != 90");
  if (s.P50() != 50.0) return fail("p50 of 1..100 != 50");

  // Residuals and layer sums: parts timed inside the wall never sum past
  // it, and the residual that closes the sum is never negative.
  {
    qfix::WallTimer wall;
    double parts[3];
    for (double& p : parts) {
      qfix::WallTimer t;
      Spin(200'000);
      p = t.ElapsedSeconds() * 1e3;
    }
    const double w = wall.ElapsedSeconds() * 1e3;
    const double r = Residual(w, {parts[0], parts[1], parts[2]});
    if (r < 0.0) return fail("residual of nested timers is negative");
    if (parts[0] + parts[1] + parts[2] + r > w + 1e-9) {
      return fail("layer parts sum past the whole");
    }
  }

  // Span self time: a child's time is charged to it, not its parent.
  {
    std::vector<qfix::obs::TraceSpan> spans(3);
    spans[0] = {"solve", 0.000, 0.010, -1};
    spans[1] = {"presolve", 0.001, 0.003, 0};
    spans[2] = {"root_lp", 0.003, 0.004, 0};
    SpanTotals totals;
    totals.Add(spans, 0);
    if (std::fabs(totals.MeanSelfMs("solve") - 7.0) > 1e-9 ||
        std::fabs(totals.TreeMs() - 7.0) > 1e-9 ||
        std::fabs(totals.MeanMs("presolve") - 2.0) > 1e-9) {
      return fail("span self time arithmetic");
    }
    if (totals.Add(spans, 1)) return fail("a truncated trace was counted");
  }

  // /metrics deltas go through the in-repo exposition parser.
  {
    qfix::obs::MetricsRegistry registry;
    auto* phases = registry.AddHistogram(
        "qfix_request_phase_seconds", "phase time",
        qfix::obs::DefaultLatencyBucketEdges(), {"phase"});
    auto* parse = phases->WithLabels({"parse"});
    auto* total = registry.AddCounter("qfix_items_total", "items")->Get();
    parse->Observe(0.001);
    total->Inc(3);
    Scrape before;
    std::string err;
    if (!before.Parse(registry.RenderPrometheus(), &err)) return fail(err);
    parse->Observe(0.002);
    parse->Observe(0.004);
    total->Inc(4);
    Scrape after;
    if (!after.Parse(registry.RenderPrometheus(), &err)) return fail(err);
    double n = 0.0;
    const double mean = HistogramMeanMs(before, after,
                                        "qfix_request_phase_seconds",
                                        "phase", "parse", &n);
    if (n != 2.0 || std::fabs(mean - 3.0) > 1e-9) {
      return fail("histogram delta through ParseExposition");
    }
    if (Delta(before, after, "qfix_items_total") != 4.0) {
      return fail("counter delta through ParseExposition");
    }
    Scrape bad;
    if (bad.Parse("qfix_x_total{a=\"1\" 2\n", &err)) {
      return fail("malformed exposition accepted");
    }
  }
  return true;
}

}  // namespace perfbench
