// obs::MetricsRegistry — the serving stack's telemetry surface.
//
// Lock-cheap by construction: the hot path touches only owned
// instruments, and every owned instrument is a handful of relaxed
// atomics (a Counter is one fetch_add; a Histogram::Observe is a
// binary search over ~20 edges plus one fetch_add and one CAS-add).
// Label families hand out stable instrument pointers, so callers
// resolve fixed labels once at startup; a per-request label (a tenant)
// costs one map lookup. Counts nothing else keeps — the server's
// requests, responses, sheds, items — are owned instruments.
// Subsystems that already keep their own stats structs
// (cache::ReportCache, DatasetRegistry, ingest::EncodingCache, the
// flight recorder, TenantGovernor's admission state) register
// *callback* families instead: the registry asks them for samples only
// at scrape time, so nothing is double-accounted.
//
// Snapshot() reads every family once; both of the server's telemetry
// endpoints are views of one snapshot. MetricsSnapshot::
// RenderPrometheus() emits Prometheus text exposition format 0.0.4
// (# HELP/# TYPE lines, escaped label values, cumulative histogram
// buckets with a +Inf bound) — what GET /metrics serves — and GET
// /v1/stats projects the same samples into JSON.
//
// ParseExposition()/LintExposition() are the in-repo consumers: the
// round-trip unit tests, the CI serve-smoke lint (no network, so no
// promtool), and `qfix_load --scrape-metrics` all validate the
// exposition with the same code that could mis-render it — a format
// bug fails the build, not the fleet's scraper.
#ifndef QFIX_OBS_METRICS_H_
#define QFIX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qfix {
namespace obs {

/// Monotonically increasing event count. Thread-safe, wait-free.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down. Thread-safe.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with atomic per-bucket counts. Observe() is
/// lock-free; rendering reads relaxed snapshots (Prometheus scrapes
/// tolerate the instantaneous skew, and RenderPrometheus derives
/// _count from the buckets it read so the exposition is always
/// internally consistent).
///
/// Exemplars: ObserveWithExemplar() additionally remembers, per
/// bucket, the request id of the worst recent observation — "worst"
/// meaning the largest value to land in that bucket within the last
/// kExemplarHorizonSeconds. The common case (not a new worst) is two
/// relaxed loads; only a new worst pays the exemplar mutex. The
/// renderer emits them as OpenMetrics-style `# {trace_id="..."} v`
/// suffixes on _bucket lines, which links a latency spike in a scrape
/// straight to a retained trace in the flight recorder.
class Histogram {
 public:
  /// An exemplar slot's freshness window: a stored worst observation
  /// older than this yields to any newer one, so the exemplar tracks
  /// "recently worst", not "worst ever".
  static constexpr double kExemplarHorizonSeconds = 60.0;

  struct Exemplar {
    double value = 0.0;
    std::string trace_id;  // empty = no exemplar recorded
    bool valid() const { return !trace_id.empty(); }
  };

  /// `upper_edges` are the finite bucket bounds, strictly ascending;
  /// an implicit +Inf bucket is appended.
  explicit Histogram(std::vector<double> upper_edges);

  void Observe(double value);
  /// Observe() plus exemplar bookkeeping; `trace_id` empty degrades to
  /// a plain Observe().
  void ObserveWithExemplar(double value, std::string_view trace_id);

  const std::vector<double>& edges() const { return edges_; }
  /// Non-cumulative count of bucket `i` (i == edges().size() is +Inf).
  uint64_t BucketCount(size_t i) const;
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// The exemplar for bucket `i` (same indexing as BucketCount).
  Exemplar ExemplarFor(size_t i) const;

 private:
  struct ExemplarSlot {
    /// Fast-path filter: current worst value and when it was set.
    std::atomic<double> value{-1.0};
    std::atomic<double> stamp_seconds{0.0};
    /// Guarded by exemplar_mu_ (strings can't be atomic).
    std::string trace_id;
  };

  std::vector<double> edges_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // edges_.size() + 1
  std::atomic<double> sum_{0.0};
  mutable std::mutex exemplar_mu_;
  std::unique_ptr<ExemplarSlot[]> exemplars_;  // edges_.size() + 1
  /// Set on the first ObserveWithExemplar(): lets the renderer skip
  /// the slot scan for histograms that never carry exemplars.
  std::atomic<bool> has_exemplars_{false};
};

/// Default histogram edges for latency-in-seconds metrics: (64 << g) - 1
/// microseconds for g = 0..20, 63us up to ~67s — the last 1us-exact
/// bucket and the top of each power-of-two group of
/// harness::LatencyHistogram's layout, coarsened to a Prometheus-
/// friendly 21 edges (one per doubling).
std::vector<double> DefaultLatencyBucketEdges();

/// Prometheus histogram_quantile(q) over non-cumulative bucket counts
/// (`buckets[i]` for `edges[i]`, then one +Inf bucket): linear
/// interpolation inside the bucket holding rank q * count, the top
/// finite edge when that rank falls in +Inf, and 0 for an empty
/// histogram. `q` in (0, 1]; q = 1 is the upper edge of the highest
/// non-empty bucket.
double HistogramQuantile(double q, const std::vector<double>& edges,
                         const std::vector<uint64_t>& buckets);

namespace internal {
struct Family;
}  // namespace internal

struct MetricsSnapshot;

/// A named counter metric with fixed label names. WithLabels() returns
/// a stable pointer — resolve once, Inc() forever. A braced list of
/// label values finds an existing series without building a key, so a
/// per-request label (a tenant) costs a lock and a map lookup.
class CounterFamily {
 public:
  Counter* WithLabels(std::vector<std::string> label_values);
  Counter* WithLabels(std::initializer_list<std::string_view> label_values);
  /// The label-less series (only valid for families with no labels).
  Counter* Get() { return WithLabels({}); }

 private:
  friend class MetricsRegistry;
  explicit CounterFamily(internal::Family* family) : family_(family) {}
  internal::Family* family_;
};

class GaugeFamily {
 public:
  Gauge* WithLabels(std::vector<std::string> label_values);
  Gauge* WithLabels(std::initializer_list<std::string_view> label_values);
  Gauge* Get() { return WithLabels({}); }

 private:
  friend class MetricsRegistry;
  explicit GaugeFamily(internal::Family* family) : family_(family) {}
  internal::Family* family_;
};

class HistogramFamily {
 public:
  Histogram* WithLabels(std::vector<std::string> label_values);
  Histogram* WithLabels(
      std::initializer_list<std::string_view> label_values);
  Histogram* Get() { return WithLabels({}); }

 private:
  friend class MetricsRegistry;
  explicit HistogramFamily(internal::Family* family) : family_(family) {}
  internal::Family* family_;
};

class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  /// One scrape-time sample a callback family emits: label values (in
  /// the family's label-name order) and the value.
  struct Sample {
    std::vector<std::string> label_values;
    double value = 0.0;
  };
  using CollectFn = std::function<void(std::vector<Sample>*)>;

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register an owned family. Name/label validity and uniqueness are
  /// QFIX_CHECKed — a bad metric name is a programming error, not a
  /// runtime condition. The returned family outlives the registry call
  /// sites (owned by the registry, freed with it).
  CounterFamily* AddCounter(std::string name, std::string help,
                            std::vector<std::string> label_names = {});
  GaugeFamily* AddGauge(std::string name, std::string help,
                        std::vector<std::string> label_names = {});
  HistogramFamily* AddHistogram(std::string name, std::string help,
                                std::vector<double> upper_edges,
                                std::vector<std::string> label_names = {});

  /// Register a scrape-time callback family (counter or gauge): `fn`
  /// runs inside RenderPrometheus() and emits the family's current
  /// samples. This is how subsystems with their own stats structs
  /// (cache, registry, governor, ingest) export without maintaining a
  /// second set of counters on the hot path.
  void AddCallback(std::string name, std::string help, Kind kind,
                   std::vector<std::string> label_names, CollectFn fn);

  /// Every family's samples at one instant (callbacks run now).
  MetricsSnapshot Snapshot() const;

  /// Snapshot().RenderPrometheus().
  std::string RenderPrometheus() const;

 private:
  internal::Family* AddFamily(std::string name, std::string help, Kind kind,
                              std::vector<std::string> label_names);

  mutable std::mutex mu_;  // guards families_ layout (not instrument values)
  std::map<std::string, std::unique_ptr<internal::Family>> families_;
  std::vector<std::unique_ptr<CounterFamily>> counter_handles_;
  std::vector<std::unique_ptr<GaugeFamily>> gauge_handles_;
  std::vector<std::unique_ptr<HistogramFamily>> histogram_handles_;
};

/// One family as Snapshot() read it.
struct FamilySnapshot {
  struct Series {
    std::vector<std::string> label_values;
    /// Counters and gauges.
    double value = 0.0;
    /// Histograms: non-cumulative counts, one per edge plus +Inf, and
    /// the per-bucket exemplars (same indexing).
    std::vector<uint64_t> buckets;
    double sum = 0.0;
    std::vector<Histogram::Exemplar> exemplars;
  };

  std::string name;
  std::string help;
  MetricsRegistry::Kind kind = MetricsRegistry::Kind::kCounter;
  std::vector<std::string> label_names;
  std::vector<double> edges;  // histogram families only
  /// Owned series sorted by label values; callback series in the order
  /// the callback emitted them.
  std::vector<Series> series;
};

struct MetricsSnapshot {
  /// Sorted by name.
  std::vector<FamilySnapshot> families;

  /// The family named `name`, or nullptr.
  const FamilySnapshot* Find(std::string_view name) const;
  /// The sum of the series of `name` whose leading label values equal
  /// `labels` — one series when every label is given, the family total
  /// when none is: its value, or for a histogram its buckets. Zero when
  /// nothing matches.
  FamilySnapshot::Series Sum(
      std::string_view name,
      const std::vector<std::string>& labels = {}) const;

  /// Prometheus text exposition format 0.0.4, families sorted by name.
  std::string RenderPrometheus() const;
};

/// True for a legal Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool ValidMetricName(std::string_view name);
/// True for a legal label name: [a-zA-Z_][a-zA-Z0-9_]* (not __-prefixed).
bool ValidLabelName(std::string_view name);

// ---------------------------------------------------------------------------
// Exposition parsing + lint (test/CI/load-generator consumers)

struct ParsedSample {
  std::string name;
  /// In source order; values are unescaped.
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
  int line = 0;
  /// OpenMetrics-style exemplar suffix (`# {labels} value`), when the
  /// sample carried one.
  bool has_exemplar = false;
  std::vector<std::pair<std::string, std::string>> exemplar_labels;
  double exemplar_value = 0.0;

  /// Label value by name, or nullptr.
  const std::string* FindLabel(std::string_view name) const;
  /// Exemplar label value by name, or nullptr.
  const std::string* FindExemplarLabel(std::string_view name) const;
};

struct ParsedExposition {
  /// Family name -> declared TYPE ("counter", "gauge", "histogram", ...).
  std::map<std::string, std::string> types;
  /// Family name -> HELP text (unescaped).
  std::map<std::string, std::string> help;
  /// 1-based line number of each family's # TYPE declaration.
  std::map<std::string, int> type_line;
  std::vector<ParsedSample> samples;
};

/// Parses text exposition format. Fails with InvalidArgument (naming
/// the line) on malformed lines, bad escapes, or unparseable values.
Result<ParsedExposition> ParseExposition(std::string_view text);

/// Strict format lint over one exposition payload:
///   * parses cleanly; every metric and label name is legal;
///   * every sample belongs to a family whose # TYPE precedes it;
///   * no duplicate series (same name + label set);
///   * counter samples are finite and non-negative;
///   * histograms: per label set, `le` bounds strictly ascending with a
///     +Inf bucket, cumulative bucket counts non-decreasing, _count
///     equal to the +Inf bucket, and _sum present;
///   * exemplars only on _bucket series, with legal label names and an
///     exemplar value within the bucket's `le` bound.
/// OK means a Prometheus scraper will ingest the payload verbatim.
Status LintExposition(std::string_view text);

}  // namespace obs
}  // namespace qfix

#endif  // QFIX_OBS_METRICS_H_
