// Shared plumbing for the benchmark workloads: latency summaries, the
// result record whose JSON form is the last line of stdout, the
// exact-repeat digest, the run stamp, and the self-test of this
// arithmetic. Nothing here reaches into the program: every number is
// taken from outside it (timers around public calls, RepairStats,
// /metrics and /v1/stats, trace spans the engine already accepts).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Highest quantile that still has at least ten samples beyond it, as a
/// fraction (0.9 at n = 100, 0.99 at n = 1000); 0 when n <= 10.
double TailQuantile(size_t n);

/// Nearest-rank quantile: the smallest sample with at least q * n
/// samples at or below it. `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, double q);

/// One latency population in milliseconds.
class Samples {
 public:
  void Add(double ms) { ms_.push_back(ms); }
  void Add(const Samples& other) {
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
  }
  size_t size() const { return ms_.size(); }
  double Mean() const;
  double P50() const;
  /// p90 needs >= 100 samples (ten beyond it); below that it is NaN and
  /// the run is refused rather than reporting a thinner tail.
  double P90() const;
  /// "p99.0 (n=1000)"-style label of the highest supported tail.
  std::string TailLabel() const;
  double Tail() const;

 private:
  std::vector<double> Sorted() const;
  std::vector<double> ms_;
};

/// wall - sum(parts): the time a diagnosis spent outside the measured
/// layers. Never negative when the parts were timed inside the wall
/// interval; Report::CheckResidual enforces that per operation.
double Residual(double wall, std::initializer_list<double> parts);

/// Mean self time per span name over the traces fed to it (a span's
/// duration minus the part its children cover), plus the MILP split
/// the per-layer table names: presolve, root LP, and the tree search
/// (solve spans minus those two children).
class SpanTotals {
 public:
  /// Adds one trace. Returns false (and ignores it) when the trace
  /// dropped spans, since its totals would be partial.
  bool Add(const std::vector<qfix::obs::TraceSpan>& spans,
           uint64_t dropped);
  size_t traces() const { return traces_; }
  /// Sum over traces of `phase` durations (or self times), divided by
  /// the number of traces in which the phase ran. 0 when it never ran.
  double MeanMs(const std::string& phase) const;
  double MeanSelfMs(const std::string& phase) const;
  /// Solve spans minus their presolve and root_lp children.
  double TreeMs() const;
  std::vector<std::string> Phases() const;

 private:
  struct Acc {
    double total = 0.0;
    double self = 0.0;
    size_t traces = 0;
  };
  std::map<std::string, Acc> by_phase_;
  double tree_total_ = 0.0;
  size_t tree_traces_ = 0;
  size_t traces_ = 0;
};

/// One GET /metrics payload, read through the in-repo exposition parser
/// (obs::ParseExposition) and linted (obs::LintExposition), so a
/// format change fails the run instead of skewing a delta.
class Scrape {
 public:
  bool Parse(std::string_view text, std::string* why);
  /// The series `name` with at most one label `label`="value"; 0 when
  /// the series is absent (a family that never observed anything).
  double Get(const std::string& name, const std::string& label = "",
             const std::string& value = "") const;

 private:
  std::map<std::string, double> series_;
};

/// after - before for one series.
double Delta(const Scrape& before, const Scrape& after,
             const std::string& name, const std::string& label = "",
             const std::string& value = "");

/// Mean milliseconds per observation of one histogram series between
/// two scrapes (its _sum and _count deltas); 0 with no observations.
double HistogramMeanMs(const Scrape& before, const Scrape& after,
                       const std::string& family, const std::string& label,
                       const std::string& value, double* count = nullptr);

/// 64-bit FNV-1a over everything the workload generated and every
/// count it totalled, so two runs of one seed can be compared exactly.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t v);
  void Add(double v);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Failure classes counted against attempts. An operation counts once,
/// under the first class it hits in this order.
enum class Failure {
  kErrorStatus,    // the call returned a non-OK status / "ok": false
  kTruncated,      // a limit stopped branch & bound (optimal == false)
  kUnverified,     // replaying the repair did not reproduce the targets
  kWrongQuery,     // the diagnosis named another query than the injected
  kNon2xx,         // an HTTP status outside 2xx
  kTransport,      // the client could not complete the round trip
  kReaskMismatch,  // a cached re-ask's report differs from the first
  kWrongAppend,    // an append answered with the wrong query count
  kStaleHit,       // a re-ask an append made stale came from the cache
};
constexpr int kNumFailureClasses = 9;
const char* FailureName(Failure f);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The metric catalog, in print order. BENCHMARK.json lists the same
/// names and units; every workload prints every entry.
extern const MetricSpec kEndToEnd[];
extern const size_t kNumEndToEnd;
extern const MetricSpec kPerLayer[];
extern const size_t kNumPerLayer;

/// Everything one run reports. Human-readable lines go first on stdout;
/// the JSON record is the last line.
class Report {
 public:
  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Sets a catalog metric. A per-layer metric never set prints as 0
  /// with the reason given to Absent, or "not on this workload's path"
  /// (a layer this workload does not run). An end-to-end metric never
  /// set is a BenchError.
  void Set(const std::string& name, double value);
  /// Why the per-layer metric `name` has no value on this workload.
  void Absent(const std::string& name, std::string reason);
  /// Exact-repeat totals: printed in order and folded into the digest.
  void Count(std::string name, uint64_t value);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(Failure f);
  /// A check on the benchmark's own arithmetic failed (a negative
  /// residual, layers summing past the whole): the run is not correct.
  void BenchError(const std::string& what);
  /// Records a residual; negative beyond timer noise is a BenchError.
  void CheckResidual(const char* what, double residual_ms);

  double OkFrac() const;

  void SetInputDigest(uint64_t d) { input_digest_ = d; }

  /// Prints everything; the JSON line carries the end-to-end metrics
  /// when `trace` is false and the per-layer ones when true. A run that
  /// attempted nothing (its set-up failed) prints its errors to stderr
  /// instead and returns false.
  bool Print(bool trace);
  /// False when the benchmark's own checks failed or an answer
  /// contradicts what the program claimed: a cached report that differs
  /// from the answer it memoized or that an append made stale, an
  /// append acknowledging the wrong count. Diagnoses the program itself
  /// reports as failed, unverified or truncated, and ones naming another
  /// query than the injected one, are counted in failed() by class
  /// instead.
  bool correct() const;

 private:
  std::vector<std::string> lines_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> absent_reasons_;
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::vector<std::string> bench_errors_;
  uint64_t fail_by_class_[kNumFailureClasses] = {};
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t input_digest_ = 0;
};

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Median of `xs` (which it sorts).
double Median(std::vector<double> xs);

/// Prints the run stamp: nproc, effective parallelism from a short
/// one-thread vs nproc-thread spin, build type, compiler and seed.
void PrintStamp(Report* report, uint64_t seed);

/// Checks the arithmetic above on fixed inputs; returns false and says
/// why on the first mismatch.
bool SelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
