// HDR-style latency histogram: log-linear buckets with bounded relative
// error, constant-time Record(), and mergeable counts.
//
// The load harness (harness/loadgen.h, tools/qfix_load) records one
// sample per request from many worker threads; each worker owns its own
// histogram and the driver merges them at the end, so Record() needs no
// synchronization and costs a couple of shifts plus an increment.
//
// Layout: values are quantized to microseconds. The first 64 buckets
// are exact (one per microsecond); beyond that, each power-of-two range
// is split into 32 linear sub-buckets, so every bucket's width is at
// most 1/32 (~3.1%) of its value — percentiles carry that bounded
// relative error and cover every recorded sample, not a recent window.
// The top group covers past 2^40 us (~12 days), far beyond any request
// this harness will ever time.
#ifndef QFIX_HARNESS_HISTOGRAM_H_
#define QFIX_HARNESS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qfix {
namespace harness {

class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one sample, in seconds. Negative samples clamp to 0. NOT
  /// thread-safe: keep one histogram per recording thread and Merge().
  void Record(double seconds);

  /// Adds another histogram's samples into this one.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  /// Exact (not quantized) extrema and mean over recorded samples;
  /// 0 when empty.
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Value (seconds) at quantile `q` in [0, 1]: the upper edge of the
  /// bucket holding the nearest-rank sample, clamped to the exact max.
  /// 0 when empty.
  double Percentile(double q) const;

  // Bucket layout, public so tests can check that
  // obs::DefaultLatencyBucketEdges() are edges of this layout.
  static constexpr int kLinearBuckets = 64;  // 1us-exact region
  static constexpr int kSubBuckets = 32;     // per power-of-two group
  static constexpr int kGroups = 35;         // covers up to 2^40 us

  /// Upper-edge value in microseconds of bucket `index`.
  static uint64_t UpperEdgeUs(size_t index);

 private:
  static size_t IndexFor(uint64_t us);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace harness
}  // namespace qfix

#endif  // QFIX_HARNESS_HISTOGRAM_H_
