// Per-request phase tracing.
//
// A TraceContext is minted when a request enters the server (carrying
// the client's X-Request-Id, or a generated one) and rides through the
// pipeline. Handlers bracket each phase with BeginSpan()/EndSpan();
// span timestamps are offsets from the context's birth on the
// process-wide monotonic clock, so spans recorded on different threads
// (loop thread vs. handler pool vs. solver workers) line up. Spans
// nest: a span opened with a parent index renders as a child of that
// span (solver-internal phases hang off "solve", the prefix-replay
// span hangs off "encode"). The span list feeds four sinks: the opt-in
// "timings" block on /v1/diagnose responses, the per-phase latency
// histograms in obs::MetricsRegistry, the slow-request log, and the
// flight recorder (obs/recorder.h) for retained traces.
//
// Thread safety: span *recording* is guarded by a small mutex (solver
// child spans arrive from pool workers concurrently). The uncontended
// lock costs ~20ns per span — bench/obs.cpp holds the full
// per-request block under 2% of request p50. Reading spans() is only
// safe once every recording thread has been joined/synchronized (the
// server reads after BatchDiagnoser::Solve returns, which joins the
// workers); it returns a reference to avoid copying on the hot path.
#ifndef QFIX_OBS_TRACE_H_
#define QFIX_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace qfix {
namespace obs {

struct TraceSpan {
  std::string phase;
  /// Offsets in seconds from the TraceContext's birth.
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// Index of the enclosing span in TraceContext::spans(), or -1 for a
  /// top-level phase. Children always appear after their parent.
  int parent = -1;

  double DurationSeconds() const { return end_seconds - start_seconds; }
};

class TraceContext {
 public:
  /// Parent value for a top-level span.
  static constexpr size_t kNoParent = static_cast<size_t>(-2);
  /// Sentinel returned by BeginSpan/AddSpan when the span cap was hit
  /// (the span was dropped). EndSpan() on it is a no-op.
  static constexpr size_t kDroppedSpan = static_cast<size_t>(-1);
  /// Hard cap on spans per trace: keeps a pathological request (a B&B
  /// run at a high node rate, a huge batch) from growing the trace
  /// without bound. Drops are counted, never fatal.
  static constexpr size_t kMaxSpans = 256;

  /// `request_id` empty means "generate one".
  explicit TraceContext(std::string request_id = {});

  const std::string& request_id() const { return request_id_; }

  /// Opens a span at now; returns its index for EndSpan(). `parent` is
  /// the index of the enclosing span (kNoParent for a top-level phase).
  size_t BeginSpan(std::string_view phase, size_t parent = kNoParent);
  /// Closes span `index` at now. No-op for an already-closed span end
  /// in the past — callers may re-close to extend — and for
  /// kDroppedSpan.
  void EndSpan(size_t index);
  /// Records a span with explicit offsets (both relative to birth);
  /// used when a phase's extent is computed after the fact, e.g. the
  /// encode/solve split inside one BatchDiagnoser run. Returns the new
  /// span's index (kDroppedSpan past the cap).
  size_t AddSpan(std::string_view phase, double start_seconds,
                 double end_seconds, size_t parent = kNoParent);

  /// Seconds since this context was born.
  double ElapsedSeconds() const;

  /// NOT safe while another thread is still recording; synchronize
  /// (join the solve) first.
  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Spans discarded by the kMaxSpans cap.
  uint64_t dropped_spans() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::string request_id_;
  double birth_seconds_ = 0.0;  // monotonic
  mutable std::mutex mu_;       // guards spans_ growth/mutation
  std::vector<TraceSpan> spans_;
  std::atomic<uint64_t> dropped_{0};
};

/// A fresh request id: "q-" + 16 lowercase hex digits, unique within
/// the process and effectively unique across restarts (seeded from the
/// clock once). Thread-safe.
std::string GenerateRequestId();

/// Returns the id if it is safe to echo into a response header and a
/// JSON string — 1..64 chars of [A-Za-z0-9._-] — else empty. Anything
/// else (CR/LF header injection, quotes, overlong ids) is discarded
/// and the server generates its own.
std::string SanitizeRequestId(std::string_view id);

}  // namespace obs
}  // namespace qfix

#endif  // QFIX_OBS_TRACE_H_
