// BatchDiagnoser: many independent complaint -> encode -> solve
// pipelines over one work-stealing pool (src/exec).
//
// This is the entry point a multi-tenant diagnosis service loop would
// call: each BatchItem is a self-contained diagnosis request (a shared
// immutable snapshot of the log/checkpoint/dirty state plus its own
// complaint set), items run concurrently on the pool, and the result
// vector lines up with the input vector. Snapshots are zero-copy: any
// number of items (and concurrent batches) reference one cache::Dataset
// without duplicating tuples. With `jobs <= 0` the batch runs in the
// pool's deterministic serial mode — identical results, reproducible
// order — which is what the tests and single-core deployments use.
//
// With BatchOptions::report_cache set, items are memoized through a
// cache::ReportCache keyed by (snapshot name, version, canonical
// complaint/options hash): the one memoization path of library and
// server. Run() is Solve(Lookup()); the server calls the two halves
// itself, so that hits skip its admission gate and splice the cached
// report bytes unchanged.
#ifndef QFIX_QFIX_BATCH_H_
#define QFIX_QFIX_BATCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "cache/report_cache.h"
#include "cache/snapshot.h"
#include "common/result.h"
#include "exec/cancellation.h"
#include "provenance/complaint.h"
#include "qfix/qfix.h"
#include "relational/database.h"
#include "relational/query.h"

namespace qfix {
namespace exec {
class ThreadPool;
}  // namespace exec
namespace qfixcore {

/// One independent diagnosis request.
struct BatchItem {
  /// The immutable (D0, Q, D_n) snapshot this request diagnoses —
  /// shared, never copied. Use MakeBatchItem() to build one from
  /// by-value states (the tests/CLI adapter path).
  cache::Snapshot data;
  provenance::ComplaintSet complaints;
  QFixOptions options;
  /// Incremental batch size (RepairIncremental); 0 selects RepairBasic.
  int k = 1;
};

/// By-value adapter (tests, CLI): derives the dirty state by replaying
/// `log` on `d0` and freezes everything into a fresh snapshot. Inputs
/// are moved, not copied.
BatchItem MakeBatchItem(relational::QueryLog log, relational::Database d0,
                        provenance::ComplaintSet complaints,
                        QFixOptions options = QFixOptions(), int k = 1);

/// Zero-copy constructor: the item references `data` as-is.
BatchItem MakeBatchItem(cache::Snapshot data,
                        provenance::ComplaintSet complaints,
                        QFixOptions options = QFixOptions(), int k = 1);

struct BatchOptions {
  /// Pool workers; <= 0 runs deterministically on the calling thread.
  int jobs = 1;
  /// Wall-clock budget for the whole batch; items that have not started
  /// when it expires fail with ResourceExhausted instead of running.
  /// <= 0 disables (each item still honors its own per-item limit).
  double time_limit_seconds = 0.0;
  /// Optional caller-owned pool the batch runs on instead of building
  /// one per Run() call — a long-lived service shares one pool across
  /// every request instead of churning threads. Non-owning; must outlive
  /// Run(). When set, `jobs` is ignored.
  exec::ThreadPool* pool = nullptr;
  /// External cancellation (e.g. service shutdown): items that have not
  /// started when the token fires fail with ResourceExhausted instead of
  /// running. Default-constructed tokens never fire.
  exec::CancellationToken cancel;
  /// Optional memoization layer. Non-owning; must outlive Run().
  /// Proven-optimal repairs are published under the item's snapshot
  /// identity; repeat items come back with Repair::from_cache set and
  /// never touch the solver.
  cache::ReportCache* report_cache = nullptr;
};

/// The cache key BatchDiagnoser files an item under: snapshot identity
/// plus the canonical hash of the complaint set and every option that
/// changes the diagnosis.
cache::CacheKey ItemCacheKey(const BatchItem& item);

/// What BatchDiagnoser::Lookup found for each item, and the leaderships
/// it took. Move-only; destroying a plan abandons every leadership it
/// still holds, which settles any early exit before or in Solve().
class BatchPlan {
 public:
  enum class State {
    kUncached,   // no cache, no snapshot, or a cancelled wait: solve
    kLead,       // a cold miss this plan leads; Solve() settles it
    kHit,        // answered by report(); no solve
    kDuplicate,  // same key as an earlier item: shares its answer
  };

  BatchPlan() = default;
  BatchPlan(BatchPlan&& other) noexcept { *this = std::move(other); }
  BatchPlan& operator=(BatchPlan&& other) noexcept {
    AbandonLeads();
    cache_ = std::exchange(other.cache_, nullptr);
    entries_ = std::exchange(other.entries_, {});
    return *this;
  }
  ~BatchPlan() { AbandonLeads(); }

  State state(size_t i) const { return entries_[i].state; }
  /// Needs a solve of its own (kLead or kUncached).
  bool miss(size_t i) const {
    return state(i) == State::kLead || state(i) == State::kUncached;
  }
  /// A hit, or a duplicate of one.
  bool cached(size_t i) const {
    return state(entries_[i].source) == State::kHit;
  }
  size_t misses() const {
    size_t n = 0;
    for (size_t i = 0; i < entries_.size(); ++i) n += miss(i) ? 1 : 0;
    return n;
  }
  /// Item `i`'s report, read through the item it duplicates: a hit's
  /// cached entry or a solve's rendering, else nullptr.
  const cache::CachedReport* report(size_t i) const {
    return entries_[entries_[i].source].report.get();
  }

 private:
  friend class BatchDiagnoser;

  struct Entry {
    State state = State::kUncached;
    cache::CacheKey key;
    size_t source = 0;     // the item whose answer this one shares
    bool leading = false;  // leadership not yet published or abandoned
    std::shared_ptr<const cache::CachedReport> report;
  };

  void AbandonLeads();

  cache::ReportCache* cache_ = nullptr;
  std::vector<Entry> entries_;
};

/// Diagnoses every item and returns one Result per item, in input
/// order. Items are independent: a failure (infeasible, limits) in one
/// never affects the others. Thread-safe; a single BatchDiagnoser may
/// be shared across calls.
class BatchDiagnoser {
 public:
  explicit BatchDiagnoser(BatchOptions options = BatchOptions())
      : options_(options) {}

  /// Solve(Lookup()): a hit comes back as a copy of the cached Repair
  /// with Repair::from_cache set; identical items are solved once.
  std::vector<Result<Repair>> Run(const std::vector<BatchItem>& items) const;

  /// Consults the report cache for every item, in sorted (dataset,
  /// version, request_hash) order so that batches sharing keys cannot
  /// deadlock; an in-batch duplicate never looks its key up (it would
  /// wait on its own batch). Waits on other leaders poll `cancel`.
  BatchPlan Lookup(const std::vector<BatchItem>& items) const;

  /// Solves the misses of `plan` (from Lookup(items)) on the pool under
  /// the batch deadline and cancellation, publishes the optimal repairs
  /// it leads (a truncated incumbent depends on its budget and is never
  /// memoized), abandons the other leaderships, and copies each
  /// duplicate's result from its source. Published repairs are rendered
  /// once, into the plan; with `reports` every ok solve is (a server
  /// sends those bytes), and a hit's slot holds an Internal status
  /// instead of a Repair copy.
  std::vector<Result<Repair>> Solve(const std::vector<BatchItem>& items,
                                    BatchPlan* plan,
                                    bool reports = false) const;

 private:
  BatchOptions options_;
};

}  // namespace qfixcore
}  // namespace qfix

#endif  // QFIX_QFIX_BATCH_H_
