#include "qfix/batch.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "common/timer.h"
#include "exec/cancellation.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "qfix/report_json.h"

namespace qfix {
namespace qfixcore {

namespace {

uint64_t HashDouble(uint64_t seed, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return cache::HashCombine(seed, bits);
}

/// Folds every QFixOptions knob that changes the *result* (not just the
/// runtime) of a diagnosis into the cache identity — the slicing
/// switches and every EncoderOptions field, since each alters the model
/// (and with it the repair) a solve can produce. Time limits are
/// deliberately excluded: only proven-optimal solves are published, and
/// an optimum is the same repair whether the budget was 10s or 120s.
uint64_t OptionsFingerprint(const QFixOptions& options) {
  uint64_t bits = 0;
  bits |= options.tuple_slicing ? 1u : 0u;
  bits |= options.query_slicing ? 2u : 0u;
  bits |= options.attribute_slicing ? 4u : 0u;
  bits |= options.refinement ? 8u : 0u;
  bits |= options.single_corruption_filter ? 16u : 0u;
  bits |= options.polish_params ? 32u : 0u;
  bits |= options.encoder.parameterize_coefficients ? 64u : 0u;
  bits |= options.encoder.fold_constants ? 128u : 0u;
  uint64_t h = cache::HashCombine(0, bits);
  h = HashDouble(h, options.refine_distance_weight);
  h = HashDouble(h, options.encoder.value_bound);
  h = HashDouble(h, options.encoder.epsilon);
  h = HashDouble(h, options.encoder.param_distance_weight);
  h = HashDouble(h, options.encoder.soft_match_weight);
  return h;
}

}  // namespace

BatchItem MakeBatchItem(relational::QueryLog log, relational::Database d0,
                        provenance::ComplaintSet complaints,
                        QFixOptions options, int k) {
  return MakeBatchItem(cache::MakeSnapshot(std::move(log), std::move(d0)),
                       std::move(complaints), options, k);
}

BatchItem MakeBatchItem(cache::Snapshot data,
                        provenance::ComplaintSet complaints,
                        QFixOptions options, int k) {
  return BatchItem{std::move(data), std::move(complaints), options, k};
}

cache::CacheKey ItemCacheKey(const BatchItem& item) {
  cache::CacheKey key;
  key.dataset = item.data ? item.data.name() : std::string();
  // Prefix-aware identity (incremental ingest): instead of the exact
  // snapshot version, key on the signature of the chunk prefix this
  // complaint window can actually observe. Versions derived by append
  // share it unless the appended queries can affect the complaints, so
  // reports survive unrelated appends; for an unchunked dataset it
  // degenerates to a version-unique value (same behavior as before).
  key.version =
      item.data ? cache::WindowSignature(*item.data, item.complaints) : 0;
  uint64_t h = cache::HashComplaints(item.complaints);
  h = cache::HashCombine(h, static_cast<uint64_t>(item.k));
  h = cache::HashCombine(h, OptionsFingerprint(item.options));
  key.request_hash = h;
  return key;
}

void BatchPlan::AbandonLeads() {
  for (Entry& entry : entries_) {
    if (entry.leading) cache_->Abandon(entry.key);
    entry.leading = false;
  }
}

BatchPlan BatchDiagnoser::Lookup(const std::vector<BatchItem>& items) const {
  BatchPlan plan;
  plan.cache_ = options_.report_cache;
  plan.entries_.resize(items.size());
  std::vector<size_t> order;
  for (size_t i = 0; i < items.size(); ++i) {
    plan.entries_[i].source = i;
    if (plan.cache_ == nullptr || !items[i].data) continue;
    plan.entries_[i].key = ItemCacheKey(items[i]);
    order.push_back(i);
  }
  // A batch holds several leaderships at once while later lookups may
  // block on other batches' leaders. Acquiring in one global key order
  // means every wait targets a key strictly greater than anything the
  // waiter holds, so no cycle (deadlock) can form. The sort is stable:
  // equal keys stay in input order, adjacent, the earliest one first.
  auto key_of = [&](size_t i) {
    const cache::CacheKey& key = plan.entries_[i].key;
    return std::tie(key.dataset, key.version, key.request_hash);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return key_of(a) < key_of(b); });
  for (size_t pos = 0; pos < order.size(); ++pos) {
    BatchPlan::Entry& entry = plan.entries_[order[pos]];
    if (pos > 0 && plan.entries_[order[pos - 1]].key == entry.key) {
      entry.state = BatchPlan::State::kDuplicate;
      entry.source = plan.entries_[order[pos - 1]].source;
      continue;
    }
    cache::ReportCache::Outcome found =
        plan.cache_->FindOrLead(entry.key, options_.cancel);
    if (found.value != nullptr && found.value->payload != nullptr) {
      entry.state = BatchPlan::State::kHit;
      entry.report = std::move(found.value);
    } else if (found.lead) {
      entry.state = BatchPlan::State::kLead;
      entry.leading = true;
    }
    // Otherwise a cancelled wait (or an entry published without a
    // payload): solve without publishing.
  }
  return plan;
}

std::vector<Result<Repair>> BatchDiagnoser::Solve(
    const std::vector<BatchItem>& items, BatchPlan* plan, bool reports) const {
  // Slots are written by exactly one task each and only read after
  // Wait(), so no per-slot locking is needed; the same holds for the
  // plan entry each task settles. A task skipped by cancellation never
  // fills its slot.
  std::vector<Result<Repair>> out(
      items.size(), Status::ResourceExhausted(
                        "batch cancelled before this item started"));

  Deadline deadline = Deadline::AfterSeconds(options_.time_limit_seconds);
  exec::CancellationSource batch_cancel;

  // Reuse the caller's pool when one was provided; otherwise build a
  // private one for this call (the original owning path).
  std::optional<exec::ThreadPool> owned;
  exec::ThreadPool* pool = options_.pool;
  if (pool == nullptr) {
    owned.emplace(options_.jobs);
    pool = &*owned;
  }
  exec::TaskGroup group(pool, batch_cancel.token());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!plan->miss(i)) continue;
    group.Spawn([this, &items, plan, reports, &out, &deadline,
                 &batch_cancel, i] {
      if (options_.cancel.cancelled()) {
        out[i] = Status::ResourceExhausted("batch cancelled");
        return;
      }
      const double remaining = deadline.RemainingSeconds();
      if (batch_cancel.cancelled() || remaining <= 0.0) {
        batch_cancel.Cancel();
        out[i] = Status::ResourceExhausted("batch time limit reached");
        return;
      }
      const BatchItem& item = items[i];
      if (!item.data) {
        // A default-constructed item never got a snapshot; the by-value
        // path used to degrade to an empty log, but dereferencing a
        // null Dataset would crash.
        out[i] = Status::InvalidArgument(
            "BatchItem has no snapshot; build it with MakeBatchItem()");
        return;
      }

      QFixOptions options = item.options;
      // Clamp the per-item budget to what was left of the batch budget,
      // read once above: a 0 read here would mean "no limit" to the
      // engine. A disabled (<= 0) per-item limit must not escape it.
      if (options.time_limit_seconds <= 0.0 ||
          remaining < options.time_limit_seconds) {
        options.time_limit_seconds = remaining;
      }
      QFixEngine engine(item.data, item.complaints, options);
      Result<Repair> result = item.k <= 0 ? engine.RepairBasic()
                                          : engine.RepairIncremental(item.k);
      // Memoize only proven-optimal repairs: a limit-truncated feasible
      // incumbent depends on this request's budget and must not be
      // served to callers with bigger ones (the key deliberately
      // excludes time limits).
      BatchPlan::Entry& entry = plan->entries_[i];
      const bool publish =
          entry.leading && result.ok() && result->stats.optimal;
      if (result.ok() && (publish || reports)) {
        // Rendering reads the repair's verdict and replays nothing: once
        // per solve, and the bytes published are the bytes a server sends.
        auto report = std::make_shared<cache::CachedReport>();
        report->report_json = RepairToJson(*result, item.data->log,
                                           item.data->d0().schema());
        if (publish) {
          report->payload = std::make_shared<const Repair>(*result);
          plan->cache_->Publish(entry.key, *report);
          entry.leading = false;
        }
        entry.report = std::move(report);
      }
      out[i] = std::move(result);
    });
  }
  group.Wait();
  // Failures, truncations and items the cancellation skipped: waiters
  // retry with their own budget.
  plan->AbandonLeads();

  for (size_t i = 0; i < items.size(); ++i) {
    const size_t src = plan->entries_[i].source;
    if (src != i) {
      out[i] = out[src];  // sources precede their duplicates
    } else if (plan->cached(i) && reports) {
      out[i] = Status::Internal("served from the report cache");
    } else if (plan->cached(i)) {
      Repair hit =
          *std::static_pointer_cast<const Repair>(plan->report(i)->payload);
      hit.from_cache = true;
      out[i] = std::move(hit);
    }
  }
  return out;
}

std::vector<Result<Repair>> BatchDiagnoser::Run(
    const std::vector<BatchItem>& items) const {
  BatchPlan plan = Lookup(items);
  return Solve(items, &plan);
}

}  // namespace qfixcore
}  // namespace qfix
