// Memoized diagnosis reports: a sharded, thread-safe LRU keyed by
// (dataset name, snapshot version, canonical request hash).
//
// Production complaint traffic is repetitive — the same dataset version
// gets diagnosed against overlapping complaint sets — while each solve
// builds and searches a MILP. The cache amortizes that: a hit returns
// the byte-identical report of the original solve (plus an optional
// type-erased payload, e.g. the qfixcore::Repair, for library callers)
// without touching the solver.
//
// Singleflight: concurrent identical misses coalesce into one solve.
// The first caller of FindOrLead() on an absent key becomes the leader
// (Outcome::lead) and MUST later Publish() or Abandon() the key; every
// concurrent caller blocks until the leader settles and then returns
// the published value (Outcome::coalesced) or retries for leadership.
// Waiting polls a cancellation token so shutdown never deadlocks on an
// abandoned leader.
//
// Invalidation is structural: keys carry the snapshot version, so a
// re-registered dataset (fresh version) never matches stale entries.
// EraseDataset() additionally drops every entry of a name eagerly —
// the registry calls it on replacement/eviction so dead bytes do not
// sit in the budget until LRU pressure finds them.
//
// Tenant partitions: entries are attributed to the dataset's namespace
// (TenantOf — the prefix before the first '/'). An optional
// per-tenant fraction caps how much of the byte budget any one tenant
// may hold; past it, that tenant's own LRU tail is evicted first, so a
// cache-hungry tenant churns its own entries instead of flushing
// everyone else's working set.
#ifndef QFIX_CACHE_REPORT_CACHE_H_
#define QFIX_CACHE_REPORT_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "exec/cancellation.h"
#include "provenance/complaint.h"

namespace qfix {
namespace cache {

/// Identity of one memoizable diagnosis request.
struct CacheKey {
  std::string dataset;
  /// Snapshot identity — historically the exact registration version;
  /// the batch diagnoser now fills it with cache::WindowSignature (the
  /// chunk-prefix signature the complaint window can observe) so
  /// reports survive appends that cannot change them. Either way it is
  /// unique per lineage: stale entries are unreachable, not wrong.
  uint64_t version = 0;
  /// Canonical hash of the complaint set plus the request knobs that
  /// change the report (k/basic, denoise, engine options) — see
  /// HashComplaints()/HashCombine().
  uint64_t request_hash = 0;

  bool operator==(const CacheKey& other) const {
    return version == other.version && request_hash == other.request_hash &&
           dataset == other.dataset;
  }
};

/// FNV-1a style mixing of two hashes (order-sensitive).
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// Canonical hash of a complaint set. ComplaintSet is tid-sorted with at
/// most one complaint per tuple, so equal sets hash equal regardless of
/// the order or formatting they arrived in.
uint64_t HashComplaints(const provenance::ComplaintSet& complaints);

/// One cached diagnosis result.
struct CachedReport {
  /// The exact report_json rendering of the original solve; a hit
  /// splices these bytes into the response unchanged.
  std::string report_json;
  /// Optional structured result (type-erased; e.g. a
  /// shared_ptr<const qfixcore::Repair>) so library callers can skip
  /// the solver too, not just the rendering.
  std::shared_ptr<const void> payload;
};

/// The tenant (dataset namespace) a dataset name belongs to: the prefix
/// before the first '/', or the whole name when it has none. The one
/// definition of the rule: the service layer's admission and metrics
/// use it too (service::TenantOf).
std::string_view TenantOf(std::string_view dataset_name);

class ReportCache {
 public:
  /// `max_bytes` bounds the sum of cached report bytes (plus a small
  /// per-entry overhead estimate) across all shards; the least recently
  /// used entries are evicted beyond it. `num_shards` bounds lock
  /// contention; each shard owns 1/num_shards of the budget.
  /// `max_tenant_fraction` in (0, 1] caps one tenant's slice of each
  /// shard's budget (1.0 = no partitioning).
  explicit ReportCache(size_t max_bytes, size_t num_shards = 8,
                       double max_tenant_fraction = 1.0);

  ReportCache(const ReportCache&) = delete;
  ReportCache& operator=(const ReportCache&) = delete;

  /// Outcome of a lookup (see the singleflight contract above).
  struct Outcome {
    /// The cached report, or nullptr on a miss.
    std::shared_ptr<const CachedReport> value;
    /// Miss with leadership: the caller must Publish() or Abandon().
    bool lead = false;
    /// Hit served by waiting on a concurrent leader's solve.
    bool coalesced = false;
  };

  /// Looks `key` up; on a cold miss the caller becomes the leader. If a
  /// leader is already in flight, blocks until it settles (polling
  /// `cancel`); a cancelled wait returns a plain miss with lead ==
  /// false — the caller should compute without publishing.
  Outcome FindOrLead(const CacheKey& key,
                     const exec::CancellationToken& cancel =
                         exec::CancellationToken());

  /// Non-blocking, no-leadership probe. Returns the value or nullptr.
  std::shared_ptr<const CachedReport> Peek(const CacheKey& key);

  /// Publishes the leader's result and wakes every waiter. Also valid
  /// without leadership (an uncoordinated insert); last write wins.
  void Publish(const CacheKey& key, CachedReport report);

  /// Releases leadership without a value (failed solve, shed request).
  /// Waiters wake and retry for leadership.
  void Abandon(const CacheKey& key);

  /// Drops every settled entry of `name`, any version. Called by the
  /// registry when a name is replaced or evicted.
  void EraseDataset(std::string_view name);

  /// Drops every settled entry.
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Hits served by waiting on a concurrent identical solve.
    uint64_t coalesced = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    /// Entries dropped by EraseDataset()/Clear().
    uint64_t invalidations = 0;
    size_t bytes = 0;
    size_t entries = 0;
    size_t capacity_bytes = 0;
  };
  Stats stats() const;

  /// Settled bytes currently held by `tenant` across all shards.
  size_t TenantBytes(std::string_view tenant) const;

  /// Settled bytes currently held by entries of dataset `name` (any
  /// version) across all shards. O(entries); a stats-path gauge, not a
  /// hot-path accessor.
  size_t DatasetBytes(std::string_view name) const;

 private:
  struct Entry {
    /// nullptr while pending (a leader's solve is in flight).
    std::shared_ptr<const CachedReport> value;
    size_t bytes = 0;
    /// Position in the shard's LRU list (valid only when settled).
    std::list<CacheKey>::iterator lru_it;
  };

  struct KeyHash {
    size_t operator()(const CacheKey& key) const;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<CacheKey, Entry, KeyHash> map;
    /// Most recent at the front; only settled entries live here.
    std::list<CacheKey> lru;
    /// Settled bytes per tenant (dataset namespace) in this shard.
    std::unordered_map<std::string, size_t> tenant_bytes;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coalesced = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(const CacheKey& key);
  /// Evicts from the LRU tail until the shard fits its budget. Caller
  /// holds the shard lock.
  void EvictOverBudget(Shard& shard);
  /// Evicts `tenant`'s own LRU tail until it fits the tenant budget,
  /// sparing `keep` (the entry just published). Caller holds the lock.
  void EvictTenantOverBudget(Shard& shard, std::string_view tenant,
                             const CacheKey& keep);
  /// Removes one settled entry (map erase + LRU unlink + byte
  /// accounting, global and tenant). Caller holds the shard lock.
  void RemoveSettledLocked(
      Shard& shard, std::unordered_map<CacheKey, Entry, KeyHash>::iterator it);

  size_t max_bytes_;
  size_t shard_budget_;
  size_t tenant_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cache
}  // namespace qfix

#endif  // QFIX_CACHE_REPORT_CACHE_H_
