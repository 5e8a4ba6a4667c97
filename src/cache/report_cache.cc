#include "cache/report_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace qfix {
namespace cache {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t seed, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    seed ^= p[i];
    seed *= kFnvPrime;
  }
  return seed;
}

/// Accounting overhead per entry beyond the report bytes: key strings,
/// map node, LRU node, control block. An estimate — the budget is a
/// sizing knob, not an allocator contract.
constexpr size_t kEntryOverheadBytes = 160;

/// How often a blocked FindOrLead() wakes to poll its cancel token even
/// if the leader has not settled.
constexpr std::chrono::milliseconds kWaitPoll(50);

}  // namespace

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return FnvBytes(seed ^ kFnvOffset, &value, sizeof(value));
}

uint64_t HashComplaints(const provenance::ComplaintSet& complaints) {
  // ComplaintSet keeps complaints sorted by tid with at most one per
  // tuple, so iterating is already canonical.
  uint64_t h = kFnvOffset;
  for (const provenance::Complaint& c : complaints.complaints()) {
    h = FnvBytes(h, &c.tid, sizeof(c.tid));
    unsigned char alive = c.target_alive ? 1 : 0;
    h = FnvBytes(h, &alive, sizeof(alive));
    // Hash exact value bits: two sets are "the same request" only if
    // replaying them would target bit-identical states.
    for (double v : c.target_values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = FnvBytes(h, &bits, sizeof(bits));
    }
  }
  return h;
}

size_t ReportCache::KeyHash::operator()(const CacheKey& key) const {
  uint64_t h = FnvBytes(kFnvOffset, key.dataset.data(), key.dataset.size());
  h = HashCombine(h, key.version);
  h = HashCombine(h, key.request_hash);
  return static_cast<size_t>(h);
}

std::string_view TenantOf(std::string_view dataset_name) {
  size_t slash = dataset_name.find('/');
  return slash == std::string_view::npos ? dataset_name
                                         : dataset_name.substr(0, slash);
}

ReportCache::ReportCache(size_t max_bytes, size_t num_shards,
                         double max_tenant_fraction) {
  max_bytes_ = max_bytes;
  num_shards = std::max<size_t>(num_shards, 1);
  shard_budget_ = std::max<size_t>(max_bytes / num_shards, 1);
  if (max_tenant_fraction <= 0.0 || max_tenant_fraction > 1.0) {
    max_tenant_fraction = 1.0;
  }
  tenant_budget_ = std::max<size_t>(
      static_cast<size_t>(static_cast<double>(shard_budget_) *
                          max_tenant_fraction),
      1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ReportCache::Shard& ReportCache::ShardFor(const CacheKey& key) {
  return *shards_[KeyHash()(key) % shards_.size()];
}

void ReportCache::RemoveSettledLocked(
    Shard& shard,
    std::unordered_map<CacheKey, Entry, KeyHash>::iterator it) {
  shard.bytes -= it->second.bytes;
  auto tb = shard.tenant_bytes.find(
      std::string(TenantOf(it->first.dataset)));
  if (tb != shard.tenant_bytes.end()) {
    tb->second -= std::min(tb->second, it->second.bytes);
    if (tb->second == 0) shard.tenant_bytes.erase(tb);
  }
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
}

void ReportCache::EvictOverBudget(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    auto it = shard.map.find(shard.lru.back());
    if (it != shard.map.end()) {
      RemoveSettledLocked(shard, it);
      ++shard.evictions;
    } else {
      shard.lru.pop_back();
    }
  }
}

void ReportCache::EvictTenantOverBudget(Shard& shard,
                                        std::string_view tenant,
                                        const CacheKey& keep) {
  auto tb = shard.tenant_bytes.find(std::string(tenant));
  if (tb == shard.tenant_bytes.end() || tb->second <= tenant_budget_) return;
  // Walk this tenant's entries from the LRU tail. The just-published
  // entry is spared: a single over-budget report may still be cached
  // (the global budget bounds it), it just evicts its tenant's older
  // entries first.
  for (auto lit = shard.lru.rbegin(); lit != shard.lru.rend();) {
    auto tb_now = shard.tenant_bytes.find(std::string(tenant));
    if (tb_now == shard.tenant_bytes.end() ||
        tb_now->second <= tenant_budget_) {
      return;
    }
    const CacheKey& candidate = *lit;
    ++lit;
    if (TenantOf(candidate.dataset) != tenant || candidate == keep) {
      continue;
    }
    auto it = shard.map.find(candidate);
    if (it != shard.map.end()) {
      // Erasing invalidates `lit` if it points at the erased node;
      // restart from the tail (eviction is rare and the tail is where
      // victims live).
      RemoveSettledLocked(shard, it);
      ++shard.evictions;
      lit = shard.lru.rbegin();
    }
  }
}

ReportCache::Outcome ReportCache::FindOrLead(
    const CacheKey& key, const exec::CancellationToken& cancel) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mu);
  bool waited = false;
  while (true) {
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      // Cold miss: take leadership with a pending (valueless)
      // placeholder.
      shard.map.emplace(key, Entry());
      ++shard.misses;
      Outcome out;
      out.lead = true;
      return out;
    }
    if (it->second.value != nullptr) {
      // Hit: refresh recency.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ++shard.hits;
      if (waited) ++shard.coalesced;
      Outcome out;
      out.value = it->second.value;
      out.coalesced = waited;
      return out;
    }
    // A leader is in flight; wait for it to settle, polling the cancel
    // token so shutdown (or a crashed leader's waiters) cannot hang.
    if (cancel.cancelled()) {
      ++shard.misses;
      return Outcome();
    }
    waited = true;
    shard.cv.wait_for(lock, kWaitPoll);
  }
}

std::shared_ptr<const CachedReport> ReportCache::Peek(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.value == nullptr) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  ++shard.hits;
  return it->second.value;
}

void ReportCache::Publish(const CacheKey& key, CachedReport report) {
  Shard& shard = ShardFor(key);
  size_t bytes = key.dataset.size() + report.report_json.size() +
                 kEntryOverheadBytes;
  auto value = std::make_shared<const CachedReport>(std::move(report));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(key, Entry());
    Entry& entry = it->second;
    std::string tenant(TenantOf(key.dataset));
    if (!inserted && entry.value != nullptr) {
      // Replacing a settled entry (uncoordinated insert): drop the old
      // accounting and recency slot first.
      shard.bytes -= entry.bytes;
      auto tb = shard.tenant_bytes.find(tenant);
      if (tb != shard.tenant_bytes.end()) {
        tb->second -= std::min(tb->second, entry.bytes);
      }
      shard.lru.erase(entry.lru_it);
    }
    entry.value = std::move(value);
    entry.bytes = bytes;
    shard.lru.push_front(key);
    entry.lru_it = shard.lru.begin();
    shard.bytes += bytes;
    shard.tenant_bytes[tenant] += bytes;
    ++shard.inserts;
    // Partition first (a hungry tenant churns its own tail), then the
    // global budget.
    EvictTenantOverBudget(shard, tenant, key);
    EvictOverBudget(shard);
  }
  shard.cv.notify_all();
}

void ReportCache::Abandon(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && it->second.value == nullptr) {
      shard.map.erase(it);
    }
  }
  shard.cv.notify_all();
}

void ReportCache::EraseDataset(std::string_view name) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      // Pending entries stay: their leader still owns Publish/Abandon,
      // and their stale-version key can never be queried again anyway.
      if (it->first.dataset == name && it->second.value != nullptr) {
        auto doomed = it++;
        RemoveSettledLocked(shard, doomed);
        ++shard.invalidations;
      } else {
        ++it;
      }
    }
  }
}

void ReportCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (it->second.value != nullptr) {
        shard.lru.erase(it->second.lru_it);
        it = shard.map.erase(it);
        ++shard.invalidations;
      } else {
        ++it;
      }
    }
    shard.bytes = 0;
    shard.tenant_bytes.clear();
  }
}

ReportCache::Stats ReportCache::stats() const {
  Stats out;
  out.capacity_bytes = max_bytes_;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.coalesced += shard.coalesced;
    out.inserts += shard.inserts;
    out.evictions += shard.evictions;
    out.invalidations += shard.invalidations;
    out.bytes += shard.bytes;
    out.entries += shard.lru.size();
  }
  return out;
}

size_t ReportCache::TenantBytes(std::string_view tenant) const {
  size_t out = 0;
  std::string key(tenant);
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenant_bytes.find(key);
    if (it != shard.tenant_bytes.end()) out += it->second;
  }
  return out;
}

size_t ReportCache::DatasetBytes(std::string_view name) const {
  size_t out = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& kv : shard.map) {
      if (kv.first.dataset == name && kv.second.value != nullptr) {
        out += kv.second.bytes;
      }
    }
  }
  return out;
}

}  // namespace cache
}  // namespace qfix
