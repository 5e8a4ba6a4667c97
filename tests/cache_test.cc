// src/cache: versioned zero-copy snapshots and the memoized report
// cache. Covers the acceptance surface of the caching layer:
//   * snapshot identity (unique monotone versions, shared storage),
//   * ReportCache hit/miss/LRU-eviction at the byte budget,
//   * invalidation (EraseDataset, registry re-registration),
//   * singleflight coalescing under real concurrency (TSan lane), and
//     leaderships taken in key order (no lookup cycle between batches),
//   * the zero-copy contract: no implicit Database deep copy on the
//     diagnosis hot path, hits or misses (Database::CopyCount hook),
//   * BatchDiagnoser memoization: hits skip the solver and render
//     byte-identical reports, in-batch duplicates solve once, and a
//     repair cut short by a node, time or size limit is never
//     published.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cache/report_cache.h"
#include "cache/snapshot.h"
#include "common/logging.h"
#include "exec/cancellation.h"
#include "provenance/complaint.h"
#include "qfix/batch.h"
#include "qfix/report_json.h"
#include "relational/executor.h"
#include "service/registry.h"
#include "sql/parser.h"
#include "test_support.h"

namespace qfix {
namespace {

using cache::CachedReport;
using cache::CacheKey;
using cache::MakeSnapshot;
using cache::ReportCache;
using cache::Snapshot;
using provenance::ComplaintSet;
using provenance::DiffStates;
using relational::Database;
using relational::ExecuteLog;
using relational::QueryLog;

CacheKey Key(const std::string& dataset, uint64_t version, uint64_t hash) {
  CacheKey key;
  key.dataset = dataset;
  key.version = version;
  key.request_hash = hash;
  return key;
}

CachedReport Report(const std::string& json) {
  CachedReport out;
  out.report_json = json;
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot

TEST(SnapshotTest, VersionsAreUniqueAndMonotone) {
  Snapshot a = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "a");
  Snapshot b = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "b");
  EXPECT_GT(a.version(), 0u);
  EXPECT_GT(b.version(), a.version());
  EXPECT_EQ(a.name(), "a");
}

TEST(SnapshotTest, DerivesDirtyStateByReplay) {
  Snapshot s = MakeSnapshot(test::PaperLog(85700), test::TaxD0());
  EXPECT_EQ(s->d0().NumSlots(), 4u);
  EXPECT_EQ(s->dirty.NumSlots(), 5u);  // the INSERT added a tuple
}

TEST(SnapshotTest, CopyingSharesStorage) {
  Snapshot s = MakeSnapshot(test::PaperLog(85700), test::TaxD0());
  const int64_t before = Database::CopyCount();
  Snapshot t = s;
  Snapshot u = t;
  EXPECT_EQ(Database::CopyCount(), before);
  EXPECT_EQ(&u->d0(), &s->d0());
}

// ---------------------------------------------------------------------------
// ReportCache basics

TEST(ReportCacheTest, MissLeadPublishHit) {
  ReportCache cache(1 << 20);
  CacheKey key = Key("d", 1, 42);

  ReportCache::Outcome miss = cache.FindOrLead(key);
  EXPECT_EQ(miss.value, nullptr);
  EXPECT_TRUE(miss.lead);
  cache.Publish(key, Report("{\"x\":1}"));

  ReportCache::Outcome hit = cache.FindOrLead(key);
  ASSERT_NE(hit.value, nullptr);
  EXPECT_FALSE(hit.lead);
  EXPECT_FALSE(hit.coalesced);
  EXPECT_EQ(hit.value->report_json, "{\"x\":1}");

  ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ReportCacheTest, DistinctKeysAreDistinctEntries) {
  ReportCache cache(1 << 20);
  ReportCache::Outcome a = cache.FindOrLead(Key("d", 1, 1));
  ASSERT_TRUE(a.lead);
  cache.Publish(Key("d", 1, 1), Report("a"));
  // Same name+hash, different version (re-registration) is a miss.
  EXPECT_EQ(cache.FindOrLead(Key("d", 2, 1)).value, nullptr);
  cache.Abandon(Key("d", 2, 1));
  // Same version, different complaint hash is a miss.
  EXPECT_EQ(cache.FindOrLead(Key("d", 1, 2)).value, nullptr);
  cache.Abandon(Key("d", 1, 2));
  EXPECT_NE(cache.FindOrLead(Key("d", 1, 1)).value, nullptr);
}

TEST(ReportCacheTest, AbandonReleasesLeadershipWithoutAValue) {
  ReportCache cache(1 << 20);
  CacheKey key = Key("d", 1, 7);
  ASSERT_TRUE(cache.FindOrLead(key).lead);
  cache.Abandon(key);
  // The next lookup is a fresh miss with leadership again.
  ReportCache::Outcome again = cache.FindOrLead(key);
  EXPECT_EQ(again.value, nullptr);
  EXPECT_TRUE(again.lead);
  cache.Abandon(key);
}

TEST(ReportCacheTest, EvictsLeastRecentlyUsedAtByteBudget) {
  // Single shard so recency is strictly global; ~3 entries fit.
  const std::string payload(400, 'r');
  ReportCache cache(/*max_bytes=*/3 * (payload.size() + 200),
                    /*num_shards=*/1);
  for (uint64_t i = 0; i < 4; ++i) {
    CacheKey key = Key("d", 1, i);
    ASSERT_TRUE(cache.FindOrLead(key).lead);
    cache.Publish(key, Report(payload));
    // Touch key 0 after each insert so it stays hot.
    if (i > 0) cache.Peek(Key("d", 1, 0));
  }
  ReportCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, 3 * (payload.size() + 200));
  // The hot key survived; the coldest (key 1) was evicted.
  EXPECT_NE(cache.Peek(Key("d", 1, 0)), nullptr);
  EXPECT_EQ(cache.Peek(Key("d", 1, 1)), nullptr);
}

TEST(ReportCacheTest, EraseDatasetDropsAllVersions) {
  ReportCache cache(1 << 20);
  for (uint64_t v = 1; v <= 3; ++v) {
    CacheKey key = Key("gone", v, 1);
    ASSERT_TRUE(cache.FindOrLead(key).lead);
    cache.Publish(key, Report("x"));
  }
  CacheKey kept = Key("kept", 1, 1);
  ASSERT_TRUE(cache.FindOrLead(kept).lead);
  cache.Publish(kept, Report("y"));

  cache.EraseDataset("gone");
  for (uint64_t v = 1; v <= 3; ++v) {
    EXPECT_EQ(cache.Peek(Key("gone", v, 1)), nullptr) << v;
  }
  EXPECT_NE(cache.Peek(kept), nullptr);
  ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------------
// Singleflight

TEST(ReportCacheTest, ConcurrentIdenticalMissesCoalesceIntoOneSolve) {
  ReportCache cache(1 << 20);
  CacheKey key = Key("d", 1, 99);
  constexpr int kThreads = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &key, &leaders, &hits] {
      ReportCache::Outcome out = cache.FindOrLead(key);
      if (out.lead) {
        // The "solve": slow enough that the other threads pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        leaders.fetch_add(1);
        cache.Publish(key, Report("once"));
      } else if (out.value != nullptr) {
        EXPECT_EQ(out.value->report_json, "once");
        hits.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);
  EXPECT_GE(cache.stats().coalesced, 1u);
}

TEST(ReportCacheTest, CancelledWaitDegradesToUncachedMiss) {
  ReportCache cache(1 << 20);
  CacheKey key = Key("d", 1, 5);
  ASSERT_TRUE(cache.FindOrLead(key).lead);  // leader never settles

  exec::CancellationSource cancel;
  cancel.Cancel();
  ReportCache::Outcome out = cache.FindOrLead(key, cancel.token());
  EXPECT_EQ(out.value, nullptr);
  EXPECT_FALSE(out.lead);  // caller computes without publishing
  cache.Abandon(key);
}

// ---------------------------------------------------------------------------
// Request hashing

TEST(CacheHashTest, EqualComplaintSetsHashEqual) {
  Database d0 = test::TaxD0();
  Database dirty = ExecuteLog(test::PaperLog(85700), d0);
  Database truth = ExecuteLog(test::PaperLog(87500), d0);
  ComplaintSet a = DiffStates(dirty, truth);
  ComplaintSet b = DiffStates(dirty, truth);
  EXPECT_EQ(cache::HashComplaints(a), cache::HashComplaints(b));

  // Insertion order does not matter: ComplaintSet canonicalizes by tid.
  ComplaintSet fwd, rev;
  for (const auto& c : a.complaints()) fwd.Add(c);
  for (auto it = a.complaints().rbegin(); it != a.complaints().rend(); ++it) {
    rev.Add(*it);
  }
  EXPECT_EQ(cache::HashComplaints(fwd), cache::HashComplaints(rev));
}

TEST(CacheHashTest, DifferentComplaintsOrOptionsHashDifferent) {
  Database d0 = test::TaxD0();
  Database dirty = ExecuteLog(test::PaperLog(85700), d0);
  Database truth = ExecuteLog(test::PaperLog(87500), d0);
  ComplaintSet full = DiffStates(dirty, truth);
  ComplaintSet partial;
  partial.Add(full.complaints()[0]);
  EXPECT_NE(cache::HashComplaints(full), cache::HashComplaints(partial));

  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  qfixcore::BatchItem a = qfixcore::MakeBatchItem(snap, full);
  qfixcore::BatchItem b = qfixcore::MakeBatchItem(snap, full);
  b.k = 2;
  qfixcore::BatchItem c = qfixcore::MakeBatchItem(snap, full);
  c.options.refinement = false;
  EXPECT_NE(qfixcore::ItemCacheKey(a).request_hash,
            qfixcore::ItemCacheKey(b).request_hash);
  EXPECT_NE(qfixcore::ItemCacheKey(a).request_hash,
            qfixcore::ItemCacheKey(c).request_hash);
  EXPECT_EQ(qfixcore::ItemCacheKey(a).request_hash,
            qfixcore::ItemCacheKey(qfixcore::MakeBatchItem(snap, full))
                .request_hash);
}

// ---------------------------------------------------------------------------
// Registry integration

TEST(RegistryCacheTest, ReRegistrationMintsNewVersionAndInvalidates) {
  constexpr const char* kCsv =
      "income,owed,pay\n9500,950,8550\n90000,22500,67500\n";
  constexpr const char* kSql = "UPDATE Taxes SET pay = income - owed;";

  ReportCache cache(1 << 20);
  service::DatasetRegistry registry;
  registry.AttachReportCache(&cache);

  auto first = registry.Register("d", kCsv, "Taxes", kSql);
  ASSERT_TRUE(first.ok());
  CacheKey key = Key("d", (*first)->version, 1);
  ASSERT_TRUE(cache.FindOrLead(key).lead);
  cache.Publish(key, Report("stale"));

  auto second = registry.Register("d", kCsv, "Taxes", kSql);
  ASSERT_TRUE(second.ok());
  EXPECT_GT((*second)->version, (*first)->version);
  // Replacement erased the old name's entries eagerly.
  EXPECT_EQ(cache.Peek(key), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Erase drops the name and its entries.
  CacheKey key2 = Key("d", (*second)->version, 1);
  ASSERT_TRUE(cache.FindOrLead(key2).lead);
  cache.Publish(key2, Report("x"));
  EXPECT_TRUE(registry.Erase("d"));
  EXPECT_EQ(registry.Get("d"), nullptr);
  EXPECT_EQ(cache.Peek(key2), nullptr);
  EXPECT_FALSE(registry.Erase("d"));
}

// ---------------------------------------------------------------------------
// Zero-copy + memoized BatchDiagnoser

qfixcore::BatchItem PaperItem(const Snapshot& snap) {
  Database truth = ExecuteLog(test::PaperLog(87500), snap->d0());
  return qfixcore::MakeBatchItem(snap, DiffStates(snap->dirty, truth));
}

TEST(BatchCacheTest, HotPathPerformsZeroDatabaseDeepCopies) {
  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "taxes");
  qfixcore::BatchItem item = PaperItem(snap);
  ReportCache cache(1 << 20);
  qfixcore::BatchOptions options;
  options.jobs = 0;
  options.report_cache = &cache;
  qfixcore::BatchDiagnoser diagnoser(options);

  // Miss path: snapshot in, solve, publish — no implicit Database copy
  // anywhere (replay working states use the explicit Clone()).
  const int64_t before_miss = Database::CopyCount();
  auto cold = diagnoser.Run({item});
  EXPECT_EQ(Database::CopyCount(), before_miss);
  ASSERT_EQ(cold.size(), 1u);
  ASSERT_TRUE(cold[0].ok()) << cold[0].status().ToString();
  EXPECT_FALSE(cold[0]->from_cache);

  // Hit path: the solver never runs; still zero copies.
  const int64_t before_hit = Database::CopyCount();
  auto warm = diagnoser.Run({item});
  EXPECT_EQ(Database::CopyCount(), before_hit);
  ASSERT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm[0].ok());
  EXPECT_TRUE(warm[0]->from_cache);
}

TEST(BatchCacheTest, CacheHitSkipsSolverAndRendersByteIdenticalReport) {
  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "taxes");
  qfixcore::BatchItem item = PaperItem(snap);
  ReportCache cache(1 << 20);
  qfixcore::BatchOptions options;
  options.jobs = 0;
  options.report_cache = &cache;
  qfixcore::BatchDiagnoser diagnoser(options);

  auto cold = diagnoser.Run({item});
  ASSERT_TRUE(cold[0].ok());
  auto warm = diagnoser.Run({item});
  ASSERT_TRUE(warm[0].ok());
  EXPECT_TRUE(warm[0]->from_cache);
  // The hit skipped the solver: stats are the original solve's, and the
  // cache saw exactly one insert for two runs.
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(warm[0]->stats.solver_nodes, cold[0]->stats.solver_nodes);

  // Byte-identical rendering, including timing stats (they are the
  // original solve's, not re-measured).
  std::string cold_json = qfixcore::RepairToJson(
      *cold[0], snap->log, snap->d0().schema());
  std::string warm_json = qfixcore::RepairToJson(
      *warm[0], snap->log, snap->d0().schema());
  EXPECT_EQ(cold_json, warm_json);
  // And both match the published report document.
  auto entry = cache.Peek(qfixcore::ItemCacheKey(item));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->report_json, cold_json);
}

TEST(BatchCacheTest, ConcurrentBatchesShareOneSolve) {
  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "taxes");
  qfixcore::BatchItem item = PaperItem(snap);
  ReportCache cache(1 << 20);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Result<qfixcore::Repair>> results(
      kThreads, Result<qfixcore::Repair>(Status::Internal("unset")));
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &item, &results, t] {
      qfixcore::BatchOptions options;
      options.jobs = 0;
      options.report_cache = &cache;
      auto out = qfixcore::BatchDiagnoser(options).Run({item});
      results[t] = std::move(out[0]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    EXPECT_NEAR(results[t]->distance, results[0]->distance, 1e-9);
  }
  // Exactly one thread solved; everyone else hit (possibly coalesced).
  ReportCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(BatchCacheTest, IdenticalItemsInOneBatchSolveOnce) {
  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "taxes");
  qfixcore::BatchItem item = PaperItem(snap);
  ReportCache cache(1 << 20);
  qfixcore::BatchOptions options;
  options.jobs = 0;
  options.report_cache = &cache;
  qfixcore::BatchDiagnoser diagnoser(options);

  // The duplicate never looks its key up (it would wait on its own
  // batch): one miss, one solve, one insert, and it shares the result.
  auto cold = diagnoser.Run({item, item});
  ASSERT_EQ(cold.size(), 2u);
  ASSERT_TRUE(cold[0].ok()) << cold[0].status().ToString();
  ASSERT_TRUE(cold[1].ok()) << cold[1].status().ToString();
  EXPECT_FALSE(cold[1]->from_cache);
  EXPECT_EQ(cold[1]->stats.solver_nodes, cold[0]->stats.solver_nodes);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);

  // Again: one lookup hits, and the duplicate of the hit is a hit too.
  auto warm = diagnoser.Run({item, item});
  ASSERT_EQ(warm.size(), 2u);
  for (const auto& r : warm) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->from_cache);
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

// Leaderships are taken in sorted key order: a batch waiting on its
// smaller key holds no larger one yet, so two batches sharing keys in
// opposite input order can never wait on each other in a cycle.
TEST(BatchCacheTest, LookupTakesLeadershipsInKeyOrder) {
  Snapshot snap = MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "taxes");
  qfixcore::BatchItem a = PaperItem(snap);
  qfixcore::BatchItem b = a;
  b.k = 2;  // a second key on the same snapshot
  const bool a_first = qfixcore::ItemCacheKey(a).request_hash <
                       qfixcore::ItemCacheKey(b).request_hash;
  const CacheKey small = qfixcore::ItemCacheKey(a_first ? a : b);
  const CacheKey large = qfixcore::ItemCacheKey(a_first ? b : a);

  // Another batch leads the smaller key.
  ReportCache cache(1 << 20);
  ASSERT_TRUE(cache.FindOrLead(small).lead);
  qfixcore::BatchOptions options;
  options.jobs = 0;
  options.report_cache = &cache;
  std::thread batch([&] {
    qfixcore::BatchDiagnoser(options).Run({a_first ? b : a, a_first ? a : b});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The batch waits on the smaller key, so the larger one is still free
  // to lead (a cancelled token makes the probe return instead of wait).
  exec::CancellationSource no_wait;
  no_wait.Cancel();
  ReportCache::Outcome probe = cache.FindOrLead(large, no_wait.token());
  EXPECT_TRUE(probe.lead);
  if (probe.lead) cache.Abandon(large);
  cache.Abandon(small);
  batch.join();
  EXPECT_EQ(cache.stats().inserts, 2u);
}

// A basic-mode item on the padded taxes log, whose diagnosis takes a
// real branch & bound search.
qfixcore::BatchItem SlowTaxItem() {
  auto log = sql::ParseLog(test::SlowTaxLogSql(), test::TaxSchema());
  QFIX_CHECK(log.ok());
  Snapshot snap = MakeSnapshot(*log, test::TaxD0(), "slow_taxes");
  provenance::Complaint complaint;
  complaint.tid = 2;
  complaint.target_values = {86000, 21500, 50000};
  ComplaintSet complaints;
  complaints.Add(complaint);
  qfixcore::QFixOptions basic;
  basic.time_limit_seconds = 20.0;
  return qfixcore::MakeBatchItem(snap, complaints, basic, /*k=*/0);
}

// Runs `item` twice through one diagnoser and report cache: each run
// must end in an error status or a repair not proven optimal, and the
// cache must store nothing, so the repeat is not served from it.
// Returns the repeat's status.
Status ExpectNeverMemoized(const qfixcore::BatchItem& item) {
  ReportCache cache(1 << 20);
  qfixcore::BatchOptions options;
  options.jobs = 0;
  options.report_cache = &cache;
  qfixcore::BatchDiagnoser diagnoser(options);
  Status status;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    auto out = diagnoser.Run({item});
    status = out[0].status();
    if (out[0].ok()) {
      EXPECT_FALSE(out[0]->stats.optimal);
      EXPECT_FALSE(out[0]->from_cache);
    }
    EXPECT_EQ(cache.stats().inserts, 0u);
  }
  EXPECT_EQ(cache.Peek(qfixcore::ItemCacheKey(item)), nullptr);
  return status;
}

// A repair found under a limit is a feasible incumbent, not an optimum:
// it depends on the budget and must never be memoized (the key leaves
// time and node limits out).
TEST(BatchCacheTest, TruncatedRepairIsNeverMemoized) {
  qfixcore::BatchItem item = SlowTaxItem();

  qfixcore::BatchOptions options;
  options.jobs = 0;

  // Uncapped, the search proves its optimum and publishes it.
  ReportCache uncapped(1 << 20);
  options.report_cache = &uncapped;
  auto full = qfixcore::BatchDiagnoser(options).Run({item});
  ASSERT_TRUE(full[0].ok()) << full[0].status().ToString();
  EXPECT_TRUE(full[0]->stats.optimal);
  EXPECT_GT(full[0]->stats.solver_nodes, 1);
  EXPECT_EQ(uncapped.stats().inserts, 1u);

  // One node: an ok repair that is not proven optimal.
  item.options.milp.max_nodes = 1;
  ReportCache capped(1 << 20);
  options.report_cache = &capped;
  qfixcore::BatchDiagnoser diagnoser(options);
  auto truncated = diagnoser.Run({item});
  ASSERT_TRUE(truncated[0].ok()) << truncated[0].status().ToString();
  EXPECT_FALSE(truncated[0]->stats.optimal);
  EXPECT_FALSE(truncated[0]->from_cache);
  EXPECT_EQ(capped.stats().inserts, 0u);
  EXPECT_EQ(capped.Peek(qfixcore::ItemCacheKey(item)), nullptr);

  // The leadership was abandoned, not kept: a repeat solves again.
  auto again = diagnoser.Run({item});
  ASSERT_TRUE(again[0].ok()) << again[0].status().ToString();
  EXPECT_FALSE(again[0]->from_cache);
  EXPECT_EQ(capped.stats().inserts, 0u);
}

// A budget that expires before the solve starts ends the diagnosis. The
// solver reads a time limit of 0 as "none", so the 0 s left of a passed
// deadline must never reach it: this search would run to optimality and
// publish its report.
TEST(BatchCacheTest, ExpiredBudgetIsNeverMemoized) {
  qfixcore::BatchItem item = SlowTaxItem();
  item.options.time_limit_seconds = 1e-7;
  Status status = ExpectNeverMemoized(item);
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
}

// An LP over the solver's size budget (here: any LP with more than one
// row after presolve) ends the solve instead of yielding a repair.
TEST(BatchCacheTest, OversizeModelIsNeverMemoized) {
  qfixcore::BatchItem item = SlowTaxItem();
  item.options.milp.lp.max_rows = 1;
  Status status = ExpectNeverMemoized(item);
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
}

}  // namespace
}  // namespace qfix
