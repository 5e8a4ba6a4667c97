// Incremental ingest (src/ingest + the append paths threaded through
// cache/service): chunk sealing and signature chains, structural
// sharing across AppendSnapshot (zero Database copies), the memoized
// EncodingCache and its lineage walk, prefix-aware report-cache keys
// (cache::WindowSignature) and their survival/invalidation boundaries,
// DatasetRegistry::Append atomicity + lineage pinning, the
// /v1/datasets/{name}/append endpoint end-to-end (a pre-append window
// diagnosis is served from cache after an append; a diagnosis covering
// appended rows re-encodes only the tail), and a concurrent
// append/diagnose/evict loop for the TSan lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/report_cache.h"
#include "cache/snapshot.h"
#include "common/json.h"
#include "ingest/chunk.h"
#include "ingest/encoding_cache.h"
#include "provenance/complaint.h"
#include "qfix/batch.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "service/client.h"
#include "service/json_value.h"
#include "service/registry.h"
#include "service/server.h"
#include "test_support.h"

namespace qfix {
namespace {

using relational::CmpOp;
using relational::Database;
using relational::LinearExpr;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using service::DatasetRegistry;
using service::JsonValue;
using service::ParseJson;
using service::RegistryOptions;

constexpr const char* kTaxD0Csv =
    "income,owed,pay\n"
    "9500,950,8550\n"
    "90000,22500,67500\n"
    "86000,21500,64500\n"
    "86500,21625,64875\n";

constexpr const char* kTaxLogSql =
    "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
    "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n"
    "UPDATE Taxes SET pay = income - owed;\n";

/// An appended query that writes ONLY `income` (attr 0) — the
/// complaints in these tests disagree on owed/pay, so such appends sit
/// outside their observable window.
constexpr const char* kIncomeBumpSql =
    "UPDATE Taxes SET income = income + 100 WHERE income >= 86000;";

/// An income-only append whose predicate matches nothing: it changes
/// the chunk/tail WRITE summary (income) but leaves every dirty value
/// in place, so complaints filed before the append stay consistent.
constexpr const char* kIncomeNoopSql =
    "UPDATE Taxes SET income = income + 0 WHERE income < 0;";

/// The same query, built programmatically for snapshot-level tests.
Query IncomeBumpQuery(double add, double threshold) {
  return Query::Update(
      "Taxes", {{0, LinearExpr::AttrScaled(0, 1.0, add)}},
      Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, threshold}));
}

/// A complaint that keeps every dirty value except `attr` of `tid`.
provenance::ComplaintSet ComplaintOn(const Database& dirty, int64_t tid,
                                     size_t attr, double target) {
  provenance::Complaint c;
  c.tid = tid;
  c.target_alive = true;
  c.target_values = dirty.slot(static_cast<size_t>(tid)).values;
  c.target_values[attr] = target;
  provenance::ComplaintSet set;
  set.Add(std::move(c));
  return set;
}

void ExpectSameState(const Database& a, const Database& b) {
  ASSERT_EQ(a.NumSlots(), b.NumSlots());
  for (size_t s = 0; s < a.NumSlots(); ++s) {
    EXPECT_EQ(a.slot(s).alive, b.slot(s).alive) << "slot " << s;
    ASSERT_EQ(a.slot(s).values.size(), b.slot(s).values.size());
    for (size_t v = 0; v < a.slot(s).values.size(); ++v) {
      EXPECT_DOUBLE_EQ(a.slot(s).values[v], b.slot(s).values[v])
          << "slot " << s << " attr " << v;
    }
  }
}

AttrSet Attrs(std::initializer_list<size_t> attrs) {
  AttrSet set(3);
  for (size_t a : attrs) set.Insert(a);
  return set;
}

// ---------------------------------------------------------------------------
// Chunk sealing and signatures

TEST(ChunkTest, SealSummarizesWritesInsertsAndSlots) {
  QueryLog log = test::PaperLog(85700);
  const uint64_t anchor = ingest::EmptyPrefixSig(7);
  ingest::LogChunkPtr chunk =
      ingest::SealChunk(log, 0, 3, /*num_attrs=*/3, /*slots_before=*/4,
                        anchor);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->begin, 0u);
  EXPECT_EQ(chunk->end, 3u);
  // q0 writes owed (1), q2 writes pay (2); nothing writes income (0).
  EXPECT_FALSE(chunk->writes.Contains(0));
  EXPECT_TRUE(chunk->writes.Contains(1));
  EXPECT_TRUE(chunk->writes.Contains(2));
  EXPECT_FALSE(chunk->has_delete);
  // One INSERT: the chunk is entered with 4 slots and left with 5.
  EXPECT_EQ(chunk->slots_before, 4u);
  EXPECT_EQ(chunk->slots_after, 5u);
  // The signature chains the anchor with the chunk's unique id.
  EXPECT_EQ(chunk->prefix_sig, ingest::MixHash(anchor, chunk->id));
}

TEST(ChunkTest, DeleteChunksConservativelyWriteEverything) {
  QueryLog log;
  log.push_back(Query::Delete(
      "Taxes",
      Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 1e9})));
  ingest::LogChunkPtr chunk =
      ingest::SealChunk(log, 0, 1, 3, 4, ingest::EmptyPrefixSig(1));
  EXPECT_TRUE(chunk->has_delete);
  // A repaired DELETE predicate could match anything: every attribute
  // is conservatively written.
  for (size_t a = 0; a < 3; ++a) EXPECT_TRUE(chunk->writes.Contains(a));
}

TEST(ChunkTest, SignatureChainsAreRootAnchored) {
  EXPECT_NE(ingest::EmptyPrefixSig(1), ingest::EmptyPrefixSig(2));

  QueryLog log = test::PaperLog(85700);
  // Two seals of the same range get distinct ids, hence distinct
  // signatures — chunk identity, not content, is what chains.
  ingest::LogChunkPtr a =
      ingest::SealChunk(log, 0, 3, 3, 4, ingest::EmptyPrefixSig(1));
  ingest::LogChunkPtr b =
      ingest::SealChunk(log, 0, 3, 3, 4, ingest::EmptyPrefixSig(1));
  EXPECT_NE(a->id, b->id);
  EXPECT_NE(a->prefix_sig, b->prefix_sig);

  // Extending a's prefix chains through a's signature.
  QueryLog tail;
  tail.push_back(IncomeBumpQuery(100, 86000));
  log.push_back(tail[0]);
  ingest::LogChunkPtr c =
      ingest::SealChunk(log, 3, 4, 3, a->slots_after, a->prefix_sig);
  EXPECT_EQ(c->prefix_sig, ingest::MixHash(a->prefix_sig, c->id));
  EXPECT_EQ(c->slots_before, 5u);
  EXPECT_EQ(c->slots_after, 5u);  // no INSERT in the tail
}

TEST(ChunkTest, AffectsBoundaries) {
  QueryLog log = test::PaperLog(85700);
  ingest::LogChunkPtr chunk =
      ingest::SealChunk(log, 0, 3, 3, 4, ingest::EmptyPrefixSig(1));

  // Attribute overlap with the chunk's writes.
  EXPECT_FALSE(ingest::ChunkAffects(*chunk, Attrs({0}), {0}));
  EXPECT_TRUE(ingest::ChunkAffects(*chunk, Attrs({1}), {0}));
  EXPECT_TRUE(ingest::ChunkAffects(*chunk, Attrs({2}), {0}));
  // Slot 4 is born in this chunk's INSERT: a complaint on it is
  // affected even when the attribute sets are disjoint.
  EXPECT_TRUE(ingest::ChunkAffects(*chunk, Attrs({0}), {4}));
  EXPECT_FALSE(ingest::ChunkAffects(*chunk, Attrs({0}), {3}));

  // The tail-side counterpart agrees on the same ranges.
  EXPECT_FALSE(ingest::QueriesAffect(log, 0, 3, 4, Attrs({0}), {0}));
  EXPECT_TRUE(ingest::QueriesAffect(log, 0, 3, 4, Attrs({1}), {0}));
  EXPECT_TRUE(ingest::QueriesAffect(log, 0, 3, 4, Attrs({0}), {4}));
  // Sub-ranges see only their own queries: [2, 3) is the pay update.
  EXPECT_FALSE(ingest::QueriesAffect(log, 2, 3, 5, Attrs({1}), {0}));
  EXPECT_TRUE(ingest::QueriesAffect(log, 2, 3, 5, Attrs({2}), {0}));
}

// ---------------------------------------------------------------------------
// AppendSnapshot: structural sharing, zero copies

TEST(AppendSnapshotTest, SharesD0AndChunksWithoutCopying) {
  cache::Snapshot base =
      cache::MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  const int64_t copies_before = Database::CopyCount();

  QueryLog tail1;
  tail1.push_back(IncomeBumpQuery(100, 86000));
  cache::Snapshot a1 = cache::AppendSnapshot(base, tail1);
  QueryLog tail2;
  tail2.push_back(IncomeBumpQuery(50, 90000));
  cache::Snapshot a2 = cache::AppendSnapshot(a1, tail2);

  // The append path never implicitly copies a Database.
  EXPECT_EQ(Database::CopyCount(), copies_before);

  // D0 is the same object across the lineage, not an equal copy.
  EXPECT_EQ(a1->d0_state.get(), base->d0_state.get());
  EXPECT_EQ(a2->d0_state.get(), base->d0_state.get());

  // The first append sealed the base's whole log into chunk 0; the
  // second append reuses that chunk by reference and seals the first
  // tail into chunk 1.
  ASSERT_EQ(a1->chunks.size(), 1u);
  ASSERT_EQ(a2->chunks.size(), 2u);
  EXPECT_EQ(a2->chunks[0].get(), a1->chunks[0].get());
  EXPECT_EQ(a1->tail_begin(), 3u);
  EXPECT_EQ(a2->tail_begin(), 4u);
  EXPECT_EQ(a1->tail_slots(), 5u);  // D0's 4 slots + the sealed INSERT

  // Derived identity: fresh version, inherited root.
  EXPECT_NE(a1->version, base->version);
  EXPECT_NE(a2->version, a1->version);
  EXPECT_EQ(base->root, base->version);
  EXPECT_EQ(a1->root, base->version);
  EXPECT_EQ(a2->root, base->version);

  // The derived dirty state equals a full replay of the extended log.
  ASSERT_EQ(a2->log.size(), 5u);
  ExpectSameState(a2->dirty,
                  relational::ExecuteLog(a2->log, base->d0()));
}

// ---------------------------------------------------------------------------
// WindowSignature: survival and invalidation boundaries

TEST(WindowSignatureTest, SurvivesAppendsOutsideTheWindow) {
  cache::Snapshot base =
      cache::MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  // The complaint disagrees on pay (attr 2) only.
  provenance::ComplaintSet on_pay =
      ComplaintOn(base->dirty, 2, 2, base->dirty.slot(2).values[2] + 1);

  // Income-only appends whose predicates match nothing: the write
  // summary says "income", the dirty state is untouched, so the pay
  // complaint keeps meaning the same thing on every version.
  QueryLog tail;
  tail.push_back(IncomeBumpQuery(100, 1e15));
  cache::Snapshot a1 = cache::AppendSnapshot(base, tail);
  QueryLog tail2;
  tail2.push_back(IncomeBumpQuery(50, 1e15));
  cache::Snapshot a2 = cache::AppendSnapshot(a1, tail2);

  // Income-only appends cannot observe or affect a pay window: the
  // signature pins the deepest affecting chunk and survives verbatim.
  const uint64_t sig1 = cache::WindowSignature(*a1.dataset(), on_pay);
  const uint64_t sig2 = cache::WindowSignature(*a2.dataset(), on_pay);
  EXPECT_EQ(sig1, sig2);
  EXPECT_EQ(sig1, a1->chunks[0]->prefix_sig);

  // A window the mutable tail CAN affect is salted with the version:
  // never shared across versions, so appends invalidate it.
  provenance::ComplaintSet on_income =
      ComplaintOn(a1->dirty, 2, 0, a1->dirty.slot(2).values[0] + 1);
  const uint64_t inc1 = cache::WindowSignature(*a1.dataset(), on_income);
  provenance::ComplaintSet on_income2 =
      ComplaintOn(a2->dirty, 2, 0, a2->dirty.slot(2).values[0] + 1);
  const uint64_t inc2 = cache::WindowSignature(*a2.dataset(), on_income2);
  EXPECT_NE(inc1, inc2);
  EXPECT_NE(inc1, sig1);
}

TEST(WindowSignatureTest, EmptyWindowIsRootAnchored) {
  // No query in the paper log writes income for tid 0, and slot 0 is
  // not INSERT-born: the window is empty and degenerates to the
  // root-anchored empty-prefix signature.
  cache::Snapshot first =
      cache::MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  provenance::ComplaintSet on_income =
      ComplaintOn(first->dirty, 0, 0, first->dirty.slot(0).values[0] + 1);
  EXPECT_EQ(cache::WindowSignature(*first.dataset(), on_income),
            ingest::EmptyPrefixSig(first->root));

  // A re-registration of the same content mints a fresh root, so the
  // degenerate signature still never collides across registrations.
  cache::Snapshot second =
      cache::MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  EXPECT_NE(cache::WindowSignature(*first.dataset(), on_income),
            cache::WindowSignature(*second.dataset(), on_income));
}

// ---------------------------------------------------------------------------
// EncodingCache

TEST(EncodingCacheTest, LruEvictionAndInvalidation) {
  // Size the budget in units of one cached fixture state.
  auto state = [] {
    return std::make_shared<const Database>(test::TaxD0().Clone());
  };
  size_t per_entry = 0;
  {
    ingest::EncodingCache probe(1 << 20);
    probe.Put("p", 1, state());
    per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 0u);
  }

  ingest::EncodingCache cache(2 * per_entry + per_entry / 2);
  cache.Put("d", 1, state());
  cache.Put("d", 2, state());
  EXPECT_NE(cache.Get("d", 1), nullptr);  // refresh: sig 2 is now LRU
  cache.Put("d", 3, state());             // evicts sig 2
  EXPECT_NE(cache.Get("d", 1), nullptr);
  EXPECT_EQ(cache.Get("d", 2), nullptr);
  EXPECT_NE(cache.Get("d", 3), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);

  // EraseDataset drops exactly the named dataset's entries.
  ingest::EncodingCache wide(1 << 20);
  wide.Put("d", 1, state());
  wide.Put("d", 2, state());
  wide.Put("other", 1, state());
  wide.EraseDataset("d");
  EXPECT_EQ(wide.Get("d", 1), nullptr);
  EXPECT_EQ(wide.Get("d", 2), nullptr);
  EXPECT_NE(wide.Get("other", 1), nullptr);
  EXPECT_EQ(wide.stats().invalidations, 2u);
  EXPECT_EQ(wide.stats().entries, 1u);
}

TEST(EncodingCacheTest, GetOrComputeWalksBackToCachedAncestors) {
  cache::Snapshot base =
      cache::MakeSnapshot(test::PaperLog(85700), test::TaxD0(), "t");
  QueryLog tail;
  tail.push_back(IncomeBumpQuery(100, 86000));
  cache::Snapshot a1 = cache::AppendSnapshot(base, tail);
  QueryLog tail2;
  tail2.push_back(IncomeBumpQuery(50, 90000));
  cache::Snapshot a2 = cache::AppendSnapshot(a1, tail2);
  ASSERT_EQ(a2->chunks.size(), 2u);

  ingest::EncodingCache cache(1 << 20);
  // Boundary 0 (after the original 3-query log): cold compute from D0.
  auto s0 = cache.GetOrCompute("t", a2->chunks, 0, a2->d0(), a2->log);
  ASSERT_NE(s0, nullptr);
  ExpectSameState(*s0, base->dirty);
  auto stats = cache.stats();
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Boundary 1: a miss, but the walk-back finds boundary 0 and replays
  // only the one-query gap instead of the whole prefix.
  auto s1 = cache.GetOrCompute("t", a2->chunks, 1, a2->d0(), a2->log);
  ASSERT_NE(s1, nullptr);
  ExpectSameState(*s1, a1->dirty);
  stats = cache.stats();
  EXPECT_EQ(stats.computes, 2u);
  EXPECT_EQ(stats.misses, 2u);

  // Exact repeat: pure hit, no replay.
  auto s1_again = cache.GetOrCompute("t", a2->chunks, 1, a2->d0(), a2->log);
  EXPECT_EQ(s1_again.get(), s1.get());
  stats = cache.stats();
  EXPECT_EQ(stats.computes, 2u);
  EXPECT_EQ(stats.hits, 1u);

  // Cached states are owned clones, never aliases into the lineage.
  EXPECT_NE(s0.get(), &base->dirty);
  EXPECT_NE(s1.get(), &a1->dirty);
}

// ---------------------------------------------------------------------------
// Encoder prefix reuse: identical diagnosis, tail-only re-encode

TEST(EncoderPrefixTest, PrefixReuseMatchesFullEncode) {
  // Correct base log (threshold 87500), then an appended income bump
  // whose predicate wrongly catches tid 2 (86000 >= 86000). The
  // complaint says tid 2's income should never have been bumped; the
  // minimal repair nudges the appended threshold to 86001.
  cache::Snapshot base =
      cache::MakeSnapshot(test::PaperLog(87500), test::TaxD0(), "t");
  QueryLog tail;
  tail.push_back(IncomeBumpQuery(100, 86000));
  cache::Snapshot appended = cache::AppendSnapshot(base, tail);
  ASSERT_EQ(appended->chunks.size(), 1u);

  provenance::ComplaintSet complaints =
      ComplaintOn(appended->dirty, 2, 0, 86000);

  qfixcore::QFixOptions without_cache;
  auto full = qfixcore::QFixEngine(appended, complaints, without_cache)
                  .RepairIncremental(1);
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  ingest::EncodingCache cache(1 << 20);
  qfixcore::QFixOptions with_cache;
  with_cache.encoding_cache = &cache;
  auto reused = qfixcore::QFixEngine(appended, complaints, with_cache)
                    .RepairIncremental(1);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_GE(cache.stats().computes, 1u);

  // Identical diagnosis: same changed query, distance, and MILP shape
  // (the folded prefix contributes zero variables either way).
  ASSERT_EQ(full->changed_queries, std::vector<size_t>({3}));
  EXPECT_EQ(reused->changed_queries, full->changed_queries);
  EXPECT_DOUBLE_EQ(reused->distance, full->distance);
  EXPECT_TRUE(full->verified);
  EXPECT_TRUE(reused->verified);
  EXPECT_EQ(full->collateral, 0u);
  EXPECT_EQ(reused->collateral, 0u);
  EXPECT_EQ(reused->stats.num_vars, full->stats.num_vars);
  EXPECT_EQ(reused->stats.num_constraints, full->stats.num_constraints);

  // Both repaired logs replay to the complained-about state.
  ExpectSameState(relational::ExecuteLog(reused->log, base->d0()),
                  relational::ExecuteLog(full->log, base->d0()));
  Database repaired = relational::ExecuteLog(reused->log, base->d0());
  EXPECT_DOUBLE_EQ(repaired.slot(2).values[0], 86000);

  // A second engine over the same snapshot hits the memoized boundary.
  auto again = qfixcore::QFixEngine(appended, complaints, with_cache)
                   .RepairIncremental(1);
  ASSERT_TRUE(again.ok());
  EXPECT_GE(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// DatasetRegistry::Append

size_t FixtureBytes() {
  DatasetRegistry probe;
  auto ds = probe.Register("probe", kTaxD0Csv, "Taxes", kTaxLogSql);
  EXPECT_TRUE(ds.ok());
  return service::ApproxDatasetBytes(**ds);
}

TEST(RegistryAppendTest, AppendRecomputesBytesAndPublishesDerived) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  auto base = registry.Get("a");
  ASSERT_NE(base, nullptr);
  const size_t bytes_before = registry.stats().bytes;

  // Registration seals the initial log into chunk 0 (empty tail).
  EXPECT_EQ(base->chunks.size(), 1u);
  EXPECT_EQ(base->tail_begin(), 3u);

  auto appended = registry.Append("a", kIncomeBumpSql);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ((*appended)->log.size(), 4u);
  EXPECT_EQ((*appended)->chunks.size(), 1u);
  EXPECT_EQ((*appended)->chunks[0].get(), base->chunks[0].get());
  EXPECT_EQ((*appended)->tail_begin(), 3u);
  EXPECT_EQ((*appended)->root, base->version);
  EXPECT_NE((*appended)->version, base->version);
  EXPECT_EQ(registry.Get("a").get(), appended->get());

  // Byte accounting tracks the grown head version exactly.
  auto stats = registry.stats();
  EXPECT_GT(stats.bytes, bytes_before);
  EXPECT_EQ(stats.bytes, service::ApproxDatasetBytes(**appended));
  EXPECT_EQ(stats.appends, 1u);
  EXPECT_EQ(stats.chunks, 1u);
}

TEST(RegistryAppendTest, FailedAppendsLeavePriorVersionUntouched) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  auto before = registry.Get("a");
  ASSERT_NE(before, nullptr);

  EXPECT_TRUE(registry.Append("missing", kIncomeBumpSql)
                  .status().IsNotFound());
  EXPECT_TRUE(registry.Append("a", "THIS IS NOT SQL;")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(registry.Append("a", "").status().IsInvalidArgument());
  const std::string three =
      std::string(kIncomeBumpSql) + kIncomeBumpSql + kIncomeBumpSql;
  EXPECT_TRUE(registry.Append("a", three, /*max_queries=*/2)
                  .status().IsResourceExhausted());

  // Atomicity: the registered version is the SAME object, not merely an
  // equal one — nothing was half-applied.
  EXPECT_EQ(registry.Get("a").get(), before.get());
  EXPECT_EQ(registry.stats().appends, 0u);
  EXPECT_EQ(registry.stats().chunks, 1u);  // the registration seal only
}

TEST(RegistryAppendTest, ReRegisterAfterAppendMintsFreshRoot) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Append("a", kIncomeBumpSql).ok());
  const uint64_t old_root = registry.Get("a")->root;

  ASSERT_TRUE(registry.Register("a", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  auto fresh = registry.Get("a");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->log.size(), 3u);
  EXPECT_EQ(fresh->root, fresh->version);
  EXPECT_NE(fresh->root, old_root);
  // A fresh registration seal, not an inherited chunk: the new chunk 0
  // chains from the NEW root, so no signature survives re-registration.
  ASSERT_EQ(fresh->chunks.size(), 1u);
  EXPECT_EQ(fresh->chunks[0]->prefix_sig,
            ingest::MixHash(ingest::EmptyPrefixSig(fresh->root),
                            fresh->chunks[0]->id));
}

TEST(RegistryAppendTest, LineagePinsEvictionWhileAncestorsAreRead) {
  RegistryOptions options;
  options.max_bytes = 2 * FixtureBytes() + FixtureBytes() / 2;
  DatasetRegistry registry(options);
  ASSERT_TRUE(
      registry.Register("keep", kTaxD0Csv, "Taxes", kTaxLogSql).ok());

  // An in-flight solve holds the PRE-append version; the head is then
  // superseded by an append. The held ancestor shares chunks with the
  // head, so the name must be pinned exactly like a referenced head.
  std::shared_ptr<const service::Dataset> held = registry.Get("keep");
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(registry.Append("keep", kIncomeBumpSql).ok());

  ASSERT_TRUE(registry.Register("b", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Register("c", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Register("d", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  auto still = registry.Get("keep");
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still->log.size(), 4u);
  still.reset();

  // Ancestor released: the pin is gone, and byte pressure may collect
  // the name like anyone else once it ages to the LRU tail.
  held.reset();
  ASSERT_TRUE(registry.Register("e", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Register("f", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  ASSERT_TRUE(registry.Register("g", kTaxD0Csv, "Taxes", kTaxLogSql).ok());
  EXPECT_EQ(registry.Get("keep"), nullptr);
}

// ---------------------------------------------------------------------------
// /v1/datasets/{name}/append end-to-end

class IngestServerTest : public testing::Test {
 protected:
  void StartServer(service::ServerOptions options) {
    server_ = std::make_unique<service::DiagnosisServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }

  service::HttpResponse Post(const std::string& path,
                             const std::string& body) {
    auto r = service::HttpPost("127.0.0.1", port_, path, body, 60.0);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : service::HttpResponse{};
  }

  service::HttpResponse Get(const std::string& path) {
    auto r = service::HttpGet("127.0.0.1", port_, path);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : service::HttpResponse{};
  }

  std::string RegisterTaxesBody() {
    JsonWriter w;
    w.BeginObject();
    w.Key("name");
    w.String("taxes");
    w.Key("table");
    w.String("Taxes");
    w.Key("d0_csv");
    w.String(kTaxD0Csv);
    w.Key("log_sql");
    w.String(kTaxLogSql);
    w.EndObject();
    return w.str();
  }

  std::string AppendBody(const std::string& sql) {
    JsonWriter w;
    w.BeginObject();
    w.Key("log_sql");
    w.String(sql);
    w.EndObject();
    return w.str();
  }

  std::string DiagnoseBody(const std::string& complaints_csv) {
    JsonWriter w;
    w.BeginObject();
    w.Key("dataset");
    w.String("taxes");
    w.Key("complaints_csv");
    w.String(complaints_csv);
    w.EndObject();
    return w.str();
  }

  std::unique_ptr<service::DiagnosisServer> server_;
  int port_ = 0;
};

TEST_F(IngestServerTest, AppendEndpointValidatesAndNeverHalfApplies) {
  service::ServerOptions options;
  options.max_append_queries = 2;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  auto ok = Post("/v1/datasets/taxes/append", AppendBody(kIncomeBumpSql));
  ASSERT_EQ(ok.status, 200) << ok.body;
  auto doc = ParseJson(ok.body);
  ASSERT_TRUE(doc.ok()) << ok.body;
  EXPECT_EQ(doc->Find("name")->AsString(), "taxes");
  EXPECT_EQ(doc->Find("queries")->AsNumber(), 4.0);
  EXPECT_EQ(doc->Find("appended")->AsNumber(), 1.0);
  EXPECT_EQ(doc->Find("chunks")->AsNumber(), 1.0);

  // Structured refusals, none of them half-applied.
  EXPECT_EQ(Get("/v1/datasets/taxes/append").status, 405);
  EXPECT_EQ(Post("/v1/datasets/nope/append",
                 AppendBody(kIncomeBumpSql)).status, 404);
  EXPECT_EQ(Post("/v1/datasets/taxes/append", "not json").status, 400);
  EXPECT_EQ(Post("/v1/datasets/taxes/append", "{}").status, 400);
  EXPECT_EQ(Post("/v1/datasets/taxes/append",
                 AppendBody("NONSENSE;")).status, 400);
  const std::string three =
      std::string(kIncomeBumpSql) + kIncomeBumpSql + kIncomeBumpSql;
  auto oversized = Post("/v1/datasets/taxes/append", AppendBody(three));
  EXPECT_EQ(oversized.status, 413) << oversized.body;
  EXPECT_NE(oversized.body.find("\"error\""), std::string::npos);

  // The log still holds exactly 4 queries: the one successful append
  // landed, none of the refused ones did (even partially).
  auto after = Post("/v1/datasets/taxes/append", AppendBody(kIncomeBumpSql));
  ASSERT_EQ(after.status, 200) << after.body;
  auto after_doc = ParseJson(after.body);
  ASSERT_TRUE(after_doc.ok());
  EXPECT_EQ(after_doc->Find("queries")->AsNumber(), 5.0);
}

TEST_F(IngestServerTest, PreAppendWindowIsServedFromCacheAfterAppend) {
  service::ServerOptions options;
  options.jobs = 0;  // deterministic serial solves
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);

  // Complaints on owed/pay: the paper's Figure-2 diagnosis.
  const std::string complaints =
      "tid,alive,income,owed,pay\n"
      "2,1,86000,21500,64500\n"
      "3,1,86500,21625,64875\n";
  auto cold = Post("/v1/diagnose", DiagnoseBody(complaints));
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"cached\":false"), std::string::npos);

  // Append income-only queries: outside the owed/pay window (and
  // matching nothing, so the complaints stay consistent with dirty).
  ASSERT_EQ(Post("/v1/datasets/taxes/append",
                 AppendBody(kIncomeNoopSql)).status, 200);

  // The same diagnosis after the append: served from cache, no solve.
  auto warm = Post("/v1/diagnose", DiagnoseBody(complaints));
  ASSERT_EQ(warm.status, 200) << warm.body;
  EXPECT_NE(warm.body.find("\"cached\":true"), std::string::npos)
      << warm.body;
  // Read in-process from the metrics registry: a /v1/stats GET would
  // count itself.
  EXPECT_EQ(server_->metrics().Snapshot().Sum("qfix_cached_hits_total").value,
            1.0);

  // The ingest block surfaces the append.
  auto stats = Get("/v1/stats");
  ASSERT_EQ(stats.status, 200);
  auto sdoc = ParseJson(stats.body);
  ASSERT_TRUE(sdoc.ok());
  const JsonValue* ingest = sdoc->Find("ingest");
  ASSERT_NE(ingest, nullptr) << stats.body;
  EXPECT_EQ(ingest->Find("appends")->AsNumber(), 1.0);
  EXPECT_EQ(ingest->Find("chunks")->AsNumber(), 1.0);
  EXPECT_EQ(ingest->Find("appended_queries")->AsNumber(), 1.0);
}

TEST_F(IngestServerTest, TailDiagnosisReusesTheSealedPrefix) {
  service::ServerOptions options;
  options.jobs = 0;
  StartServer(options);
  ASSERT_EQ(Post("/v1/datasets", RegisterTaxesBody()).status, 200);
  ASSERT_EQ(Post("/v1/datasets/taxes/append",
                 AppendBody(kIncomeBumpSql)).status, 200);

  // Dirty tid 2 after the buggy base log (threshold 85700) and the
  // appended bump: income 86100, owed 25800, pay 60200. The complaint
  // disagrees on income only — the appended query's doing.
  auto diag = Post("/v1/diagnose",
                   DiagnoseBody("tid,alive,income,owed,pay\n"
                                "2,1,86000,25800,60200\n"));
  ASSERT_EQ(diag.status, 200) << diag.body;
  auto doc = ParseJson(diag.body);
  ASSERT_TRUE(doc.ok()) << diag.body;
  EXPECT_TRUE(doc->Find("ok")->AsBool());
  EXPECT_TRUE(doc->Find("report")->Find("verified")->AsBool());

  // The solve re-encoded only the appended tail: the sealed 3-query
  // prefix came straight out of the encoding cache (the append warmed
  // the boundary, so this is a pure hit — zero prefix replays).
  auto sdoc = ParseJson(Get("/v1/stats").body);
  ASSERT_TRUE(sdoc.ok());
  const JsonValue* ingest = sdoc->Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_GE(ingest->Find("prefix_hits")->AsNumber(), 1.0);

  // Append again and diagnose the new tail: the second append seals
  // the first one's query into chunk 1 and warms that boundary too.
  ASSERT_EQ(Post("/v1/datasets/taxes/append",
                 AppendBody(kIncomeBumpSql)).status, 200);
  auto diag2 = Post("/v1/diagnose",
                    DiagnoseBody("tid,alive,income,owed,pay\n"
                                 "2,1,86100,25800,60200\n"));
  ASSERT_EQ(diag2.status, 200) << diag2.body;
  auto doc2 = ParseJson(diag2.body);
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(doc2->Find("ok")->AsBool());
  sdoc = ParseJson(Get("/v1/stats").body);
  ASSERT_TRUE(sdoc.ok());
  EXPECT_GE(sdoc->Find("ingest")->Find("prefix_hits")->AsNumber(), 2.0);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan lane): append vs diagnose vs eviction

TEST(IngestConcurrencyTest, ConcurrentAppendDiagnoseAndEviction) {
  RegistryOptions options;
  options.max_bytes = 4 * FixtureBytes();
  DatasetRegistry registry(options);
  cache::ReportCache report_cache(1 << 20);
  ingest::EncodingCache encoding_cache(1 << 20);
  registry.AttachReportCache(&report_cache);
  registry.AttachEncodingCache(&encoding_cache);
  ASSERT_TRUE(
      registry.Register("shared", kTaxD0Csv, "Taxes", kTaxLogSql).ok());

  std::vector<std::thread> threads;
  // Appender: grows "shared" one income query at a time. Under byte
  // pressure the name may get evicted between appends — NotFound is an
  // acceptable outcome, torn state is not.
  threads.emplace_back([&registry] {
    for (int i = 0; i < 25; ++i) {
      auto r = registry.Append("shared", kIncomeBumpSql);
      if (!r.ok()) {
        ASSERT_TRUE(r.status().IsNotFound()) << r.status().ToString();
        auto re = registry.Register("shared", kTaxD0Csv, "Taxes",
                                    kTaxLogSql);
        ASSERT_TRUE(re.ok());
      }
    }
  });
  // Diagnoser: solves against whatever version is current, with both
  // caches live (the engine reads chunk prefixes the appender extends).
  threads.emplace_back([&registry, &report_cache, &encoding_cache] {
    qfixcore::BatchOptions batch_options;
    batch_options.jobs = 0;
    batch_options.report_cache = &report_cache;
    qfixcore::BatchDiagnoser diagnoser(batch_options);
    for (int i = 0; i < 8; ++i) {
      std::shared_ptr<const service::Dataset> ds = registry.Get("shared");
      if (ds == nullptr) continue;
      ASSERT_GE(ds->log.size(), 3u);
      provenance::ComplaintSet complaints = ComplaintOn(
          ds->dirty, 2, 2, ds->dirty.slot(2).values[2] + 1 + i);
      qfixcore::QFixOptions qopts;
      qopts.time_limit_seconds = 30.0;
      qopts.encoding_cache = &encoding_cache;
      qfixcore::BatchItem item = qfixcore::MakeBatchItem(
          cache::Snapshot(ds), std::move(complaints), qopts, /*k=*/1);
      auto results = diagnoser.Run({item});
      ASSERT_EQ(results.size(), 1u);
      // Feasibility depends on the racing log contents; crashes and
      // torn reads are the failure mode under test, not infeasibility.
    }
  });
  // Evictor: registers filler names to keep byte pressure on, which
  // also exercises append-vs-evict and the cache invalidation paths.
  threads.emplace_back([&registry] {
    for (int i = 0; i < 20; ++i) {
      auto r = registry.Register("filler" + std::to_string(i % 5),
                                 kTaxD0Csv, "Taxes", kTaxLogSql);
      ASSERT_TRUE(r.ok());
    }
  });
  for (std::thread& t : threads) t.join();

  // Whatever survived is coherent.
  std::shared_ptr<const service::Dataset> final_ds = registry.Get("shared");
  if (final_ds != nullptr) {
    EXPECT_GE(final_ds->log.size(), 3u);
    ExpectSameState(final_ds->dirty,
                    relational::ExecuteLog(final_ds->log, final_ds->d0()));
  }
  // Byte accounting stayed consistent with the surviving entries. (A
  // single appended dataset may legitimately exceed the budget — the
  // entry being published is never its own eviction victim — so the
  // invariant is exact accounting, not bytes <= capacity.)
  size_t expected_bytes = 0;
  std::vector<std::string> names = {"shared"};
  for (int i = 0; i < 5; ++i) names.push_back("filler" + std::to_string(i));
  for (const std::string& n : names) {
    auto ds = registry.Get(n);
    if (ds != nullptr) expected_bytes += service::ApproxDatasetBytes(*ds);
  }
  EXPECT_EQ(registry.stats().bytes, expected_bytes);
}

}  // namespace
}  // namespace qfix
