#include <gtest/gtest.h>

#include "common/random.h"
#include "provenance/complaint.h"
#include "provenance/impact.h"
#include "relational/executor.h"
#include "test_support.h"
#include "workload/synthetic.h"
#include "workload/tpcc_like.h"

namespace qfix {
namespace provenance {
namespace {

using relational::CmpOp;
using relational::Database;
using relational::LinearExpr;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::Schema;

using qfix::test::PaperLog;
using qfix::test::TaxD0;
using qfix::test::TaxSchema;

TEST(ComplaintSetTest, AddFindAndConsistency) {
  ComplaintSet set;
  set.Add({3, true, {1, 2, 3}});
  set.Add({1, true, {4, 5, 6}});
  EXPECT_EQ(set.size(), 2u);
  ASSERT_NE(set.Find(3), nullptr);
  EXPECT_EQ(set.Find(3)->target_values[0], 1);
  EXPECT_EQ(set.Find(7), nullptr);
  // Re-adding the same tid replaces (consistency: one transform/tuple).
  set.Add({3, true, {9, 9, 9}});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find(3)->target_values[0], 9);
  // Kept sorted by tid.
  EXPECT_EQ(set.complaints()[0].tid, 1);
  EXPECT_EQ(set.complaints()[1].tid, 3);
}

TEST(ComplaintSetTest, ApplyToPerformsTransformations) {
  Database dirty = TaxD0();
  ComplaintSet set;
  set.Add({0, true, {1, 2, 3}});
  set.Add({2, false, {}});  // t3 should be deleted
  Database repaired = set.ApplyTo(dirty);
  EXPECT_EQ(repaired.slot(0).values, (std::vector<double>{1, 2, 3}));
  EXPECT_FALSE(repaired.slot(2).alive);
  EXPECT_TRUE(repaired.slot(1).alive);  // untouched
}

TEST(ComplaintSetTest, ComplaintAttributes) {
  Database dirty = TaxD0();
  ComplaintSet set;
  // Only `owed` (attr 1) differs.
  set.Add({2, true, {86000, 99999, 64500}});
  AttrSet attrs = set.ComplaintAttributes(dirty);
  EXPECT_EQ(attrs.ToVector(), (std::vector<size_t>{1}));
  // A liveness complaint marks all attributes.
  set.Add({0, false, {}});
  EXPECT_EQ(set.ComplaintAttributes(dirty).Count(), 3u);
}

TEST(DiffStatesTest, PaperExampleComplaints) {
  QueryLog dirty_log = PaperLog(85700);   // digit transposition
  QueryLog clean_log = PaperLog(87500);   // intended policy
  Database d0 = TaxD0();
  Database dirty = relational::ExecuteLog(dirty_log, d0);
  Database truth = relational::ExecuteLog(clean_log, d0);

  ComplaintSet complaints = DiffStates(dirty, truth);
  // Exactly t3 and t4 (slots 2, 3) are wrong; t2 (90000) is correctly
  // re-rated by both logs and t5 is inserted identically.
  ASSERT_EQ(complaints.size(), 2u);
  EXPECT_EQ(complaints.complaints()[0].tid, 2);
  EXPECT_EQ(complaints.complaints()[1].tid, 3);
  EXPECT_EQ(complaints.complaints()[0].target_values,
            (std::vector<double>{86000, 21500, 64500}));
  EXPECT_EQ(complaints.complaints()[1].target_values,
            (std::vector<double>{86500, 21625, 64875}));
  // A(C) = {owed, pay}.
  EXPECT_EQ(complaints.ComplaintAttributes(dirty).ToVector(),
            (std::vector<size_t>{1, 2}));
}

TEST(DiffStatesTest, DetectsLivenessDifferences) {
  Schema s = TaxSchema();
  Database a(s, "T"), b(s, "T");
  a.AddTuple({1, 2, 3});
  b.AddTuple({1, 2, 3});
  b.mutable_tuples()[0].alive = false;
  ComplaintSet c = DiffStates(a, b);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.complaints()[0].target_alive);
}

TEST(SampleComplaintsTest, KeepFractionAndNonEmptyGuarantee) {
  ComplaintSet full;
  for (int i = 0; i < 200; ++i) {
    full.Add({i, true, {0, 0, 0}});
  }
  Rng rng(17);
  ComplaintSet half = SampleComplaints(full, 0.5, rng);
  EXPECT_GT(half.size(), 60u);
  EXPECT_LT(half.size(), 140u);
  ComplaintSet none = SampleComplaints(full, 0.0, rng);
  EXPECT_EQ(none.size(), 1u);  // at least one survives
  ComplaintSet all = SampleComplaints(full, 1.0, rng);
  EXPECT_EQ(all.size(), 200u);
}

TEST(FullImpactTest, PaperExampleChains) {
  QueryLog log = PaperLog(85700);
  auto impacts = ComputeFullImpacts(log, 3);
  ASSERT_EQ(impacts.size(), 3u);
  // q3 writes pay only; nothing follows it.
  EXPECT_EQ(impacts[2].ToVector(), (std::vector<size_t>{2}));
  // q1 writes owed; q3 reads owed (in SET pay = income - owed), so the
  // impact propagates: F(q1) = {owed, pay}.
  EXPECT_EQ(impacts[0].ToVector(), (std::vector<size_t>{1, 2}));
  // INSERT impacts every attribute, and chains through q3 as well.
  EXPECT_EQ(impacts[1].Count(), 3u);
}

TEST(FullImpactTest, NoFalsePropagationWithoutOverlap) {
  // q0 writes a0; q1 reads a1 writes a2. No chain between them.
  Schema s = Schema::WithDefaultNames(3);
  QueryLog log;
  log.push_back(Query::Update("T", {{0, LinearExpr::Constant(1)}},
                              Predicate::True()));
  log.push_back(Query::Update("T", {{2, LinearExpr::Attr(1)}},
                              Predicate::True()));
  auto impacts = ComputeFullImpacts(log, 3);
  EXPECT_EQ(impacts[0].ToVector(), (std::vector<size_t>{0}));
  EXPECT_EQ(impacts[1].ToVector(), (std::vector<size_t>{2}));
}

// Algorithm 2 as a literal loop, kept as the reference: back to front,
// F(q_i) = I(q_i) unioned with F(q_j) of every later q_j whose P(q_j)
// meets the accumulating set, scanning to the end of the log.
std::vector<AttrSet> ReferenceFullImpacts(const QueryLog& log,
                                          size_t num_attrs) {
  std::vector<AttrSet> deps;
  for (const Query& q : log) deps.push_back(q.Dependency(num_attrs));
  std::vector<AttrSet> full(log.size(), AttrSet(num_attrs));
  for (size_t i = log.size(); i-- > 0;) {
    AttrSet f = log[i].DirectImpact(num_attrs);
    for (size_t j = i + 1; j < log.size(); ++j) {
      if (f.Intersects(deps[j])) f.UnionWith(full[j]);
    }
    full[i] = f;
  }
  return full;
}

void ExpectMatchesReference(const QueryLog& log, size_t num_attrs) {
  std::vector<AttrSet> got = ComputeFullImpacts(log, num_attrs);
  std::vector<AttrSet> want = ReferenceFullImpacts(log, num_attrs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << "F(q" << i << ")";
  }
}

// Random §7.1 logs with INSERT/DELETE mixes, on schemas of one word
// (4 and 10 attributes) and of two and three words (70 and 130), under
// both SET shapes and with skew that makes read-write chains common.
TEST(FullImpactTest, EarlyExitMatchesLiteralAlgorithmOnRandomLogs) {
  int saturated = 0;
  int case_id = 0;
  for (size_t num_attrs : {3, 9, 69, 129}) {
    for (double skew : {0.0, 1.5}) {
      for (workload::SetClauseType set :
           {workload::SetClauseType::kConstant,
            workload::SetClauseType::kRelative}) {
        SCOPED_TRACE("case " + std::to_string(case_id));
        workload::SyntheticSpec spec;
        spec.num_tuples = 20;
        spec.num_attrs = num_attrs;  // plus the id column
        spec.num_queries = 120;
        spec.set_type = set;
        spec.skew = skew;
        spec.where_dimensions = 2;
        spec.insert_fraction = case_id % 3 == 0 ? 0.0 : 0.1;
        spec.delete_fraction = case_id % 2 == 0 ? 0.0 : 0.05;
        Rng rng(1000 + case_id++);
        Database d0 = workload::GenerateDatabase(spec, rng);
        QueryLog log = workload::GenerateLog(spec, d0, rng);
        const size_t width = d0.schema().num_attrs();
        ExpectMatchesReference(log, width);
        for (const AttrSet& f : ComputeFullImpacts(log, width)) {
          saturated += f.Count() == width ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(saturated, 0) << "no F(q) reached every attribute";
}

TEST(FullImpactTest, EarlyExitMatchesLiteralAlgorithmOnTpccLog) {
  workload::TpccSpec spec;
  spec.initial_orders = 200;
  spec.num_queries = 600;
  workload::Scenario s = workload::MakeTpccScenario(spec, 40, 7);
  ExpectMatchesReference(s.dirty_log, s.d0.schema().num_attrs());
}

TEST(RelevantQueriesTest, LooseAndStrictFilters) {
  AttrSet f0(3), f1(3), f2(3), complaint(3);
  f0.Insert(0);              // disjoint from complaints
  f1.Insert(1);              // covers part of complaints
  f2.Insert(1);
  f2.Insert(2);              // covers all complaints
  complaint.Insert(1);
  complaint.Insert(2);
  std::vector<AttrSet> impacts{f0, f1, f2};

  auto loose = RelevantQueries(impacts, complaint, false);
  EXPECT_EQ(loose, (std::vector<size_t>{1, 2}));
  auto strict = RelevantQueries(impacts, complaint, true);
  EXPECT_EQ(strict, (std::vector<size_t>{2}));
}

TEST(RelevantAttributesTest, UnionOfImpactAndDependency) {
  QueryLog log = PaperLog(85700);
  // Relevant: q1 (index 0) only.
  AttrSet complaint(3);
  complaint.Insert(1);
  AttrSet rel = RelevantAttributes(log, {0}, complaint, 3);
  // q1 writes owed (1) and reads income (0); complaint adds owed.
  EXPECT_EQ(rel.ToVector(), (std::vector<size_t>{0, 1}));
}

}  // namespace
}  // namespace provenance
}  // namespace qfix
