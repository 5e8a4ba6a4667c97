#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/random.h"
#include "milp/model_export.h"
#include "provenance/complaint.h"
#include "provenance/impact.h"
#include "qfix/encoder.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "sql/parser.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace qfix {
namespace qfixcore {
namespace {

using provenance::ComplaintSet;
using provenance::DiffStates;
using relational::CmpOp;
using relational::Database;
using relational::ExecuteLog;
using relational::LinearExpr;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::Schema;

using test::PaperLog;
using test::TaxD0;
using test::TaxSchema;

// Builds an engine for (dirty log, clean log) over d0 with the complete
// complaint set derived by state diffing.
QFixEngine MakeEngine(const QueryLog& dirty_log, const QueryLog& clean_log,
                      const Database& d0, QFixOptions options = {}) {
  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet complaints = DiffStates(dirty, truth);
  return QFixEngine(dirty_log, d0, dirty, complaints, options);
}

// True if replaying `log` equals replaying `clean_log` tuple-for-tuple.
bool ReplayMatchesTruth(const QueryLog& log, const QueryLog& clean_log,
                        const Database& d0, double tol = 1e-6) {
  Database got = ExecuteLog(log, d0);
  Database want = ExecuteLog(clean_log, d0);
  if (got.NumSlots() != want.NumSlots()) return false;
  for (size_t i = 0; i < got.NumSlots(); ++i) {
    if (got.slot(i).alive != want.slot(i).alive) return false;
    if (!got.slot(i).alive) continue;
    for (size_t a = 0; a < got.schema().num_attrs(); ++a) {
      if (std::fabs(got.slot(i).values[a] - want.slot(i).values[a]) > tol) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Running example (paper Fig. 2): the flagship end-to-end scenario.
// ---------------------------------------------------------------------

TEST(QFixEndToEnd, RepairsPaperRunningExample) {
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);

  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  // The diagnosis blames exactly q1.
  EXPECT_EQ(repair->changed_queries, (std::vector<size_t>{0}));
  // The repaired threshold must exclude the complaint tuples (86000,
  // 86500) and keep 90000 matched.
  double threshold = repair->log[0].GetParam(
      {relational::ParamRef::Kind::kWhereRhs, 0, 0});
  EXPECT_GT(threshold, 86500.0);
  EXPECT_LE(threshold, 87000.0 + 1.0);
  // The repaired log reproduces the true final state exactly.
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixEndToEnd, BasicAlgorithmAlsoRepairsPaperExample) {
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairBasic();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixEndToEnd, WorksThroughSqlFrontEnd) {
  Schema schema = TaxSchema();
  auto dirty_log = sql::ParseLog(
      "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;"
      "INSERT INTO Taxes VALUES (87000, 21750, 65250);"
      "UPDATE Taxes SET pay = income - owed;",
      schema);
  ASSERT_TRUE(dirty_log.ok()) << dirty_log.status().ToString();
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  QFixEngine engine = MakeEngine(*dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->verified);
  // Repaired log prints back as SQL.
  std::string sql_text = repair->log[0].ToSql(schema);
  EXPECT_NE(sql_text.find("UPDATE Taxes SET owed = income * 0.3"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Per-query-type repairs.
// ---------------------------------------------------------------------

TEST(QFixQueryTypes, RepairsSetConstantCorruption) {
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  for (int i = 0; i < 8; ++i) d0.AddTuple({double(i * 10), 0});

  auto make_log = [&](double set_const) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(set_const)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 40})));
    return log;
  };
  QueryLog dirty_log = make_log(70);  // should have been 50
  QueryLog clean_log = make_log(50);
  Database d0_copy = d0;
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0_copy);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  // The SET constant is pinned exactly by the complaint targets.
  EXPECT_DOUBLE_EQ(repair->log[0].GetParam(
                       {relational::ParamRef::Kind::kSetConstant, 0, 0}),
                   50.0);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0_copy));
}

TEST(QFixQueryTypes, RepairsInsertCorruption) {
  Schema schema = Schema::WithDefaultNames(3);
  Database d0(schema, "T");
  d0.AddTuple({1, 2, 3});

  auto make_log = [&](std::vector<double> values) {
    QueryLog log;
    log.push_back(Query::Insert("T", std::move(values)));
    // A later pass-through update exercises provenance through INSERT.
    log.push_back(Query::Update("T", {{2, LinearExpr::Attr(1)}},
                                Predicate::True()));
    return log;
  };
  QueryLog dirty_log = make_log({10, 99, 0});  // 99 should be 20
  QueryLog clean_log = make_log({10, 20, 0});
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_EQ(repair->changed_queries, (std::vector<size_t>{0}));
  EXPECT_DOUBLE_EQ(repair->log[0].insert_values()[1], 20.0);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixQueryTypes, RepairsDeleteCorruption) {
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  for (int i = 0; i < 10; ++i) d0.AddTuple({double(i), double(100 + i)});

  auto make_log = [&](double threshold) {
    QueryLog log;
    log.push_back(Query::Delete(
        "T", Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, threshold})));
    return log;
  };
  QueryLog dirty_log = make_log(5);   // deleted 5..9
  QueryLog clean_log = make_log(8);   // should only delete 8, 9
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  // Complaints demand tuples 5, 6, 7 stay alive; the minimal threshold
  // excluding them is 7.5, and nothing lives in (7.5, 8).
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

// A point UPDATE whose one complaint says its tuple should have kept
// its value: the repair must move the `=` constant off the tuple's id.
// If the equality indicator's z = 0 side did not bind, the MILP could
// call `id = 2` false for id 2 at zero cost, and the engine would
// return the log unchanged (distance 0, optimal, unverified).
TEST(QFixQueryTypes, RepairsPointEqualityUpdate) {
  Database d0(Schema::WithDefaultNames(2), "T");
  for (int id = 1; id <= 3; ++id) d0.AddTuple({double(id), 0});
  QueryLog log;
  log.push_back(
      Query::Update("T", {{1, LinearExpr::Constant(9)}},
                    Predicate::Atom({LinearExpr::Attr(0), CmpOp::kEq, 2})));
  Database dirty = ExecuteLog(log, d0);
  ComplaintSet complaints;
  complaints.Add({1, true, {2, 0}});  // id 2 keeps v = 0
  QFixEngine engine(log, d0, dirty, complaints);

  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(repair->stats.optimal);
  EXPECT_EQ(repair->changed_queries, (std::vector<size_t>{0}));
  // The nearest constant that misses id 2 by epsilon (0.5 on integers).
  EXPECT_NEAR(repair->distance, 0.5, 1e-9);
  EXPECT_EQ(ExecuteLog(repair->log, d0).slot(1).values[1], 0.0);
}

TEST(QFixQueryTypes, RepairsRelativeSetCorruption) {
  // SET a1 = a1 + delta with the wrong delta.
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  for (int i = 0; i < 6; ++i) d0.AddTuple({double(i), double(10 * i)});

  auto make_log = [&](double delta) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::AttrScaled(1, 1.0, delta)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kLe, 3})));
    return log;
  };
  QueryLog dirty_log = make_log(-7);
  QueryLog clean_log = make_log(5);
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_DOUBLE_EQ(repair->log[0].GetParam(
                       {relational::ParamRef::Kind::kSetConstant, 0, 0}),
                   5.0);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

// ---------------------------------------------------------------------
// Refinement (tuple slicing step 2, paper Fig. 5b).
// ---------------------------------------------------------------------

TEST(QFixRefinement, ExcludesNonComplaintTupleBetweenIntervals) {
  // Dirty range [8, 12] and true range [28, 32] do not overlap, with a
  // non-complaint tuple (a0 = 20) between them. Step 1's minimal-distance
  // repair would stretch the interval over 20; step 2 must exclude it.
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  d0.AddTuple({10, 0});
  d0.AddTuple({20, 0});
  d0.AddTuple({30, 0});

  auto make_log = [&](double lo, double hi) {
    QueryLog log;
    log.push_back(Query::Update("T", {{1, LinearExpr::Constant(1)}},
                                Predicate::Between(0, lo, hi)));
    return log;
  };
  QueryLog dirty_log = make_log(8, 12);
  QueryLog clean_log = make_log(28, 32);
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(repair->stats.refined);
  // The repaired interval matches 30 but neither 10 nor 20.
  const Query& q = repair->log[0];
  EXPECT_FALSE(q.Matches({10, 0}));
  EXPECT_FALSE(q.Matches({20, 0}));
  EXPECT_TRUE(q.Matches({30, 0}));
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixRefinement, NoRefinementWhenIntervalsOverlap) {
  // Fig. 5a: overlapping dirty and true interval, no stranded tuples;
  // step 1 alone is exact and the NC set is empty.
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  d0.AddTuple({10, 0});
  d0.AddTuple({12, 0});
  d0.AddTuple({14, 0});
  d0.AddTuple({16, 0});

  auto make_log = [&](double lo, double hi) {
    QueryLog log;
    log.push_back(Query::Update("T", {{1, LinearExpr::Constant(1)}},
                                Predicate::Between(0, lo, hi)));
    return log;
  };
  QueryLog dirty_log = make_log(10, 13);  // matches 10, 12
  QueryLog clean_log = make_log(12, 17);  // matches 12, 14, 16
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

// ---------------------------------------------------------------------
// Incomplete complaint sets (§6).
// ---------------------------------------------------------------------

TEST(QFixIncomplete, RepairsWithPartialComplaints) {
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet full = DiffStates(dirty, truth);
  // Keep only the complaint on t4 (slot 3) — the paper's §6 scenario.
  ComplaintSet partial;
  partial.Add(*full.Find(3));

  QFixEngine engine(dirty_log, d0, dirty, partial);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  // The reported complaint is resolved...
  EXPECT_TRUE(repair->verified);
  Database fixed = ExecuteLog(repair->log, d0);
  EXPECT_DOUBLE_EQ(fixed.slot(3).values[1], 21625);
  // ...and with tuple slicing the repair generalizes: the unreported
  // error on t3 (86000) is healed too, because the minimal threshold
  // change that frees t4 also frees t3.
  EXPECT_DOUBLE_EQ(fixed.slot(2).values[1], 21500);
}

TEST(QFixIncomplete, BasicWithoutTupleSlicingGoesInfeasible) {
  // The same partial complaint under the unsliced basic encoding pins t3
  // to its dirty (wrong) value while t4 must change — no single
  // threshold does both, so the MILP is infeasible (paper §6).
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet full = DiffStates(dirty, truth);
  ComplaintSet partial;
  partial.Add(*full.Find(3));

  QFixOptions options;
  options.tuple_slicing = false;
  options.refinement = false;
  QFixEngine engine(dirty_log, d0, dirty, partial, options);
  auto repair = engine.RepairIncremental(1);
  ASSERT_FALSE(repair.ok());
  EXPECT_TRUE(repair.status().IsInfeasible())
      << repair.status().ToString();
}

// ---------------------------------------------------------------------
// Optimization-level consistency.
// ---------------------------------------------------------------------

struct SlicingConfig {
  bool tuple, query, attr;
};

class QFixSlicingTest : public ::testing::TestWithParam<int> {};

TEST_P(QFixSlicingTest, AllOptimizationLevelsProduceVerifiedRepairs) {
  const SlicingConfig configs[] = {
      {false, false, false}, {true, false, false}, {false, true, false},
      {false, false, true},  {true, true, false},  {true, true, true},
  };
  const SlicingConfig& cfg = configs[GetParam() % 6];
  const int scenario = GetParam() / 6;

  // Three scenarios: corrupt WHERE constant, SET constant, INSERT value.
  Schema schema = Schema::WithDefaultNames(3);
  Database d0(schema, "T");
  for (int i = 0; i < 10; ++i) {
    d0.AddTuple({double(i * 5), double(i), 100});
  }
  auto make_log = [&](bool corrupted) {
    QueryLog log;
    double where_c = corrupted && scenario == 0 ? 15 : 30;
    double set_c = corrupted && scenario == 1 ? -3 : 4;
    // Corrupt attr 1 of the INSERT: it survives to D_n both directly and
    // through the trailing SET a2 = a1 pass.
    std::vector<double> ins{7, corrupted && scenario == 2 ? 0.0 : 50.0, 9};
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::AttrScaled(1, 1.0, set_c)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, where_c})));
    log.push_back(Query::Insert("T", ins));
    log.push_back(Query::Update("T", {{2, LinearExpr::Attr(1)}},
                                Predicate::True()));
    return log;
  };
  QueryLog dirty_log = make_log(true);
  QueryLog clean_log = make_log(false);

  QFixOptions options;
  options.tuple_slicing = cfg.tuple;
  options.query_slicing = cfg.query;
  options.attribute_slicing = cfg.attr;
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0, options);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok())
      << "scenario " << scenario << " cfg " << cfg.tuple << cfg.query
      << cfg.attr << ": " << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0))
      << "scenario " << scenario;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, QFixSlicingTest,
                         ::testing::Range(0, 18));

// ---------------------------------------------------------------------
// Multi-corruption basic repair.
// ---------------------------------------------------------------------

TEST(QFixMultiCorruption, BasicRepairsTwoCorruptedQueries) {
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  for (int i = 0; i < 6; ++i) d0.AddTuple({double(i * 10), 0});

  auto make_log = [&](double c1, double c2) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(c1)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 30})));
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(c2)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kLe, 10})));
    return log;
  };
  QueryLog dirty_log = make_log(7, 13);   // both SET constants wrong
  QueryLog clean_log = make_log(5, 11);
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairBasic();
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_EQ(repair->changed_queries, (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

// ---------------------------------------------------------------------
// Incremental search order and failure modes.
// ---------------------------------------------------------------------

TEST(QFixIncremental, FindsOldCorruptionBehindCleanQueries) {
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  for (int i = 0; i < 8; ++i) d0.AddTuple({double(i * 10), 1});

  auto make_log = [&](double threshold) {
    QueryLog log;
    // Oldest query corrupted; several clean queries after it.
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(2)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, threshold})));
    for (int i = 0; i < 4; ++i) {
      log.push_back(Query::Update(
          "T", {{1, LinearExpr::AttrScaled(1, 2.0)}},
          Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 60})));
    }
    return log;
  };
  QueryLog dirty_log = make_log(20);  // should be 50
  QueryLog clean_log = make_log(50);
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_EQ(repair->changed_queries, (std::vector<size_t>{0}));
  EXPECT_GE(repair->stats.attempts, 1);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixIncremental, RejectsBadBatchSize) {
  QueryLog log = PaperLog(85700);
  Database d0 = TaxD0();
  QFixEngine engine = MakeEngine(log, log, d0);
  EXPECT_TRUE(engine.RepairIncremental(0).status().IsInvalidArgument());
}

TEST(QFixIncremental, InfeasibleWhenNoQueryExplainsComplaints) {
  // Complaint on an attribute no query ever writes.
  Schema schema = Schema::WithDefaultNames(2);
  Database d0(schema, "T");
  d0.AddTuple({1, 1});
  QueryLog log;
  log.push_back(Query::Update("T", {{0, LinearExpr::Constant(5)}},
                              Predicate::True()));
  Database dirty = ExecuteLog(log, d0);
  ComplaintSet complaints;
  complaints.Add({0, true, {5, 99}});  // a1 never written
  QFixEngine engine(log, d0, dirty, complaints);
  auto repair = engine.RepairIncremental(1);
  ASSERT_FALSE(repair.ok());
  EXPECT_TRUE(repair.status().IsInfeasible());
}

// ---------------------------------------------------------------------
// Encoder-level properties.
// ---------------------------------------------------------------------

TEST(EncoderTest, CleanLogIsZeroCostFeasible) {
  // Encoding an *uncorrupted* log with an empty complaint set and all
  // queries parameterized must admit the original parameters at cost 0.
  QueryLog log = PaperLog(87500);
  Database d0 = TaxD0();
  Database dn = ExecuteLog(log, d0);
  ComplaintSet none;

  EncodeRequest req;
  req.log = &log;
  req.d0 = &d0;
  req.dirty_dn = &dn;
  req.complaints = &none;
  req.parameterized.assign(log.size(), true);
  req.encoded.assign(log.size(), true);
  for (size_t i = 0; i < dn.NumSlots(); ++i) req.tuple_slots.push_back(i);

  auto problem = Encode(req);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  milp::MilpSolution sol = milp::MilpSolver().Solve(problem->model);
  ASSERT_EQ(sol.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-6);
  QueryLog repaired = ConvertQLog(log, *problem, sol.x);
  EXPECT_NEAR(relational::LogDistance(log, repaired), 0.0, 1e-6);
}

TEST(EncoderTest, RejectsMalformedRequests) {
  QueryLog log = PaperLog(87500);
  Database d0 = TaxD0();
  Database dn = ExecuteLog(log, d0);
  ComplaintSet none;

  EncodeRequest req;
  req.log = &log;
  req.d0 = &d0;
  req.dirty_dn = &dn;
  req.complaints = &none;
  req.parameterized.assign(2, true);  // wrong size
  req.encoded.assign(2, true);
  EXPECT_TRUE(Encode(req).status().IsInvalidArgument());

  req.parameterized.assign(3, true);
  req.encoded.assign(3, false);  // parameterized but not encoded
  EXPECT_TRUE(Encode(req).status().IsInvalidArgument());

  req.encoded.assign(3, true);
  EncodingContext other_log;
  other_log.insert_tid.assign(2, -1);  // derived for a 2-query log
  req.context = &other_log;
  EXPECT_TRUE(Encode(req).status().IsInvalidArgument());
}

// A caller-derived context must encode exactly the model Encode derives
// for itself, including the INSERT's tid and the refinement-style
// options that leave the context's inputs alone.
TEST(EncoderTest, SuppliedContextEncodesTheSameModel) {
  QueryLog log = PaperLog(85700);
  Database d0 = TaxD0();
  Database dirty = ExecuteLog(log, d0);
  ComplaintSet complaints = DiffStates(dirty, ExecuteLog(PaperLog(87500), d0));

  EncodeRequest req;
  req.log = &log;
  req.d0 = &d0;
  req.dirty_dn = &dirty;
  req.complaints = &complaints;
  req.parameterized = {true, false, false};
  req.encoded.assign(log.size(), true);
  req.tuple_slots = {2, 3, 4};  // slot 4 is the INSERT's tuple
  req.soft_slots = {4};
  req.options.soft_match_weight = 1.0;
  auto derived = Encode(req);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();

  EncodingContext ctx =
      DeriveEncodingContext(log, d0, dirty, complaints, req.options);
  EXPECT_EQ(ctx.insert_tid, (std::vector<int64_t>{-1, 4, -1}));
  req.context = &ctx;
  auto supplied = Encode(req);
  ASSERT_TRUE(supplied.ok()) << supplied.status().ToString();
  EXPECT_EQ(milp::WriteLpFormat(supplied->model),
            milp::WriteLpFormat(derived->model));
  EXPECT_EQ(supplied->value_bound, derived->value_bound);
  EXPECT_EQ(supplied->epsilon, derived->epsilon);
}

// Random single-corruption property sweep: corrupt one query in a random
// log, derive the complete complaint set, and require a verified repair.
class QFixRandomRepairTest : public ::testing::TestWithParam<int> {};

TEST_P(QFixRandomRepairTest, IncrementalRepairResolvesAllComplaints) {
  Rng rng(7000 + GetParam());
  const size_t num_attrs = 3;
  const int num_tuples = 12;
  const int num_queries = 6;
  Schema schema = Schema::WithDefaultNames(num_attrs);
  Database d0(schema, "T");
  for (int i = 0; i < num_tuples; ++i) {
    std::vector<double> vals;
    for (size_t a = 0; a < num_attrs; ++a) {
      vals.push_back(static_cast<double>(rng.UniformInt(0, 50)));
    }
    d0.AddTuple(vals);
  }

  auto random_update = [&](Rng& r) {
    size_t set_attr = 1 + r.Index(num_attrs - 1);
    LinearExpr expr =
        r.Bernoulli(0.5)
            ? LinearExpr::Constant(double(r.UniformInt(0, 50)))
            : LinearExpr::AttrScaled(set_attr, 1.0,
                                     double(r.UniformInt(1, 10)));
    double lo = double(r.UniformInt(0, 40));
    Predicate where =
        r.Bernoulli(0.5)
            ? Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, lo})
            : Predicate::Between(0, lo, lo + double(r.UniformInt(2, 10)));
    return Query::Update("T", {{set_attr, expr}}, where);
  };

  QueryLog clean_log;
  for (int i = 0; i < num_queries; ++i) {
    clean_log.push_back(random_update(rng));
  }
  // Corrupt one random query's first parameter.
  size_t corrupt_idx = rng.Index(clean_log.size());
  QueryLog dirty_log = clean_log;
  auto params = dirty_log[corrupt_idx].Params();
  auto ref = params[rng.Index(params.size())];
  double orig = dirty_log[corrupt_idx].GetParam(ref);
  dirty_log[corrupt_idx].SetParam(
      ref, orig + double(rng.UniformInt(5, 25)) *
                      (rng.Bernoulli(0.5) ? 1.0 : -1.0));

  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet complaints = DiffStates(dirty, truth);
  if (complaints.empty()) {
    GTEST_SKIP() << "corruption was a semantic no-op";
  }

  QFixOptions options;
  options.time_limit_seconds = 60.0;
  QFixEngine engine(dirty_log, d0, dirty, complaints, options);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << "case " << GetParam() << ": "
                           << repair.status().ToString();
  EXPECT_TRUE(repair->verified) << "case " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSingleCorruptions, QFixRandomRepairTest,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------
// Parameter polishing (post-solve cleanup of epsilon-boundary optima).
// ---------------------------------------------------------------------

TEST(QFixPolish, RepairedThresholdIsACleanInteger) {
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0);

  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ASSERT_TRUE(repair->verified);
  double threshold = repair->log[0].GetParam(
      {relational::ParamRef::Kind::kWhereRhs, 0, 0});
  // Polishing rounds the epsilon-boundary optimum to an integer that
  // replays identically (the data is integral).
  EXPECT_DOUBLE_EQ(threshold, std::round(threshold));
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixPolish, DisablingPolishStillVerifies) {
  QueryLog dirty_log = PaperLog(85700);
  QueryLog clean_log = PaperLog(87500);
  Database d0 = TaxD0();
  QFixOptions options;
  options.polish_params = false;
  QFixEngine engine = MakeEngine(dirty_log, clean_log, d0, options);

  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->verified);
  EXPECT_TRUE(ReplayMatchesTruth(repair->log, clean_log, d0));
}

TEST(QFixPolish, PolishNeverChangesTheFinalState) {
  // On a mid-log range corruption, polished and unpolished repairs must
  // replay to the same final database state.
  workload::SyntheticSpec spec;
  spec.num_tuples = 60;
  spec.num_attrs = 4;
  spec.num_queries = 12;
  workload::Scenario s = workload::MakeSyntheticScenario(spec, {5}, 321);

  QFixOptions polished;
  QFixOptions raw;
  raw.polish_params = false;
  QFixEngine e1(s.dirty_log, s.d0, s.dirty, s.complaints, polished);
  QFixEngine e2(s.dirty_log, s.d0, s.dirty, s.complaints, raw);
  auto r1 = e1.RepairIncremental(1);
  auto r2 = e2.RepairIncremental(1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  Database f1 = ExecuteLog(r1->log, s.d0);
  Database f2 = ExecuteLog(r2->log, s.d0);
  ASSERT_EQ(f1.NumSlots(), f2.NumSlots());
  for (size_t i = 0; i < f1.NumSlots(); ++i) {
    ASSERT_EQ(f1.slot(i).alive, f2.slot(i).alive) << "slot " << i;
    if (!f1.slot(i).alive) continue;
    for (size_t a = 0; a < f1.schema().num_attrs(); ++a) {
      EXPECT_NEAR(f1.slot(i).values[a], f2.slot(i).values[a], 1e-6)
          << "slot " << i << " attr " << a;
    }
  }
}

// ---------------------------------------------------------------------
// Per-engine memo: an engine derives its encoding context and §5.3
// attribute filter once and reuses them across attempts and calls, so
// every call must return exactly what a fresh engine returns.
// ---------------------------------------------------------------------

std::string Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return std::to_string(bits);
}

// Everything a memo could disturb: the status, the repaired SQL and
// every parameter's bits, the diagnosis, distance bits, the verdict,
// attempts and model sizes.
std::string Fingerprint(const Result<Repair>& r, const Schema& schema) {
  if (!r.ok()) return "status " + r.status().ToString();
  std::string out;
  for (const Query& q : r->log) {
    out += q.ToSql(schema) + ";";
    for (const relational::ParamRef& ref : q.Params()) {
      out += " " + Bits(q.GetParam(ref));
    }
    out += "\n";
  }
  out += "changed";
  for (size_t i : r->changed_queries) out += " " + std::to_string(i);
  out += "\ndistance " + Bits(r->distance);
  out += " verified " + std::to_string(r->verified);
  out += " collateral " + std::to_string(r->collateral);
  out += " attempts " + std::to_string(r->stats.attempts);
  out += " vars " + std::to_string(r->stats.num_vars);
  out += " constraints " + std::to_string(r->stats.num_constraints);
  out += " integer_vars " + std::to_string(r->stats.num_integer_vars);
  out += " tuples " + std::to_string(r->stats.encoded_tuples);
  out += " queries " + std::to_string(r->stats.encoded_queries);
  out += " refined " + std::to_string(r->stats.refined);
  return out;
}

// One engine answers RepairSingle(i) newest to oldest, then DiagnoseAll,
// RepairIncremental(1) and RepairBasic; a fresh engine answers each call
// alone. The answers must agree field for field.
void ExpectMemoMatchesFresh(const QueryLog& log, const Database& d0,
                            const Database& dirty,
                            const ComplaintSet& complaints,
                            const QFixOptions& options) {
  const Schema& schema = d0.schema();
  QFixEngine memo(log, d0, dirty, complaints, options);
  auto fresh = [&] { return QFixEngine(log, d0, dirty, complaints, options); };
  for (size_t i = log.size(); i-- > 0;) {
    SCOPED_TRACE("RepairSingle(" + std::to_string(i) + ")");
    EXPECT_EQ(Fingerprint(memo.RepairSingle(i), schema),
              Fingerprint(fresh().RepairSingle(i), schema));
  }
  std::vector<Repair> memo_all = memo.DiagnoseAll();
  std::vector<Repair> fresh_all = fresh().DiagnoseAll();
  ASSERT_EQ(memo_all.size(), fresh_all.size());
  for (size_t k = 0; k < memo_all.size(); ++k) {
    SCOPED_TRACE("DiagnoseAll #" + std::to_string(k));
    EXPECT_EQ(Fingerprint(memo_all[k], schema),
              Fingerprint(fresh_all[k], schema));
  }
  EXPECT_EQ(Fingerprint(memo.RepairIncremental(1), schema),
            Fingerprint(fresh().RepairIncremental(1), schema));
  EXPECT_EQ(Fingerprint(memo.RepairBasic(), schema),
            Fingerprint(fresh().RepairBasic(), schema));
}

TEST(QFixEngineMemo, TaxesMatchFreshEnginesUnderEverySlicing) {
  QueryLog dirty_log = PaperLog(85700);
  Database d0 = TaxD0();
  Database dirty = ExecuteLog(dirty_log, d0);
  ComplaintSet complaints =
      DiffStates(dirty, ExecuteLog(PaperLog(87500), d0));
  for (bool query_slicing : {true, false}) {
    for (bool attribute_slicing : {true, false}) {
      SCOPED_TRACE("query_slicing " + std::to_string(query_slicing) +
                   " attribute_slicing " + std::to_string(attribute_slicing));
      QFixOptions options;
      options.query_slicing = query_slicing;
      options.attribute_slicing = attribute_slicing;
      ExpectMemoMatchesFresh(dirty_log, d0, dirty, complaints, options);
    }
  }
}

// INSERTs and DELETEs exercise the context's insert-tid map, and
// RepairSingle on a query outside the loose relevance set parameterizes
// a query the engine's filter was not built for.
TEST(QFixEngineMemo, SyntheticInsertDeleteLogMatchesFreshEngines) {
  workload::SyntheticSpec spec;
  spec.num_tuples = 40;
  spec.num_attrs = 6;
  spec.num_queries = 14;
  spec.insert_fraction = 0.2;
  spec.delete_fraction = 0.15;
  workload::Scenario s = workload::MakeSyntheticScenario(spec, {9}, 39);
  ASSERT_FALSE(s.complaints.empty());

  bool has_insert = false, has_delete = false;
  for (const Query& q : s.dirty_log) {
    has_insert = has_insert || q.type() == relational::QueryType::kInsert;
    has_delete = has_delete || q.type() == relational::QueryType::kDelete;
  }
  EXPECT_TRUE(has_insert);
  EXPECT_TRUE(has_delete);
  QFixEngine probe(s.dirty_log, s.d0, s.dirty, s.complaints);
  size_t outside = 0;
  for (size_t i = 0; i < s.dirty_log.size(); ++i) {
    const AttrSet& f = probe.full_impacts()[i];
    if (!f.Intersects(probe.complaint_attrs()) &&
        s.dirty_log[i].NumParams() > 0) {
      ++outside;
    }
  }
  EXPECT_GT(outside, 0u) << "no parameterizable query outside Rel(Q)";

  ExpectMemoMatchesFresh(s.dirty_log, s.d0, s.dirty, s.complaints, {});
}

// An INSERT or DELETE impacts every attribute, so on the log above the
// engine's filter already holds them all. On this UPDATE-only log the
// queries outside Rel(Q) touch attributes the engine's filter lacks, so
// their attempts add to it. Raw emission pins every constant cell of a
// filtered attribute to a variable: an addition that leaked into a
// later attempt would change its model size.
TEST(QFixEngineMemo, FilterAdditionsStayWithTheirAttempt) {
  workload::SyntheticSpec spec;
  spec.num_tuples = 40;
  spec.num_attrs = 10;
  spec.num_queries = 14;
  workload::Scenario s = workload::MakeSyntheticScenario(spec, {9}, 11);
  ASSERT_FALSE(s.complaints.empty());

  QFixEngine probe(s.dirty_log, s.d0, s.dirty, s.complaints);
  const size_t width = s.d0.schema().num_attrs();
  std::vector<size_t> loose;
  for (size_t i = 0; i < s.dirty_log.size(); ++i) {
    if (probe.full_impacts()[i].Intersects(probe.complaint_attrs())) {
      loose.push_back(i);
    }
  }
  AttrSet filter = provenance::RelevantAttributes(
      s.dirty_log, loose, probe.complaint_attrs(), width);
  size_t widening = 0;
  for (size_t i = 0; i < s.dirty_log.size(); ++i) {
    AttrSet own =
        provenance::RelevantAttributes(s.dirty_log, {i}, AttrSet(width), width);
    if (!filter.ContainsAll(own)) ++widening;
  }
  EXPECT_GT(widening, 0u) << "no query outside the engine's filter";

  QFixOptions raw;
  raw.encoder.fold_constants = false;
  ExpectMemoMatchesFresh(s.dirty_log, s.d0, s.dirty, s.complaints, raw);
  ExpectMemoMatchesFresh(s.dirty_log, s.d0, s.dirty, s.complaints, {});
}

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
