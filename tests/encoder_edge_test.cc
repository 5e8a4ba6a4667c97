// Encoder edge cases: every comparison operator, OR trees, equality
// side-binaries, attribute filters, and expression-valued predicates —
// each exercised through a full end-to-end repair — and the constant
// fold of a comparison, checked against the executor.
#include <gtest/gtest.h>

#include "milp/solver.h"
#include "provenance/complaint.h"
#include "qfix/encoder.h"
#include "qfix/qfix.h"
#include "relational/executor.h"

namespace qfix {
namespace qfixcore {
namespace {

using provenance::ComplaintSet;
using provenance::DiffStates;
using relational::CmpOp;
using relational::Comparison;
using relational::Database;
using relational::ExecuteLog;
using relational::LinearExpr;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::Schema;

struct RepairOutcome {
  bool ok;
  bool verified;
  bool matches_truth;
};

RepairOutcome RunRepair(const QueryLog& dirty_log,
                        const QueryLog& clean_log, const Database& d0) {
  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet complaints = DiffStates(dirty, truth);
  if (complaints.empty()) return {false, false, false};
  QFixEngine engine(dirty_log, d0, dirty, complaints);
  auto repair = engine.RepairIncremental(1);
  if (!repair.ok()) return {false, false, false};
  Database fixed = ExecuteLog(repair->log, d0);
  bool matches = true;
  for (size_t i = 0; i < fixed.NumSlots() && matches; ++i) {
    matches = fixed.slot(i).alive == truth.slot(i).alive;
    if (matches && fixed.slot(i).alive) {
      for (size_t a = 0; a < d0.schema().num_attrs() && matches; ++a) {
        matches = std::fabs(fixed.slot(i).values[a] -
                            truth.slot(i).values[a]) < 1e-6;
      }
    }
  }
  return {true, repair->verified, matches};
}

Database GridD0(int n) {
  Database d0(Schema::WithDefaultNames(2), "T");
  for (int i = 0; i < n; ++i) d0.AddTuple({double(i), 0});
  return d0;
}

// One corrupted query per comparison operator; the repair must recover
// the true final state (complete complaints + integer grid).
class OperatorRepairTest : public ::testing::TestWithParam<CmpOp> {};

TEST_P(OperatorRepairTest, RepairsEachComparisonOperator) {
  const CmpOp op = GetParam();
  Database d0 = GridD0(20);
  auto make_log = [&](double c) {
    QueryLog log;
    log.push_back(
        Query::Update("T", {{1, LinearExpr::Constant(7)}},
                      Predicate::Atom({LinearExpr::Attr(0), op, c})));
    return log;
  };
  QueryLog dirty_log = make_log(5);
  QueryLog clean_log = make_log(11);
  RepairOutcome out = RunRepair(dirty_log, clean_log, d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

INSTANTIATE_TEST_SUITE_P(AllOperators, OperatorRepairTest,
                         ::testing::Values(CmpOp::kLt, CmpOp::kLe,
                                           CmpOp::kGt, CmpOp::kGe,
                                           CmpOp::kEq, CmpOp::kNeq));

TEST(EncoderEdge, RepairsDisjunctivePredicate) {
  // WHERE a0 <= lo OR a0 >= hi — repair must adjust one arm.
  Database d0 = GridD0(20);
  auto make_log = [&](double lo, double hi) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(3)}},
        Predicate::Or(
            {Predicate::Atom({LinearExpr::Attr(0), CmpOp::kLe, lo}),
             Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, hi})})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(3, 15), make_log(6, 15), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

TEST(EncoderEdge, RepairsNestedAndOrPredicate) {
  // WHERE (a0 >= lo AND a0 <= lo+4) OR a1 = 42.
  Database d0(Schema::WithDefaultNames(3), "T");
  for (int i = 0; i < 25; ++i) {
    d0.AddTuple({double(i), i % 5 == 0 ? 42.0 : double(i), 0});
  }
  auto make_log = [&](double lo) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{2, LinearExpr::Constant(9)}},
        Predicate::Or(
            {Predicate::Between(0, lo, lo + 4),
             Predicate::Atom({LinearExpr::Attr(1), CmpOp::kEq, 42})})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(8), make_log(16), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
}

TEST(EncoderEdge, RepairsExpressionComparison) {
  // WHERE a0 - a1 >= c: the lhs is a multi-attribute linear expression.
  Database d0(Schema::WithDefaultNames(3), "T");
  for (int i = 0; i < 16; ++i) {
    d0.AddTuple({double(2 * i), double(i), 0});
  }
  auto make_log = [&](double c) {
    QueryLog log;
    LinearExpr diff = LinearExpr::Attr(0);
    diff.AddTerm(1, -1.0);
    log.push_back(Query::Update(
        "T", {{2, LinearExpr::Constant(5)}},
        Predicate::Atom({std::move(diff), CmpOp::kGe, c})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(3), make_log(9), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

TEST(EncoderEdge, RepairsMultiAttributeSetExpression) {
  // SET a2 = a0 + a1 + c with the wrong c.
  Database d0(Schema::WithDefaultNames(3), "T");
  for (int i = 0; i < 12; ++i) d0.AddTuple({double(i), double(3 * i), 0});
  auto make_log = [&](double c) {
    QueryLog log;
    LinearExpr sum = LinearExpr::Attr(0);
    sum.AddTerm(1, 1.0);
    sum.AddConstant(c);
    log.push_back(Query::Update(
        "T", {{2, std::move(sum)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 4})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(-2), make_log(6), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

TEST(EncoderEdge, RepairsMultipleSetClausesAtOnce) {
  // Both SET constants of one query corrupted.
  Database d0 = GridD0(14);
  auto make_log = [&](double c1, double c2) {
    QueryLog log;
    log.push_back(Query::Update(
        "T",
        {{1, LinearExpr::Constant(c1)},
         {0, LinearExpr::AttrScaled(0, 1.0, c2)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 9})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(4, 100), make_log(8, 200), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

TEST(EncoderEdge, EqualityPredicateOnComputedValue) {
  // A first query computes a1; a corrupted second query matches on the
  // *computed* value with an equality atom (side-binary path with a
  // symbolic g).
  Database d0 = GridD0(10);
  auto make_log = [&](double set_c) {
    QueryLog log;
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::AttrScaled(0, 1.0, 0.0)}},  // a1 = a0
        Predicate::True()));
    log.push_back(Query::Update(
        "T", {{1, LinearExpr::Constant(set_c)}},
        Predicate::Atom({LinearExpr::Attr(1), CmpOp::kEq, 4})));
    return log;
  };
  RepairOutcome out = RunRepair(make_log(77), make_log(50), d0);
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.matches_truth);
}

TEST(EncoderEdge, DisablingConstantFoldingPreservesRepairs) {
  // fold_constants = false emits the raw Eq. (1)-(6) constraints for
  // constant-input queries; the repair outcome must be unchanged, only
  // the model larger.
  Database d0 = GridD0(12);
  auto make_log = [&](double threshold) {
    QueryLog log;
    log.push_back(Query::Update(  // constant inputs: foldable
        "T", {{1, LinearExpr::Constant(5)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kLe, 3})));
    log.push_back(Query::Update(  // the corrupted query
        "T", {{1, LinearExpr::Constant(9)}},
        Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, threshold})));
    log.push_back(Query::Update(  // reads the corrupted output
        "T", {{1, LinearExpr::AttrScaled(1, 2.0)}}, Predicate::True()));
    return log;
  };
  QueryLog dirty_log = make_log(6);
  QueryLog clean_log = make_log(9);
  Database dirty = ExecuteLog(dirty_log, d0);
  Database truth = ExecuteLog(clean_log, d0);
  ComplaintSet complaints = DiffStates(dirty, truth);
  ASSERT_FALSE(complaints.empty());

  QFixOptions folded;
  QFixOptions raw;
  raw.encoder.fold_constants = false;
  QFixEngine e1(dirty_log, d0, dirty, complaints, folded);
  QFixEngine e2(dirty_log, d0, dirty, complaints, raw);
  auto r1 = e1.RepairIncremental(1);
  auto r2 = e2.RepairIncremental(1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r1->verified);
  EXPECT_TRUE(r2->verified);
  // Same diagnosis either way; the raw encoding pays in model size.
  EXPECT_EQ(r1->changed_queries, r2->changed_queries);
  EXPECT_GT(r2->stats.num_vars, r1->stats.num_vars);
  EXPECT_GT(r2->stats.num_constraints, r1->stats.num_constraints);
}

// A constant comparison folds the way the executor decides it: the lhs
// summed in LinearExpr::Eval's order, then compared with the rhs.
// Folding (0 - rhs) + a + b against 0 would call a + b = 0.1 + 0.2
// false on (0.1, 0.2), and the encoding would disagree with the replay:
// an Internal replay mismatch with nothing parameterized, and a model
// in which v is 0 before the second query with it parameterized.
TEST(EncoderEdge, ConstantComparisonFoldsLikeTheExecutor) {
  Database d0(Schema::WithDefaultNames(3), "T");
  d0.AddTuple({0.1, 0.2, 0});
  LinearExpr a_plus_b = LinearExpr::Attr(0);
  a_plus_b.AddTerm(1, 1.0);
  QueryLog log;
  log.push_back(Query::Update(
      "T", {{2, LinearExpr::Constant(1)}},
      Predicate::Atom({a_plus_b, CmpOp::kEq, 0.30000000000000004})));
  log.push_back(Query::Update(
      "T", {{2, LinearExpr::AttrScaled(2, 1.0, 5.0)}},
      Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, 0})));
  Database dn = ExecuteLog(log, d0);
  ASSERT_EQ(dn.slot(0).values[2], 6.0);  // the executor matched q1
  ComplaintSet none;

  for (bool second_parameterized : {false, true}) {
    SCOPED_TRACE(second_parameterized ? "q2 parameterized"
                                      : "nothing parameterized");
    EncodeRequest req;
    req.log = &log;
    req.d0 = &d0;
    req.dirty_dn = &dn;
    req.complaints = &none;
    req.tuple_slots = {0};
    req.parameterized = {false, second_parameterized};
    req.encoded = {true, true};
    auto problem = Encode(req);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    // The logged constants reproduce D_n, so they cost nothing.
    milp::MilpSolution sol = milp::MilpSolver().Solve(problem->model);
    ASSERT_EQ(sol.status, milp::MilpStatus::kOptimal);
    EXPECT_NEAR(sol.objective, 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
