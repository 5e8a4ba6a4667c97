// Shared fixtures for the qfix-layer suites: the paper's running
// example (Figure 2) — the Taxes table, its trusted checkpoint D0, and
// the three-query log whose q1 predicate carries the transposed digit
// when built with PaperLog(85700) and is correct with PaperLog(87500) —
// plus SlowTaxLogSql(), a padded variant whose basic-mode diagnosis
// takes a real branch & bound search, and WriterCoverageModel(), the
// model the LP and MPS writer suites pin.
#ifndef QFIX_TESTS_TEST_SUPPORT_H_
#define QFIX_TESTS_TEST_SUPPORT_H_

#include <string>

#include "milp/model.h"
#include "relational/database.h"
#include "relational/linear_expr.h"
#include "relational/predicate.h"
#include "relational/query.h"
#include "relational/schema.h"

namespace qfix {
namespace test {

inline relational::Schema TaxSchema() {
  return relational::Schema({"income", "owed", "pay"});
}

inline relational::Database TaxD0() {
  relational::Database db(TaxSchema(), "Taxes");
  db.AddTuple({9500, 950, 8550});
  db.AddTuple({90000, 22500, 67500});
  db.AddTuple({86000, 21500, 64500});
  db.AddTuple({86500, 21625, 64875});
  return db;
}

inline relational::QueryLog PaperLog(double q1_threshold) {
  using relational::CmpOp;
  using relational::LinearExpr;
  using relational::Predicate;
  using relational::Query;
  relational::QueryLog log;
  log.push_back(Query::Update(
      "Taxes", {{1, LinearExpr::AttrScaled(0, 0.3)}},
      Predicate::Atom({LinearExpr::Attr(0), CmpOp::kGe, q1_threshold})));
  log.push_back(Query::Insert("Taxes", {87000, 21750, 65250}));
  LinearExpr pay = LinearExpr::Attr(0);
  pay.AddTerm(1, -1.0);
  log.push_back(Query::Update("Taxes", {{2, pay}}, Predicate::True()));
  return log;
}

// The Figure 2 log as SQL, padded so its basic-mode diagnosis is
// genuinely slow: the padding no-ops sit BEFORE the final
// `pay = income - owed` update, so upstream of the complained-about
// attributes their parameterizations all interact with the repair
// (appended after it they are dead code presolve prunes in
// microseconds). Mirrors tools/qfix_load's --probe-traces recipe.
inline std::string SlowTaxLogSql() {
  std::string log =
      "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
      "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n";
  for (int i = 0; i < 8; ++i) {
    log += "UPDATE Taxes SET income = income + 0 WHERE income < 0;\n";
  }
  log += "UPDATE Taxes SET pay = income - owed;\n";
  return log;
}

// A model that takes every branch of both model writers
// (milp/model_export.h): free, fixed, boxed and one-sided infinite
// bounds; binaries, one of them fixed; a general integer; integer
// columns that open and close the MPS COLUMNS section; a column with no
// entry; an empty row; a zero right-hand side; a negative objective
// constant; names that are renamed or deduplicated; a coefficient that
// needs %.17g (0.1 + 0.2); and a row long enough to wrap.
// milp_lpformat_test and milp_mpsformat_test pin its text.
inline milp::Model WriterCoverageModel() {
  using milp::kInf;
  using milp::Sense;
  milp::Model m;
  milp::VarId x = m.AddContinuous(0, 10, "x");
  milp::VarId y = m.AddBinary("y");
  milp::VarId z = m.AddVariable(milp::VarType::kInteger, -3, 7, "z");
  milp::VarId t = m.AddContinuous(-kInf, kInf, "t[3].owed");
  milp::VarId end = m.AddContinuous(2.5, 2.5, "end");  // an LP keyword
  m.AddContinuous(-kInf, 4, "e12");  // reads as a number; no column entry
  milp::VarId lives = m.AddContinuous(1, kInf, "9lives");
  milp::VarId dp = m.AddContinuous(0, 5, "d+");
  milp::VarId dm = m.AddContinuous(0, 5, "d-");  // d_ is taken: v8
  milp::VarId v10 = m.AddContinuous(0, 1, "v10");
  milp::VarId again = m.AddContinuous(0, 1, "d+");  // d_ and v10 taken
  milp::VarId w = m.AddBinary("w");
  m.FixVariable(w, 1.0);

  m.AddConstraint({{x, 1.0}, {y, 5.0}}, Sense::kLe, 8.0);
  m.AddConstraint({{x, 2.0}, {z, -1.0}}, Sense::kGe, 1.0);
  m.AddConstraint({{y, 1.0}, {z, 1.0}}, Sense::kEq, 2.0);
  m.AddConstraint({{t, 0.1 + 0.2}, {dp, -1.0}, {dm, 1.0}}, Sense::kLe, 0.0);
  m.AddConstraint({}, Sense::kGe, -1.0);
  milp::LinearTerms wide;
  for (milp::VarId v : {x, y, z, t, end, lives, dp, dm, v10, again, w}) {
    wide.push_back({v, 1234.5});
  }
  m.AddConstraint(std::move(wide), Sense::kLe, 99999.0);

  m.AddObjectiveTerm(x, 1.0);
  m.AddObjectiveTerm(z, 3.0);
  m.AddObjectiveTerm(t, -1.0);
  m.AddObjectiveTerm(dp, 0.5);
  m.AddObjectiveTerm(dm, 0.5);
  m.AddObjectiveConstant(-4.5);
  return m;
}

}  // namespace test
}  // namespace qfix

#endif  // QFIX_TESTS_TEST_SUPPORT_H_
