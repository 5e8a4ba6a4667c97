// Shared fixtures for the qfix-layer suites: the paper's running
// example (Figure 2) — the Taxes table, its trusted checkpoint D0, and
// the three-query log whose q1 predicate carries the transposed digit
// when built with PaperLog(85700) and is correct with PaperLog(87500) —
// plus SlowTaxLogSql(), a padded variant whose basic-mode diagnosis
// takes a real branch & bound search.
#ifndef QFIX_TESTS_TEST_SUPPORT_H_
#define QFIX_TESTS_TEST_SUPPORT_H_

#include <string>

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

}  // namespace test
}  // namespace qfix

#endif  // QFIX_TESTS_TEST_SUPPORT_H_
