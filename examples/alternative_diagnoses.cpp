// Alternative diagnoses: when several queries could explain the errors.
//
// A complaint set rarely pins down a unique culprit: any query in the
// causal read-write chain to the complaint attributes can, with the
// right constant change, produce the observed targets. The paper hands
// the administrator one minimum-distance repair (§3, optimal diagnosis);
// QFixEngine::DiagnoseAll (an extension) enumerates every single-query
// diagnosis that resolves the complaints, ranked zero-collateral first
// and then by parameter distance, so a human can pick the explanation
// that matches what actually happened.
//
// Scenario: a payroll table sets a base bonus (q1), tops it up (q2),
// and recomputes totals (q3). The observed bonus of 900 should have
// been 400 — which is explained equally well by "q1 set 300 instead of
// -200" and by "q2 added 600 instead of 100". QFix surfaces both
// candidates with the evidence for each; only the administrator (or the
// application's change history) can tell which edit actually went
// wrong.
//
// Build & run:  ./build/examples/alternative_diagnoses
#include <cstdio>

#include "provenance/complaint.h"
#include "qfix/explain.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "sql/diff.h"
#include "sql/parser.h"

using qfix::provenance::ComplaintSet;
using qfix::provenance::DiffStates;
using qfix::qfixcore::QFixEngine;
using qfix::relational::Database;
using qfix::relational::ExecuteLog;
using qfix::relational::Schema;

int main() {
  Schema schema({"base", "bonus", "total"});
  Database d0(schema, "Payroll");
  d0.AddTuple({4000, 0, 4000});
  d0.AddTuple({5200, 0, 5200});
  d0.AddTuple({6100, 0, 6100});
  d0.AddTuple({8000, 0, 8000});

  // Executed log: q2's top-up was mistyped as 600 instead of 100, so
  // qualifying accounts show bonus 900 instead of 400.
  const char* executed_sql =
      "UPDATE Payroll SET bonus = 300 WHERE base >= 5000;"
      "UPDATE Payroll SET bonus = bonus + 600 WHERE base >= 5000;"
      "UPDATE Payroll SET total = base + bonus;";
  const char* intended_sql =
      "UPDATE Payroll SET bonus = 300 WHERE base >= 5000;"
      "UPDATE Payroll SET bonus = bonus + 100 WHERE base >= 5000;"
      "UPDATE Payroll SET total = base + bonus;";

  auto dirty_log = qfix::sql::ParseLog(executed_sql, schema);
  auto clean_log = qfix::sql::ParseLog(intended_sql, schema);
  if (!dirty_log.ok() || !clean_log.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  Database dirty = ExecuteLog(*dirty_log, d0);
  Database truth = ExecuteLog(*clean_log, d0);
  ComplaintSet complaints = DiffStates(dirty, truth);
  std::printf("complaints reported: %zu\n\n", complaints.size());

  // Constant-only repairs (no coefficient rewrites): the candidates stay
  // in the same shape as the edits an operator would actually have made.
  qfix::qfixcore::QFixOptions options;
  options.encoder.parameterize_coefficients = false;
  QFixEngine engine(*dirty_log, d0, dirty, complaints, options);

  // The ranked list of single-query diagnoses that resolve every
  // complaint. The true culprit (q2) should rank first; any other
  // explanation ranks by how much collateral and constant change it
  // needs.
  auto all = engine.DiagnoseAll(/*max_diagnoses=*/5);
  if (all.empty()) {
    std::fprintf(stderr, "no diagnosis found\n");
    return 1;
  }
  std::printf("=== %zu candidate diagnosis/es ===\n\n", all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    const auto& repair = all[i];
    std::printf("--- candidate #%zu (distance %.6g, collateral %zu) ---\n",
                i + 1, repair.distance, repair.collateral);
    std::printf("%s\n",
                qfix::sql::FormatLogDiff(*dirty_log, repair.log, schema)
                    .c_str());
  }

  // The full report for the top-ranked diagnosis.
  std::printf("=== report for the top-ranked diagnosis ===\n\n%s",
              qfix::qfixcore::ExplainRepair(all[0], *dirty_log, d0, dirty)
                  .c_str());

  // Sanity: the real culprit (q2) must be among the candidates, and
  // the genuinely ambiguous alternative (q1) should surface too.
  bool has_q1 = false;
  bool has_q2 = false;
  for (const auto& repair : all) {
    has_q1 |= repair.changed_queries == std::vector<size_t>{0};
    has_q2 |= repair.changed_queries == std::vector<size_t>{1};
  }
  std::printf("\ncandidates include the real culprit q2: %s\n",
              has_q2 ? "yes" : "no");
  std::printf("candidates include the equally-consistent q1: %s\n",
              has_q1 ? "yes" : "no");
  return has_q2 ? 0 : 1;
}
