// Noisy, incomplete complaint sets: the call-center reality.
//
// Example 1 of the paper: customers of a wireless provider report
// billing errors one at a time; most affected customers never call.
// This example shows the two QFix mechanisms for imperfect inputs:
//
//  * incompleteness — only 3 of 4 affected accounts complain; tuple
//    slicing (§5.1) still generalizes the repair to every affected
//    account, and the report lists the silent one as a likely
//    unreported error;
//  * false positives — one caller reports a *correct* balance as wrong;
//    the optional denoiser (Fig. 1, §6) screens it out before the MILP
//    would have been rendered infeasible.
//
// Build & run:  ./build/examples/noisy_complaints
#include <cstdio>

#include "provenance/complaint.h"
#include "provenance/denoiser.h"
#include "qfix/explain.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "sql/parser.h"

using qfix::provenance::Complaint;
using qfix::provenance::ComplaintSet;
using qfix::provenance::DenoiseComplaints;
using qfix::provenance::DiffStates;
using qfix::qfixcore::QFixEngine;
using qfix::relational::Database;
using qfix::relational::ExecuteLog;
using qfix::relational::Schema;

int main() {
  // Accounts table: monthly charge and discounted balance.
  Schema schema({"charge", "discount", "balance"});
  Database d0(schema, "Accounts");
  for (int i = 0; i < 12; ++i) {
    double charge = 40 + 5 * i;  // 40, 45, ... 95
    d0.AddTuple({charge, 0, charge});
  }

  // The corporate discount should apply to charges >= 70 (6 accounts);
  // the executed query applied it to >= 50 (10 accounts) — too many.
  auto dirty_log = qfix::sql::ParseLog(
      "UPDATE Accounts SET discount = 15 WHERE charge >= 50;"
      "UPDATE Accounts SET balance = charge - discount;",
      schema);
  auto clean_log = qfix::sql::ParseLog(
      "UPDATE Accounts SET discount = 15 WHERE charge >= 70;"
      "UPDATE Accounts SET balance = charge - discount;",
      schema);
  if (!dirty_log.ok() || !clean_log.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }
  Database dirty = ExecuteLog(*dirty_log, d0);
  Database truth = ExecuteLog(*clean_log, d0);
  ComplaintSet all_errors = DiffStates(dirty, truth);
  std::printf("accounts actually affected by the bad query: %zu\n",
              all_errors.size());

  // ---- Incompleteness: only three affected customers call in. The
  // account with charge 50 (tid 2) never complains; because it sits
  // inside the span of the reported errors' repair, the minimal
  // threshold fix covers it anyway (Fig. 5a). ----
  ComplaintSet reported;
  reported.Add(*all_errors.Find(3));  // charge 55
  reported.Add(*all_errors.Find(4));  // charge 60
  reported.Add(*all_errors.Find(5));  // charge 65

  // ---- A false positive: tid 11 (charge 95) reports its correct
  // balance as "wrong", asking for an absurd target. ----
  Complaint fake;
  fake.tid = 11;
  fake.target_alive = true;
  fake.target_values = {95, 15, 0};  // balance can't be 0
  reported.Add(fake);

  std::printf("complaints received: %zu (3 real, 1 bogus)\n\n",
              reported.size());

  // ---- Step 1: denoise. The bogus complaint's requested change is an
  // outlier relative to the other complaints' deltas. ----
  auto screened = DenoiseComplaints(reported, dirty);
  std::printf("denoiser kept %zu complaint(s), dropped %zu\n",
              screened.kept.size(), screened.dropped.size());
  for (const Complaint& c : screened.dropped.complaints()) {
    std::printf("  dropped tid %lld (requested change inconsistent with "
                "the complaint set)\n",
                static_cast<long long>(c.tid));
  }

  // ---- Step 2: diagnose from the surviving complaints. ----
  QFixEngine engine(*dirty_log, d0, dirty, screened.kept);
  auto repair = engine.RepairIncremental(1);
  if (!repair.ok()) {
    std::fprintf(stderr, "no diagnosis: %s\n",
                 repair.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "\n%s",
      qfix::qfixcore::ExplainRepair(*repair, *dirty_log, d0, dirty).c_str());

  // ---- Step 3: the repair generalizes beyond the reported errors. ----
  Database fixed = ExecuteLog(repair->log, d0);
  size_t recovered = 0;
  for (const Complaint& c : all_errors.complaints()) {
    const auto& t = fixed.slot(static_cast<size_t>(c.tid));
    bool match = t.alive == c.target_alive;
    for (size_t a = 0; match && a < schema.num_attrs(); ++a) {
      match = t.values[a] == c.target_values[a];
    }
    recovered += match ? 1 : 0;
  }
  std::printf("\nerrors fixed by replaying the repaired log: %zu of %zu "
              "(only %zu were ever reported)\n",
              recovered, all_errors.size(), screened.kept.size());
  return recovered == all_errors.size() ? 0 : 1;
}
