#include "harness/metrics.h"

#include <cmath>

#include "common/logging.h"
#include "relational/executor.h"

namespace qfix {
namespace harness {

namespace {

bool TuplesEqual(const relational::Tuple& a, const relational::Tuple& b,
                 double tol) {
  if (a.alive != b.alive) return false;
  if (!a.alive) return true;
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (std::fabs(a.values[i] - b.values[i]) > tol) return false;
  }
  return true;
}

}  // namespace

RepairAccuracy EvaluateRepair(const relational::QueryLog& repaired_log,
                              const relational::Database& d0,
                              const relational::Database& dirty,
                              const relational::Database& truth,
                              double tol) {
  relational::Database fixed = relational::ExecuteLog(repaired_log, d0);
  QFIX_CHECK(fixed.NumSlots() == dirty.NumSlots());
  QFIX_CHECK(fixed.NumSlots() == truth.NumSlots());

  RepairAccuracy acc;
  for (size_t i = 0; i < fixed.NumSlots(); ++i) {
    const relational::Tuple& f = fixed.slot(i);
    const relational::Tuple& d = dirty.slot(i);
    const relational::Tuple& t = truth.slot(i);
    bool is_true_complaint = !TuplesEqual(d, t, tol);
    bool was_repaired = !TuplesEqual(f, d, tol);
    bool matches_truth = TuplesEqual(f, t, tol);
    acc.true_complaints += is_true_complaint;
    acc.repaired_tuples += was_repaired;
    acc.correct_repairs += was_repaired && matches_truth;
    acc.resolved_complaints += is_true_complaint && matches_truth;
  }
  acc.precision =
      acc.repaired_tuples > 0
          ? static_cast<double>(acc.correct_repairs) / acc.repaired_tuples
          : (acc.true_complaints == 0 ? 1.0 : 0.0);
  acc.recall = acc.true_complaints > 0
                   ? static_cast<double>(acc.resolved_complaints) /
                         acc.true_complaints
                   : 1.0;
  acc.f1 = (acc.precision + acc.recall) > 0
               ? 2.0 * acc.precision * acc.recall /
                     (acc.precision + acc.recall)
               : 0.0;
  return acc;
}

}  // namespace harness
}  // namespace qfix
