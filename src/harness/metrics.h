// Repair accuracy metrics (paper §7.1).
//
// Precision: of the tuples the repair changed (relative to the dirty
// state), the fraction now equal to the truth. Recall: of the true
// complaint tuples (dirty != truth), the fraction the repair fixed.
// F1: their harmonic mean.
#ifndef QFIX_HARNESS_METRICS_H_
#define QFIX_HARNESS_METRICS_H_

#include <cstddef>

#include "relational/database.h"
#include "relational/query.h"

namespace qfix {
namespace harness {

struct RepairAccuracy {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  /// Tuples the repaired log changed relative to the dirty state.
  size_t repaired_tuples = 0;
  /// Of those, tuples now exactly matching the truth.
  size_t correct_repairs = 0;
  /// Tuples where dirty differs from truth (the full complaint set).
  size_t true_complaints = 0;
  /// Of those, tuples the repair fixed.
  size_t resolved_complaints = 0;
};

/// Scores `repaired_log` by replaying it on `d0` and comparing tuple-wise
/// against `dirty` (= dirty_log(D0)) and `truth` (= clean_log(D0)).
RepairAccuracy EvaluateRepair(const relational::QueryLog& repaired_log,
                              const relational::Database& d0,
                              const relational::Database& dirty,
                              const relational::Database& truth,
                              double tol = 1e-6);

}  // namespace harness
}  // namespace qfix

#endif  // QFIX_HARNESS_METRICS_H_
