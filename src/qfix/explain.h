// Human-readable diagnosis reports.
//
// A Repair (qfix.h) is a data structure; ExplainRepair renders it as the
// report an administrator reviews before applying the fix (§1: diagnoses
// are validated by an expert, then used to find unreported errors):
// which queries changed and how, whether replaying the repaired log
// resolves every complaint, what it costs in parameter distance, and
// which non-complaint tuples the repair also moves — the candidates for
// unreported errors.
#ifndef QFIX_QFIX_EXPLAIN_H_
#define QFIX_QFIX_EXPLAIN_H_

#include <cstddef>
#include <string>

#include "qfix/qfix.h"
#include "relational/database.h"
#include "relational/query.h"

namespace qfix {
namespace qfixcore {

struct ExplainOptions {
  /// Include the unified SQL diff of Q vs Q*.
  bool include_diff = true;
  /// Include the per-complaint resolution table.
  bool include_complaints = true;
  /// Include the tuples the repair changes beyond the complaint set
  /// (likely unreported errors, §1).
  bool include_side_effects = true;
  /// Cap on listed complaints / side-effect tuples; the rest is counted.
  size_t max_rows = 10;
};

/// Renders `repair` as a multi-section text report. `original` is the
/// executed (dirty) log the repair was derived from; `d0`/`dirty` are the
/// database states handed to QFixEngine. The verdict (which complaints
/// resolve, which tuples are side effects) is the repair's own
/// (JudgeReplay); one replay of Q* from `d0` supplies the repaired
/// values the listed tuples change to.
std::string ExplainRepair(const Repair& repair,
                          const relational::QueryLog& original,
                          const relational::Database& d0,
                          const relational::Database& dirty,
                          const ExplainOptions& options = ExplainOptions());

}  // namespace qfixcore
}  // namespace qfix

#endif  // QFIX_QFIX_EXPLAIN_H_
