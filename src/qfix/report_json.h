// Machine-readable diagnosis reports (JSON).
//
// The text report (explain.h) is for a human reviewer; this rendering
// is for the systems around them — the paper's Example 1 call-center
// workflow wants the diagnosis attached to a ticket, not pasted into
// one. The document carries the same facts as the text report: which
// queries changed and how, the repair's verdict (verification,
// per-complaint resolution and the predicted unreported errors its
// collateral counts) and solver statistics. It renders that verdict as
// the engine judged it (JudgeReplay, qfix.h) and replays nothing.
//
// Document shape (stable; extended fields are additive):
// {
//   "verified": true,
//   "distance": 801,
//   "collateral": 0,
//   "repairs": [{"query": 1, "executed_sql": ..., "repaired_sql": ...,
//                "params": [{"where": ..., "before": ..., "after": ...}]}],
//   "complaints": {"total": 2, "resolved": 2,
//                  "rows": [{"tid": 2, "resolved": true}]},
//   "side_effects": [{"tid": 5}],
//   "stats": {"vars": ..., "constraints": ..., "attempts": ...,
//             "encode_seconds": ..., "solve_seconds": ...}
// }
#ifndef QFIX_QFIX_REPORT_JSON_H_
#define QFIX_QFIX_REPORT_JSON_H_

#include <string>

#include "qfix/qfix.h"
#include "relational/query.h"
#include "relational/schema.h"

namespace qfix {
namespace qfixcore {

/// Renders `repair` as a single-line JSON document. `original` is the
/// executed (dirty) log the repair was derived from, and `schema` names
/// its attributes.
std::string RepairToJson(const Repair& repair,
                         const relational::QueryLog& original,
                         const relational::Schema& schema);

}  // namespace qfixcore
}  // namespace qfix

#endif  // QFIX_QFIX_REPORT_JSON_H_
