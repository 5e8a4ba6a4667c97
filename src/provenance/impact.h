// Query impact analysis: full-impact F(q) (Algorithm 2), relevant-query
// and relevant-attribute sets for the slicing optimizations (§5.2, §5.3).
#ifndef QFIX_PROVENANCE_IMPACT_H_
#define QFIX_PROVENANCE_IMPACT_H_

#include <vector>

#include "common/attr_set.h"
#include "provenance/complaint.h"
#include "relational/query.h"

namespace qfix {
namespace provenance {

/// F(q_i) for every query (Alg. 2): the direct impact I(q_i) unioned with
/// the full impact of every later query whose dependency P(q_j) overlaps
/// the accumulating set. Computed back to front; the scan for q_i stops
/// as soon as F(q_i) holds every attribute, since no later union can add
/// to it. That is O(n^2) set operations at worst (no query saturates)
/// and O(n) when every query does at once (INSERT/DELETE-heavy logs).
std::vector<AttrSet> ComputeFullImpacts(const relational::QueryLog& log,
                                        size_t num_attrs);

/// Rel(Q) (§5.2): indexes of queries that may have caused the complaints.
/// With `single_corruption` the stricter filter applies — only queries
/// whose full impact covers *all* complaint attributes qualify, since a
/// single bad query must explain every complaint attribute.
std::vector<size_t> RelevantQueries(const std::vector<AttrSet>& full_impacts,
                                    const AttrSet& complaint_attrs,
                                    bool single_corruption);

/// Rel(A) (§5.3): attributes any relevant query reads or writes, plus the
/// complaint attributes themselves.
AttrSet RelevantAttributes(const relational::QueryLog& log,
                           const std::vector<size_t>& relevant_queries,
                           const AttrSet& complaint_attrs, size_t num_attrs);

}  // namespace provenance
}  // namespace qfix

#endif  // QFIX_PROVENANCE_IMPACT_H_
