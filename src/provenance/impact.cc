#include "provenance/impact.h"

namespace qfix {
namespace provenance {

std::vector<AttrSet> ComputeFullImpacts(const relational::QueryLog& log,
                                        size_t num_attrs) {
  const size_t n = log.size();
  std::vector<AttrSet> deps;
  deps.reserve(n);
  for (const relational::Query& q : log) {
    deps.push_back(q.Dependency(num_attrs));
  }
  std::vector<AttrSet> full(n, AttrSet(num_attrs));
  // Back to front: F(q_j) for j > i is final by the time q_i is processed,
  // and the forward scan inside matches Algorithm 2's accumulation. The
  // scan stops once F(q_i) holds every attribute: every further union
  // would be a no-op (an INSERT or DELETE gets there at once).
  for (size_t i = n; i-- > 0;) {
    AttrSet f = log[i].DirectImpact(num_attrs);
    for (size_t j = i + 1; j < n && f.Count() < num_attrs; ++j) {
      if (f.Intersects(deps[j])) f.UnionWith(full[j]);
    }
    full[i] = std::move(f);
  }
  return full;
}

std::vector<size_t> RelevantQueries(const std::vector<AttrSet>& full_impacts,
                                    const AttrSet& complaint_attrs,
                                    bool single_corruption) {
  std::vector<size_t> out;
  for (size_t i = 0; i < full_impacts.size(); ++i) {
    const AttrSet& f = full_impacts[i];
    if (single_corruption) {
      if (f.ContainsAll(complaint_attrs) && !complaint_attrs.Empty()) {
        out.push_back(i);
      }
    } else if (f.Intersects(complaint_attrs)) {
      out.push_back(i);
    }
  }
  return out;
}

AttrSet RelevantAttributes(const relational::QueryLog& log,
                           const std::vector<size_t>& relevant_queries,
                           const AttrSet& complaint_attrs,
                           size_t num_attrs) {
  AttrSet out = complaint_attrs;
  QFIX_CHECK(out.capacity() == num_attrs);
  for (size_t i : relevant_queries) {
    QFIX_CHECK(i < log.size());
    out.UnionWith(log[i].DirectImpact(num_attrs));
    out.UnionWith(log[i].Dependency(num_attrs));
  }
  return out;
}

}  // namespace provenance
}  // namespace qfix
