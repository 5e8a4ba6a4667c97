#include "qfix/report_json.h"

#include "common/json.h"
#include "sql/diff.h"

namespace qfix {
namespace qfixcore {

std::string RepairToJson(const Repair& repair,
                         const relational::QueryLog& original,
                         const relational::Schema& schema) {
  JsonWriter w;
  w.BeginObject();
  w.Key("verified");
  w.Bool(repair.verified);
  w.Key("distance");
  w.Double(repair.distance);
  w.Key("collateral");
  w.Uint(repair.collateral);

  // Per-query repairs, derived from the same diff the text report uses.
  w.Key("repairs");
  w.BeginArray();
  for (const sql::QueryDiff& d :
       sql::DiffLogs(original, repair.log, schema)) {
    w.BeginObject();
    w.Key("query");
    w.Uint(d.index + 1);  // human numbering: q1 is the oldest
    w.Key("executed_sql");
    w.String(d.original_sql);
    w.Key("repaired_sql");
    w.String(d.repaired_sql);
    w.Key("params");
    w.BeginArray();
    for (const sql::ParamChange& p : d.params) {
      w.BeginObject();
      w.Key("where");
      w.String(p.where);
      w.Key("before");
      w.Double(p.before);
      w.Key("after");
      w.Double(p.after);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  // The verdict (JudgeReplay): complaint resolution and the
  // non-complaint tuples the repair moves, its predicted unreported
  // errors.
  size_t resolved = 0;
  w.Key("complaints");
  w.BeginObject();
  w.Key("rows");
  w.BeginArray();
  for (const ComplaintVerdict& row : repair.complaints) {
    resolved += row.resolved ? 1 : 0;
    w.BeginObject();
    w.Key("tid");
    w.Int(row.tid);
    w.Key("resolved");
    w.Bool(row.resolved);
    w.EndObject();
  }
  w.EndArray();
  w.Key("total");
  w.Uint(repair.complaints.size());
  w.Key("resolved");
  w.Uint(resolved);
  w.EndObject();

  w.Key("side_effects");
  w.BeginArray();
  for (size_t slot : repair.side_effects) {
    w.BeginObject();
    w.Key("tid");
    w.Uint(slot);
    w.EndObject();
  }
  w.EndArray();

  w.Key("stats");
  w.BeginObject();
  w.Key("vars");
  w.Int(repair.stats.num_vars);
  w.Key("constraints");
  w.Int(repair.stats.num_constraints);
  w.Key("integer_vars");
  w.Int(repair.stats.num_integer_vars);
  w.Key("solver_nodes");
  w.Int(repair.stats.solver_nodes);
  w.Key("attempts");
  w.Int(repair.stats.attempts);
  w.Key("refined");
  w.Bool(repair.stats.refined);
  w.Key("encoded_tuples");
  w.Uint(repair.stats.encoded_tuples);
  w.Key("encoded_queries");
  w.Uint(repair.stats.encoded_queries);
  w.Key("encode_seconds");
  w.Double(repair.stats.encode_seconds);
  w.Key("solve_seconds");
  w.Double(repair.stats.solve_seconds);
  w.Key("total_seconds");
  w.Double(repair.stats.total_seconds);
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace qfixcore
}  // namespace qfix
