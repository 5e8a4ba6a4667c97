#include "qfix/explain.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"
#include "relational/executor.h"
#include "sql/diff.h"

namespace qfix {
namespace qfixcore {

namespace {

// "owed 25800 -> 21500, pay 60200 -> 64500" for the attributes on which
// `from` and `to` disagree by more than the verdict's move tolerance.
std::string DescribeValueChanges(const relational::Schema& schema,
                                 const std::vector<double>& from,
                                 const std::vector<double>& to) {
  std::vector<std::string> parts;
  for (size_t a = 0; a < schema.num_attrs(); ++a) {
    if (std::fabs(from[a] - to[a]) > kMoveTolerance) {
      parts.push_back(schema.attr_name(a) + " " + FormatNumber(from[a]) +
                      " -> " + FormatNumber(to[a]));
    }
  }
  return parts.empty() ? "(no value change)" : Join(parts, ", ");
}

// How one tuple's final state changes from `before` (observed dirty) to
// `after` (replayed repair).
std::string DescribeChange(const relational::Schema& schema,
                           const relational::Tuple& before,
                           const relational::Tuple& after) {
  if (before.alive && !after.alive) return "deleted";
  std::string values = DescribeValueChanges(schema, before.values,
                                            after.values);
  return !before.alive && after.alive ? "restored: " + values : values;
}

}  // namespace

std::string ExplainRepair(const Repair& repair,
                          const relational::QueryLog& original,
                          const relational::Database& d0,
                          const relational::Database& dirty,
                          const ExplainOptions& options) {
  const relational::Schema& schema = d0.schema();
  std::string out;
  out += "QFix diagnosis report\n";
  out += "=====================\n";

  // Which queries changed.
  if (repair.changed_queries.empty()) {
    out += "repaired queries  : none (the log already explains the "
           "complaints)\n";
  } else {
    std::vector<std::string> names;
    names.reserve(repair.changed_queries.size());
    for (size_t idx : repair.changed_queries) {
      names.push_back(StringPrintf("q%zu", idx + 1));
    }
    out += StringPrintf("repaired queries  : %zu of %zu (%s)\n",
                        repair.changed_queries.size(), original.size(),
                        Join(names, ", ").c_str());
  }
  out += "parameter distance: " + FormatNumber(repair.distance) + "\n";
  out += StringPrintf("verified          : %s\n",
                      repair.verified
                          ? "yes (replay resolves every complaint)"
                          : "NO (replay does not match all targets)");
  out += StringPrintf(
      "collateral        : %zu non-complaint tuple(s) moved\n",
      repair.collateral);
  out += StringPrintf(
      "encoded problem   : %d vars (%d integer), %d constraints; "
      "%zu tuples x %zu queries\n",
      repair.stats.num_vars, repair.stats.num_integer_vars,
      repair.stats.num_constraints, repair.stats.encoded_tuples,
      repair.stats.encoded_queries);
  out += StringPrintf(
      "time              : %.3fs total (encode %.3fs, solve %.3fs, "
      "%d attempt(s)%s)\n",
      repair.stats.total_seconds, repair.stats.encode_seconds,
      repair.stats.solve_seconds, repair.stats.attempts,
      repair.stats.refined ? ", refined" : "");

  if (options.include_diff) {
    out += "\nQuery repairs:\n";
    out += sql::FormatLogDiff(original, repair.log, schema);
  }

  // The verdict names the tuples and whether each complaint resolves;
  // the replay of Q* supplies the repaired values the report prints.
  relational::Database repaired_dn = relational::ExecuteLog(repair.log, d0);
  auto describe = [&](size_t slot) {
    return DescribeChange(schema, dirty.slot(slot), repaired_dn.slot(slot));
  };

  if (options.include_complaints && !repair.complaints.empty()) {
    out += "\nComplaint resolution:\n";
    size_t resolved = 0;
    for (size_t i = 0; i < repair.complaints.size(); ++i) {
      const ComplaintVerdict& row = repair.complaints[i];
      resolved += row.resolved ? 1 : 0;
      if (i >= options.max_rows) continue;
      out += StringPrintf("  tid %lld: %s  [%s]\n",
                          static_cast<long long>(row.tid),
                          describe(static_cast<size_t>(row.tid)).c_str(),
                          row.resolved ? "resolved" : "UNRESOLVED");
    }
    if (repair.complaints.size() > options.max_rows) {
      out += StringPrintf("  ... and %zu more\n",
                          repair.complaints.size() - options.max_rows);
    }
    out += StringPrintf("  %zu of %zu complaint(s) resolved\n", resolved,
                        repair.complaints.size());
  }

  if (options.include_side_effects) {
    // Non-complaint tuples whose final state the repair changes: these
    // are the repair's predictions of unreported errors (§1).
    const std::vector<size_t>& moved = repair.side_effects;
    if (moved.empty()) {
      out += "\nSide effects: none (only complaint tuples change)\n";
    } else {
      out += StringPrintf(
          "\nSide effects: %zu non-complaint tuple(s) change — likely "
          "unreported errors:\n",
          moved.size());
      for (size_t i = 0; i < moved.size() && i < options.max_rows; ++i) {
        out += StringPrintf("  tid %zu: %s\n", moved[i],
                            describe(moved[i]).c_str());
      }
      if (moved.size() > options.max_rows) {
        out += StringPrintf("  ... and %zu more\n",
                            moved.size() - options.max_rows);
      }
    }
  }
  return out;
}

}  // namespace qfixcore
}  // namespace qfix
