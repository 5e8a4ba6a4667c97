// Tests for the SQL log diff (sql/diff.h), the diagnosis reports
// (qfix/explain.h, qfix/report_json.h) and the verdict both render
// (JudgeReplay, qfix/qfix.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "provenance/complaint.h"
#include "qfix/explain.h"
#include "qfix/qfix.h"
#include "qfix/report_json.h"
#include "relational/executor.h"
#include "sql/diff.h"
#include "test_support.h"

namespace qfix {
namespace qfixcore {
namespace {

using provenance::ComplaintSet;
using provenance::DiffStates;
using relational::CmpOp;
using relational::Database;
using relational::ExecuteLog;
using relational::LinearExpr;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::Schema;

using test::PaperLog;
using test::TaxD0;
using test::TaxSchema;

// ---------------------------------------------------------------------
// DiffLogs / FormatLogDiff
// ---------------------------------------------------------------------

TEST(LogDiffTest, IdenticalLogsProduceEmptyDiff) {
  QueryLog log = PaperLog(85700);
  auto diffs = sql::DiffLogs(log, log, TaxSchema());
  EXPECT_TRUE(diffs.empty());
  EXPECT_EQ(sql::FormatLogDiff(diffs), "(no query changes)\n");
}

TEST(LogDiffTest, ReportsChangedWhereThreshold) {
  QueryLog original = PaperLog(85700);
  QueryLog repaired = PaperLog(87500);
  auto diffs = sql::DiffLogs(original, repaired, TaxSchema());
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].index, 0u);
  ASSERT_EQ(diffs[0].params.size(), 1u);
  EXPECT_DOUBLE_EQ(diffs[0].params[0].before, 85700);
  EXPECT_DOUBLE_EQ(diffs[0].params[0].after, 87500);
  EXPECT_NE(diffs[0].params[0].where.find("WHERE"), std::string::npos);

  std::string text = sql::FormatLogDiff(diffs);
  EXPECT_NE(text.find("@@ q1 @@"), std::string::npos);
  EXPECT_NE(text.find("- UPDATE"), std::string::npos);
  EXPECT_NE(text.find("+ UPDATE"), std::string::npos);
  EXPECT_NE(text.find("85700 -> 87500"), std::string::npos);
  EXPECT_NE(text.find("(+1800)"), std::string::npos);
}

TEST(LogDiffTest, ReportsInsertAndSetChangesWithAttributeNames) {
  QueryLog original = PaperLog(87500);
  QueryLog repaired = PaperLog(87500);
  // Corrupt the INSERT's second value and q3's SET constant.
  repaired[1].mutable_insert_values()[1] = 30000;
  repaired[2].mutable_set_clauses()[0].expr.set_constant(5.0);

  auto diffs = sql::DiffLogs(original, repaired, TaxSchema());
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].index, 1u);
  EXPECT_NE(diffs[0].params[0].where.find("VALUE owed"), std::string::npos);
  EXPECT_EQ(diffs[1].index, 2u);
  EXPECT_NE(diffs[1].params[0].where.find("SET pay"), std::string::npos);
}

TEST(LogDiffTest, ToleranceSuppressesFloatDust) {
  QueryLog original = PaperLog(85700);
  QueryLog repaired = PaperLog(85700 + 1e-12);
  EXPECT_TRUE(sql::DiffLogs(original, repaired, TaxSchema()).empty());
}

// ---------------------------------------------------------------------
// ExplainRepair
// ---------------------------------------------------------------------

struct Scenario {
  QueryLog dirty_log;
  Database d0;
  Database dirty;
  ComplaintSet complaints;
};

Scenario PaperScenario() {
  Scenario s{PaperLog(85700), TaxD0(), Database(), ComplaintSet()};
  s.dirty = ExecuteLog(s.dirty_log, s.d0);
  Database truth = ExecuteLog(PaperLog(87500), s.d0);
  s.complaints = DiffStates(s.dirty, truth);
  return s;
}

TEST(ExplainRepairTest, ReportCoversAllSections) {
  Scenario s = PaperScenario();
  QFixEngine engine(s.dirty_log, s.d0, s.dirty, s.complaints);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();

  std::string report = ExplainRepair(*repair, s.dirty_log, s.d0, s.dirty);
  EXPECT_NE(report.find("QFix diagnosis report"), std::string::npos);
  EXPECT_NE(report.find("repaired queries  : 1 of 3 (q1)"),
            std::string::npos);
  EXPECT_NE(report.find("verified          : yes"), std::string::npos);
  EXPECT_NE(report.find("@@ q1 @@"), std::string::npos);
  EXPECT_NE(report.find("Complaint resolution:"), std::string::npos);
  // Both of the paper's complaints (t3, t4 -> tids 2, 3) resolve.
  EXPECT_NE(report.find("2 of 2 complaint(s) resolved"), std::string::npos);
  EXPECT_NE(report.find("[resolved]"), std::string::npos);
  EXPECT_EQ(report.find("UNRESOLVED"), std::string::npos);
  // A complete complaint set leaves no side effects.
  EXPECT_NE(report.find("Side effects: none"), std::string::npos);
}

TEST(ExplainRepairTest, SectionsCanBeDisabled) {
  Scenario s = PaperScenario();
  QFixEngine engine(s.dirty_log, s.d0, s.dirty, s.complaints);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok());

  ExplainOptions options;
  options.include_diff = false;
  options.include_complaints = false;
  options.include_side_effects = false;
  std::string report =
      ExplainRepair(*repair, s.dirty_log, s.d0, s.dirty, options);
  EXPECT_EQ(report.find("@@ q1 @@"), std::string::npos);
  EXPECT_EQ(report.find("Complaint resolution:"), std::string::npos);
  EXPECT_EQ(report.find("Side effects"), std::string::npos);
  EXPECT_NE(report.find("parameter distance"), std::string::npos);
}

TEST(ExplainRepairTest, IncompleteComplaintsShowSideEffects) {
  // Drop the complaint on t3 (tid 2): the repair generalizes to it and
  // the report must surface it as a likely unreported error.
  Scenario s = PaperScenario();
  ComplaintSet partial;
  for (const auto& c : s.complaints.complaints()) {
    if (c.tid == 3) partial.Add(c);
  }
  ASSERT_EQ(partial.size(), 1u);

  QFixEngine engine(s.dirty_log, s.d0, s.dirty, partial);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();

  std::string report = ExplainRepair(*repair, s.dirty_log, s.d0, s.dirty);
  if (repair->collateral > 0) {
    EXPECT_NE(report.find("likely unreported errors"), std::string::npos);
    EXPECT_NE(report.find("tid 2:"), std::string::npos);
  }
  EXPECT_NE(report.find("1 of 1 complaint(s) resolved"), std::string::npos);
}

TEST(ExplainRepairTest, RowCapTruncatesLongLists) {
  Scenario s = PaperScenario();
  QFixEngine engine(s.dirty_log, s.d0, s.dirty, s.complaints);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok());

  ExplainOptions options;
  options.max_rows = 1;
  std::string report =
      ExplainRepair(*repair, s.dirty_log, s.d0, s.dirty, options);
  EXPECT_NE(report.find("... and 1 more"), std::string::npos);
}

// ---------------------------------------------------------------------
// RepairToJson
// ---------------------------------------------------------------------

TEST(RepairJsonTest, CarriesTheSameFactsAsTheTextReport) {
  Scenario s = PaperScenario();
  QFixEngine engine(s.dirty_log, s.d0, s.dirty, s.complaints);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();

  std::string json = RepairToJson(*repair, s.dirty_log, s.d0.schema());
  EXPECT_NE(json.find("\"verified\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query\":1"), std::string::npos);
  EXPECT_NE(json.find("\"executed_sql\":\"UPDATE Taxes"),
            std::string::npos);
  EXPECT_NE(json.find("\"repaired_sql\":\"UPDATE Taxes"),
            std::string::npos);
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"resolved\":2"), std::string::npos);
  EXPECT_NE(json.find("\"side_effects\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; full parsing
  // is covered by the CLI test piping through a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(RepairJsonTest, SideEffectsListUnreportedErrors) {
  Scenario s = PaperScenario();
  ComplaintSet partial;
  for (const auto& c : s.complaints.complaints()) {
    if (c.tid == 3) partial.Add(c);
  }
  QFixEngine engine(s.dirty_log, s.d0, s.dirty, partial);
  auto repair = engine.RepairIncremental(1);
  ASSERT_TRUE(repair.ok());
  std::string json = RepairToJson(*repair, s.dirty_log, s.d0.schema());
  if (repair->collateral > 0) {
    EXPECT_NE(json.find("\"side_effects\":[{\"tid\":2}"),
              std::string::npos)
        << json;
  }
}

// ---------------------------------------------------------------------
// JudgeReplay: one verdict under one tolerance policy, rendered by both
// reports
// ---------------------------------------------------------------------

// The line of `report` that starts with `prefix`, or "" if none does.
std::string LineStartingWith(const std::string& report,
                             const std::string& prefix) {
  size_t begin = report.find("\n" + prefix);
  if (begin == std::string::npos) return "";
  ++begin;
  return report.substr(begin, report.find('\n', begin) - begin);
}

// The paper's intended log (q1 at 87500) judged on a hand-built replayed
// state: its replay from D0, with complaint tuple t3 (tid 2) `owed` off
// its target by `complaint_off` and non-complaint t1 (tid 0) `pay` moved
// by `other_moved`.
Repair JudgeHandBuiltReplay(const Scenario& s, double complaint_off,
                            double other_moved) {
  Repair repair;
  repair.log = PaperLog(87500);
  repair.changed_queries = {0};
  Database fixed = ExecuteLog(repair.log, s.d0);
  fixed.slot(2).values[1] += complaint_off;
  fixed.slot(0).values[2] += other_moved;
  JudgeReplay(fixed, s.dirty, s.complaints, &repair);
  return repair;
}

bool RowResolved(const Repair& repair, int64_t tid) {
  for (const ComplaintVerdict& row : repair.complaints) {
    if (row.tid == tid) return row.resolved;
  }
  ADD_FAILURE() << "no verdict row for tid " << tid;
  return false;
}

TEST(JudgeReplayTest, ComplaintWithinTargetToleranceResolvesInBothReports) {
  Scenario s = PaperScenario();
  ASSERT_EQ(s.complaints.size(), 2u);
  Repair repair = JudgeHandBuiltReplay(s, 5e-5, 0.0);
  EXPECT_TRUE(repair.verified);
  ASSERT_EQ(repair.complaints.size(), 2u);
  EXPECT_TRUE(RowResolved(repair, 2));
  EXPECT_TRUE(RowResolved(repair, 3));
  EXPECT_TRUE(repair.side_effects.empty());
  EXPECT_EQ(repair.collateral, 0u);

  std::string json = RepairToJson(repair, s.dirty_log, s.d0.schema());
  EXPECT_NE(json.find("\"verified\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"tid\":2,\"resolved\":true}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total\":2,\"resolved\":2"), std::string::npos)
      << json;

  std::string text = ExplainRepair(repair, s.dirty_log, s.d0, s.dirty);
  EXPECT_NE(text.find("verified          : yes"), std::string::npos) << text;
  std::string row = LineStartingWith(text, "  tid 2:");
  EXPECT_NE(row.find("[resolved]"), std::string::npos) << text;
  EXPECT_NE(text.find("2 of 2 complaint(s) resolved"), std::string::npos);
}

TEST(JudgeReplayTest, ComplaintBeyondTargetToleranceIsUnresolvedInBothReports) {
  Scenario s = PaperScenario();
  Repair repair = JudgeHandBuiltReplay(s, 2e-4, 0.0);
  EXPECT_FALSE(repair.verified);
  EXPECT_FALSE(RowResolved(repair, 2));
  EXPECT_TRUE(RowResolved(repair, 3));

  std::string json = RepairToJson(repair, s.dirty_log, s.d0.schema());
  EXPECT_NE(json.find("\"verified\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"tid\":2,\"resolved\":false}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total\":2,\"resolved\":1"), std::string::npos)
      << json;

  std::string text = ExplainRepair(repair, s.dirty_log, s.d0, s.dirty);
  EXPECT_NE(text.find("verified          : NO"), std::string::npos) << text;
  std::string row = LineStartingWith(text, "  tid 2:");
  EXPECT_NE(row.find("[UNRESOLVED]"), std::string::npos) << text;
  EXPECT_NE(text.find("1 of 2 complaint(s) resolved"), std::string::npos);
}

// A non-complaint tuple is a side effect once it moves by more than the
// move tolerance (1e-6), and both reports list exactly those tuples.
TEST(JudgeReplayTest, SideEffectsFollowTheMoveTolerance) {
  Scenario s = PaperScenario();
  Repair still = JudgeHandBuiltReplay(s, 0.0, 5e-7);
  EXPECT_TRUE(still.verified);
  EXPECT_TRUE(still.side_effects.empty());
  EXPECT_NE(RepairToJson(still, s.dirty_log, s.d0.schema())
                .find("\"side_effects\":[]"),
            std::string::npos);

  Repair moved = JudgeHandBuiltReplay(s, 0.0, 2e-6);
  EXPECT_TRUE(moved.verified);
  EXPECT_EQ(moved.side_effects, std::vector<size_t>{0});
  EXPECT_EQ(moved.collateral, 1u);
  std::string json = RepairToJson(moved, s.dirty_log, s.d0.schema());
  EXPECT_NE(json.find("\"collateral\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"side_effects\":[{\"tid\":0}]"), std::string::npos)
      << json;
  std::string text = ExplainRepair(moved, s.dirty_log, s.d0, s.dirty);
  EXPECT_NE(text.find("Side effects: 1 non-complaint tuple(s) change"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  tid 0:"), std::string::npos) << text;
}

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
