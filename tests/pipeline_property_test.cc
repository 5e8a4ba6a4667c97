// Cross-module pipeline properties on random single-corruption
// scenarios: the bookkeeping every layer reports (changed queries,
// distances, diffs, reports, snapshots) must agree with every other
// layer. These invariants are what the CLI and the bench harness rely
// on without re-checking.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/strings.h"
#include "io/snapshot.h"
#include "qfix/explain.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "sql/diff.h"
#include "sql/parser.h"
#include "workload/synthetic.h"

namespace qfix {
namespace qfixcore {
namespace {

using relational::Database;
using relational::ExecuteLog;
using relational::LogDistance;

class PipelinePropertyTest : public testing::TestWithParam<int> {};

TEST_P(PipelinePropertyTest, AllLayersAgreeOnTheRepair) {
  workload::SyntheticSpec spec;
  spec.num_tuples = 50;
  spec.num_attrs = 5;
  spec.num_queries = 14;
  size_t corrupt = 3 + static_cast<size_t>(GetParam()) % 10;
  workload::Scenario s =
      workload::MakeSyntheticScenario(spec, {corrupt}, 9000 + GetParam());
  if (s.complaints.empty()) GTEST_SKIP() << "corruption was a no-op";

  QFixEngine engine(s.dirty_log, s.d0, s.dirty, s.complaints);
  auto repair = engine.RepairIncremental(1);
  if (!repair.ok()) GTEST_SKIP() << repair.status().ToString();

  // 1. The repair actually resolves the complaint set on replay.
  EXPECT_TRUE(repair->verified);

  // 2. changed_queries is exactly the set DiffLogs derives from the
  //    parameter values.
  auto diffs =
      sql::DiffLogs(s.dirty_log, repair->log, s.d0.schema(), 1e-7);
  ASSERT_EQ(diffs.size(), repair->changed_queries.size());
  for (size_t i = 0; i < diffs.size(); ++i) {
    EXPECT_EQ(diffs[i].index, repair->changed_queries[i]);
  }

  // 3. The reported distance is LogDistance of the returned log.
  EXPECT_NEAR(repair->distance, LogDistance(s.dirty_log, repair->log),
              1e-6);

  // 4. The report's resolution count matches the verified flag.
  std::string report = ExplainRepair(*repair, s.dirty_log, s.d0, s.dirty);
  std::string expected = StringPrintf("%zu of %zu complaint(s) resolved",
                                      s.complaints.size(),
                                      s.complaints.size());
  EXPECT_NE(report.find(expected), std::string::npos) << report;

  // 5. The repaired final state survives a checkpoint round-trip.
  Database fixed = ExecuteLog(repair->log, s.d0);
  auto reloaded = io::ReadSnapshot(io::WriteSnapshot(fixed));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->NumSlots(), fixed.NumSlots());
  for (size_t i = 0; i < fixed.NumSlots(); ++i) {
    EXPECT_EQ(reloaded->slot(i).alive, fixed.slot(i).alive);
    if (!fixed.slot(i).alive) continue;
    for (size_t a = 0; a < fixed.schema().num_attrs(); ++a) {
      EXPECT_EQ(reloaded->slot(i).values[a], fixed.slot(i).values[a]);
    }
  }

  // 6. Printing the repaired log as SQL and reparsing it replays to the
  //    same final state (the administrator applies *text*, not memory).
  std::string sql_text;
  for (const auto& q : repair->log) {
    sql_text += q.ToSql(s.d0.schema()) + ";";
  }
  auto reparsed = sql::ParseLog(sql_text, s.d0.schema());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Database replayed = ExecuteLog(*reparsed, s.d0);
  ASSERT_EQ(replayed.NumSlots(), fixed.NumSlots());
  for (size_t i = 0; i < fixed.NumSlots(); ++i) {
    ASSERT_EQ(replayed.slot(i).alive, fixed.slot(i).alive) << "slot " << i;
    if (!fixed.slot(i).alive) continue;
    for (size_t a = 0; a < fixed.schema().num_attrs(); ++a) {
      EXPECT_NEAR(replayed.slot(i).values[a], fixed.slot(i).values[a],
                  1e-9)
          << "slot " << i << " attr " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PipelinePropertyTest,
                         testing::Range(0, 15));

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
