// Golden reports: the exact RepairToJson bytes of fixed diagnoses,
// checked in under tests/golden/ (one report per line). A change that
// moves any report byte shows up here as a reviewed diff instead of
// passing silently. Wall-clock fields (stats.encode_seconds,
// solve_seconds, total_seconds) are zeroed before rendering; every
// other byte is deterministic.
//
// Scenarios: the paper's Fig. 2 taxes (Inc_1 and DiagnoseAll), the
// tpcc_audit and wireless_discounts examples, and §7.1 synthetic logs
// on which refinement adopts a repair and polish rewrites a parameter.
//
// After a deliberate report change, regenerate the files with
//   QFIX_UPDATE_GOLDEN=1 ./build/tests/golden_report_test
// and review the diff of tests/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "provenance/complaint.h"
#include "qfix/qfix.h"
#include "qfix/report_json.h"
#include "relational/executor.h"
#include "sql/parser.h"
#include "test_support.h"
#include "workload/synthetic.h"
#include "workload/tpcc_like.h"

namespace qfix {
namespace qfixcore {
namespace {

using provenance::ComplaintSet;
using relational::Database;
using relational::QueryLog;

// One diagnosis instance: what RepairToJson needs besides the repair.
struct Instance {
  QueryLog log;
  Database d0;
  Database dirty;
  ComplaintSet complaints;
};

Instance FromScenario(const workload::Scenario& s) {
  return {s.dirty_log, s.d0, s.dirty, s.complaints};
}

QFixEngine MakeEngine(const Instance& in, QFixOptions options = {}) {
  return QFixEngine(in.log, in.d0, in.dirty, in.complaints, options);
}

std::string Render(Repair repair, const Instance& in) {
  repair.stats.encode_seconds = 0.0;
  repair.stats.solve_seconds = 0.0;
  repair.stats.total_seconds = 0.0;
  return RepairToJson(repair, in.log, in.d0.schema()) + "\n";
}

// Compares `got` with tests/golden/<name>, or rewrites that file when
// QFIX_UPDATE_GOLDEN is set.
void ExpectGolden(const std::string& name, const std::string& got) {
  const std::string path = std::string(QFIX_GOLDEN_DIR) + "/" + name;
  if (std::getenv("QFIX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << got;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str()) << "report bytes differ from " << path;
}

Instance Taxes() {
  Instance in;
  in.log = test::PaperLog(85700);
  in.d0 = test::TaxD0();
  in.dirty = relational::ExecuteLog(in.log, in.d0);
  in.complaints = provenance::DiffStates(
      in.dirty, relational::ExecuteLog(test::PaperLog(87500), in.d0));
  return in;
}

// The scenario of examples/wireless_discounts.cpp: a discount policy
// run against the wrong company, reported by two customers.
Instance WirelessDiscounts() {
  Rng rng(77);
  relational::Schema schema(
      {"customer_id", "company", "base_charge", "discount", "billed"});
  Instance in;
  in.d0 = Database(schema, "Accounts");
  for (int i = 0; i < 600; ++i) {
    double company = static_cast<double>(rng.UniformInt(1, 12));
    double base = static_cast<double>(rng.UniformInt(40, 180));
    in.d0.AddTuple({static_cast<double>(i), company, base, 0.0, base});
  }
  auto dirty_log = sql::ParseLog(
      "UPDATE Accounts SET discount = 10 WHERE company = 4;"
      "UPDATE Accounts SET discount = 25 WHERE company = 2;"
      "UPDATE Accounts SET discount = 15 WHERE company = 11;"
      "UPDATE Accounts SET billed = base_charge - discount;",
      schema);
  auto clean_log = sql::ParseLog(
      "UPDATE Accounts SET discount = 10 WHERE company = 4;"
      "UPDATE Accounts SET discount = 25 WHERE company = 7;"
      "UPDATE Accounts SET discount = 15 WHERE company = 11;"
      "UPDATE Accounts SET billed = base_charge - discount;",
      schema);
  QFIX_CHECK(dirty_log.ok() && clean_log.ok());
  in.log = *dirty_log;
  in.dirty = relational::ExecuteLog(in.log, in.d0);
  Database truth = relational::ExecuteLog(*clean_log, in.d0);
  // The first company-7 and the first company-2 customer complain.
  const provenance::Complaint* first = nullptr;
  const provenance::Complaint* second = nullptr;
  ComplaintSet all = provenance::DiffStates(in.dirty, truth);
  for (const provenance::Complaint& c : all.complaints()) {
    double company = truth.slot(static_cast<size_t>(c.tid)).values[1];
    if (first == nullptr && company == 7.0) first = &c;
    if (second == nullptr && company == 2.0) second = &c;
  }
  QFIX_CHECK(first != nullptr && second != nullptr);
  in.complaints.Add(*first);
  in.complaints.Add(*second);
  return in;
}

// A §7.1 log of 400 tuples and 30 queries with one corrupted query in
// the newer half (the synthetic_milp benchmark's shape).
Instance Synthetic(uint64_t seed) {
  workload::SyntheticSpec spec;
  spec.num_tuples = 400;
  spec.num_queries = 30;
  spec.value_domain = 200;
  return FromScenario(
      workload::MakeSyntheticScenario(spec, {15 + seed % 15}, seed));
}

TEST(GoldenReportTest, TaxesIncremental) {
  Instance in = Taxes();
  auto repair = MakeEngine(in).RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ExpectGolden("taxes_inc1.json", Render(*repair, in));
}

TEST(GoldenReportTest, TaxesDiagnoseAll) {
  Instance in = Taxes();
  std::vector<Repair> all = MakeEngine(in).DiagnoseAll();
  ASSERT_FALSE(all.empty());
  std::string got;
  for (const Repair& r : all) got += Render(r, in);
  ExpectGolden("taxes_diagnose_all.json", got);
}

TEST(GoldenReportTest, TpccAudit) {
  Instance in = FromScenario(
      workload::MakeTpccScenario(workload::TpccSpec(), 120, 31));
  auto repair = MakeEngine(in).RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ExpectGolden("tpcc_audit.json", Render(*repair, in));
}

TEST(GoldenReportTest, WirelessDiscounts) {
  Instance in = WirelessDiscounts();
  auto repair = MakeEngine(in).RepairIncremental(1);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ExpectGolden("wireless_discounts.json", Render(*repair, in));
}

// Each seed's diagnosis adopts a refined repair and polishes a repaired
// constant (it differs from the unpolished one), so the golden bytes pin
// the refinement, polish and verification replays.
TEST(GoldenReportTest, SyntheticRefinedAndPolished) {
  for (uint64_t seed : {1, 3, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Instance in = Synthetic(seed);
    auto repair = MakeEngine(in).RepairIncremental(1);
    ASSERT_TRUE(repair.ok()) << repair.status().ToString();
    EXPECT_TRUE(repair->stats.refined);
    QFixOptions unpolished;
    unpolished.polish_params = false;
    auto raw = MakeEngine(in, unpolished).RepairIncremental(1);
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    EXPECT_NE(Render(*raw, in), Render(*repair, in));
    ExpectGolden("synthetic_" + std::to_string(seed) + ".json",
                 Render(*repair, in));
  }
}

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
