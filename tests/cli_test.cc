// End-to-end tests for the `qfix` command-line tool: file loading, the
// diagnosis flow, report/exports, exit codes, and error handling. These
// exercise exactly what a user runs, including the CSV/SQL/snapshot
// parsers on real files.
//
// The binary's path is passed by CMake via QFIX_CLI_PATH, and the golden
// reports' directory via QFIX_GOLDEN_DIR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

namespace qfix {
namespace {

#ifndef QFIX_CLI_PATH
#error "QFIX_CLI_PATH must be defined by the build"
#endif
#ifndef QFIX_GOLDEN_DIR
#error "QFIX_GOLDEN_DIR must be defined by the build"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult RunCli(const std::string& args) {
  std::string command = std::string(QFIX_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) return result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Writes the paper's Figure 2 scenario into `dir` and returns the
// common argument prefix.
std::string SetUpPaperScenario(const std::string& dir) {
  WriteFile(dir + "/d0.csv",
            "income,owed,pay\n"
            "9500,950,8550\n"
            "90000,22500,67500\n"
            "86000,21500,64500\n"
            "86500,21625,64875\n");
  WriteFile(dir + "/log.sql",
            "UPDATE Taxes SET owed = income * 0.3 WHERE income >= 85700;\n"
            "INSERT INTO Taxes VALUES (87000, 21750, 65250);\n"
            "UPDATE Taxes SET pay = income - owed;\n");
  WriteFile(dir + "/complaints.csv",
            "tid,alive,income,owed,pay\n"
            "2,1,86000,21500,64500\n"
            "3,1,86500,21625,64875\n");
  return "--d0 " + dir + "/d0.csv --log " + dir + "/log.sql --complaints " +
         dir + "/complaints.csv --table Taxes";
}

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process in parallel; a per-test
    // directory keeps concurrent cases from racing on the same files.
    dir_ = testing::TempDir() + "/qfix_cli_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string mkdir = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
    args_ = SetUpPaperScenario(dir_);
  }
  std::string dir_;
  std::string args_;
};

TEST_F(CliTest, DiagnosesThePaperScenario) {
  CommandResult r = RunCli(args_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("loaded: 4 tuples, 3 queries, 2 complaints"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("q1 executed:"), std::string::npos);
  EXPECT_NE(r.output.find("q1 intended:"), std::string::npos);
  EXPECT_NE(r.output.find("complaints resolved on replay: yes"),
            std::string::npos);
}

TEST_F(CliTest, ReportFlagPrintsFullReport) {
  CommandResult r = RunCli(args_ + " --report");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("QFix diagnosis report"), std::string::npos);
  EXPECT_NE(r.output.find("@@ q1 @@"), std::string::npos);
  EXPECT_NE(r.output.find("2 of 2 complaint(s) resolved"),
            std::string::npos);
}

TEST_F(CliTest, SaveStateWritesAReloadableSnapshot) {
  std::string snap = dir_ + "/repaired.snap";
  CommandResult r = RunCli(args_ + " --save-state " + snap);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::string content = ReadFile(snap);
  EXPECT_EQ(content.rfind("qfix-snapshot v1", 0), 0u) << content;
  EXPECT_NE(content.find("table Taxes"), std::string::npos);

  // The snapshot round-trips as a --d0 input: replaying an empty log
  // over it with zero complaints is rejected gracefully (no complaints
  // = nothing to diagnose), proving the file parsed.
  WriteFile(dir_ + "/empty.sql", "UPDATE Taxes SET pay = pay;\n");
  WriteFile(dir_ + "/none.csv", "tid,alive,income,owed,pay\n");
  CommandResult r2 = RunCli("--d0 " + snap + " --log " + dir_ +
                            "/empty.sql --complaints " + dir_ +
                            "/none.csv --table Taxes");
  EXPECT_NE(r2.output.find("loaded: 5 tuples"), std::string::npos)
      << r2.output;
}

// --export-lp/--export-mps write the Algorithm 1 encoding of the run
// (every query parameterized, every tuple encoded). The golden files
// pin both exports of the Figure 2 files byte for byte; an external
// solver that reads either one solves the same model as the built-in
// one.
TEST_F(CliTest, ExportLpWritesAnLpModel) {
  std::string lp = dir_ + "/model.lp";
  CommandResult r = RunCli(args_ + " --export-lp " + lp);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(ReadFile(lp),
            ReadFile(std::string(QFIX_GOLDEN_DIR) + "/taxes_basic.lp"));
}

TEST_F(CliTest, ExportGraphWritesDot) {
  std::string dot_path = dir_ + "/impact.dot";
  CommandResult r = RunCli(args_ + " --export-graph " + dot_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::string content = ReadFile(dot_path);
  EXPECT_EQ(content.rfind("digraph qfix_impact {", 0), 0u);
  EXPECT_NE(content.find("q1 -> q3"), std::string::npos);
}

TEST_F(CliTest, AlternativesListsRankedDiagnoses) {
  CommandResult r = RunCli(args_ + " --alternatives 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The Figure 2 scenario has a unique single-query diagnosis, so the
  // run succeeds whether or not the "ranked alternatives" section
  // prints; the flag must at least not break the flow.
  EXPECT_NE(r.output.find("complaints resolved on replay: yes"),
            std::string::npos);
}

TEST_F(CliTest, MissingArgumentsPrintUsage) {
  CommandResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagPrintsUsage) {
  CommandResult r = RunCli(args_ + " --frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, MissingFileIsACleanError) {
  CommandResult r = RunCli("--d0 /nonexistent.csv --log " + dir_ +
                           "/log.sql --complaints " + dir_ +
                           "/complaints.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos);
}

TEST_F(CliTest, MalformedSqlIsACleanError) {
  WriteFile(dir_ + "/bad.sql", "SELECT * FROM Taxes;\n");
  CommandResult r = RunCli("--d0 " + dir_ + "/d0.csv --log " + dir_ +
                           "/bad.sql --complaints " + dir_ +
                           "/complaints.csv --table Taxes");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error parsing log"), std::string::npos);
}

TEST_F(CliTest, ContradictoryComplaintsReportInfeasible) {
  // Complaints that no constant change can produce: t1 (income 9500,
  // untouched by q1) demands owed = 1.
  WriteFile(dir_ + "/impossible.csv",
            "tid,alive,income,owed,pay\n"
            "2,1,86000,21500,64500\n"
            "3,1,86500,99999,64875\n");
  CommandResult r = RunCli("--d0 " + dir_ + "/d0.csv --log " + dir_ +
                           "/log.sql --complaints " + dir_ +
                           "/impossible.csv --table Taxes");
  // Either infeasible (no diagnosis) or a repair that fails replay
  // verification; both must be reported honestly, not crash.
  EXPECT_TRUE(r.output.find("no diagnosis") != std::string::npos ||
              r.output.find("NO") != std::string::npos)
      << r.output;
}

TEST_F(CliTest, JsonFlagEmitsAParsableDocument) {
  CommandResult r = RunCli(args_ + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // stdout carries exactly one JSON document.
  ASSERT_FALSE(r.output.empty());
  EXPECT_EQ(r.output.front(), '{') << r.output;
  EXPECT_NE(r.output.find("\"verified\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"repairs\":[{\"query\":1"),
            std::string::npos);
  // No human-readable chatter mixed in.
  EXPECT_EQ(r.output.find("loaded:"), std::string::npos);
  EXPECT_EQ(r.output.find("diagnosis ("), std::string::npos);
  EXPECT_EQ(std::count(r.output.begin(), r.output.end(), '{'),
            std::count(r.output.begin(), r.output.end(), '}'));
}

// The CLI leg of the path matrix: `qfix_cli --json` on the Fig. 2 files
// prints the library's golden report (golden_report_test) byte for byte
// once the wall-clock fields are zeroed.
TEST_F(CliTest, JsonReportMatchesTheGoldenReport) {
  CommandResult r = RunCli(args_ + " --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::string got = std::regex_replace(
      r.output, std::regex("\"(encode|solve|total)_seconds\":[^,}]*"),
      "\"$1_seconds\":0");
  EXPECT_EQ(got, ReadFile(std::string(QFIX_GOLDEN_DIR) + "/taxes_inc1.json"));
}

TEST_F(CliTest, ExportMpsWritesAnMpsModel) {
  std::string mps = dir_ + "/model.mps";
  CommandResult r = RunCli(args_ + " --export-mps " + mps);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(ReadFile(mps),
            ReadFile(std::string(QFIX_GOLDEN_DIR) + "/taxes_basic.mps"));
}

// Numeric flags are parsed strictly: before, std::atoi/atof/strtoul
// turned garbage into a number and the run went on ("--k 2x" ran Inc_2,
// "--time-limit abc" meant no limit at all).
void ExpectUsageError(const std::string& args, const std::string& flag) {
  CommandResult r = RunCli(args);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(flag), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliTest, KWithTrailingGarbageIsAUsageError) {
  ExpectUsageError(args_ + " --k 2x", "--k");
}

TEST_F(CliTest, NonNumericKIsAUsageError) {
  ExpectUsageError(args_ + " --k abc", "--k");
}

TEST_F(CliTest, NonNumericTimeLimitIsAUsageError) {
  ExpectUsageError(args_ + " --time-limit abc", "--time-limit");
}

TEST_F(CliTest, NonNumericJobsIsAUsageError) {
  ExpectUsageError(args_ + " --jobs x", "--jobs");
}

TEST_F(CliTest, NonNumericAlternativesIsAUsageError) {
  ExpectUsageError(args_ + " --alternatives two", "--alternatives");
}

// --- qfix_serve flag parsing ------------------------------------------------
// The server tool parses numeric flags strictly: trailing garbage and
// out-of-range values must be usage errors (exit 2), never a silently
// wrong configuration. Regression for the std::atoi era, when
// `--port 80x0` bound port 80 and `--max-inflight abc` meant capacity
// clamped from 0.

#ifndef QFIX_SERVE_PATH
#error "QFIX_SERVE_PATH must be defined by the build"
#endif

CommandResult RunServe(const std::string& args) {
  std::string command = std::string(QFIX_SERVE_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) return result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(ServeFlagsTest, PortWithTrailingGarbageIsAUsageError) {
  CommandResult r = RunServe("--port 80x0");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--port"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(ServeFlagsTest, NonNumericMaxInflightIsAUsageError) {
  CommandResult r = RunServe("--max-inflight abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--max-inflight"), std::string::npos) << r.output;
}

TEST(ServeFlagsTest, OutOfRangePortIsAUsageError) {
  CommandResult r = RunServe("--port 99999");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--port"), std::string::npos) << r.output;
}

TEST(ServeFlagsTest, MissingFlagValueIsAUsageError) {
  CommandResult r = RunServe("--event-loop-threads");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--event-loop-threads"), std::string::npos)
      << r.output;
}

TEST(ServeFlagsTest, NegativeTimeLimitIsAUsageError) {
  CommandResult r = RunServe("--time-limit -5");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--time-limit"), std::string::npos) << r.output;
}

}  // namespace
}  // namespace qfix
