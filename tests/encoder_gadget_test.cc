// Gadget soundness: the encoder's comparison indicators, AND/OR, DELETE
// liveness and UPDATE's conditional cell, each checked against the
// executor through the public Encode().
//
// A case is a short log over one tuple, every query parameterized. A
// complaint on the tuple states its final liveness (and, for an UPDATE,
// the written cell), which fixes the match binaries; every parameter
// variable is then pinned with equal bounds to the constants of a
// concrete log. Each WHERE operand g = lhs - rhs takes the values
// {0, +-eps/2, +-eps, +-2 eps} and the two ends of its parameter's box.
// For every combination the model
//  * must be infeasible when the stated final state is not the one the
//    executor reaches on the concrete log, and
//  * must be feasible when it is, whenever every g is 0 or |g| >= eps:
//    strict comparisons are encoded with margin eps, so 0 < |g| < eps
//    is left undecided.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"
#include "milp/solver.h"
#include "provenance/complaint.h"
#include "qfix/encoder.h"
#include "relational/executor.h"

namespace qfix {
namespace qfixcore {
namespace {

using provenance::ComplaintSet;
using relational::CmpOp;
using relational::CmpOpToString;
using relational::Database;
using relational::ExecuteLog;
using relational::LinearExpr;
using relational::ParamRef;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::Schema;

constexpr CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                          CmpOp::kGe, CmpOp::kEq, CmpOp::kNeq};

// The one tuple (a, b, v) = (5, 3, 0). The logs read a and b and write
// only v, so an atom's lhs keeps its D0 value throughout.
constexpr double kA = 5;
constexpr double kB = 3;
constexpr double kSetValue = 7;  // what the UPDATE cases write into v
constexpr size_t kV = 2;

Database OneTuple() {
  Database d0(Schema::WithDefaultNames(3), "T");
  d0.AddTuple({kA, kB, 0});
  return d0;
}

Predicate Cmp(size_t attr, CmpOp op, double rhs) {
  return Predicate::Atom({LinearExpr::Attr(attr), op, rhs});
}

// A WHERE atom whose right-hand side the grid varies.
struct Atom {
  size_t query;
  size_t index;  // atom index within the query (ParamRef::index)
  double lhs;    // the atom's lhs on the tuple
};

// The tuple's final state as a complaint states it.
struct State {
  bool alive;
  double v;
};

// Checks `log` against the executor as described at the top of the
// file. `writes_v` says whether the log is an UPDATE of v (the
// candidate states then differ in v) or only deletes (they differ in
// liveness). Returns one line per violation.
std::vector<std::string> CheckGadget(const QueryLog& log,
                                     const std::vector<Atom>& atoms,
                                     bool writes_v) {
  const Database d0 = OneTuple();
  const Database dn = ExecuteLog(log, d0);
  const std::vector<State> states =
      writes_v ? std::vector<State>{{true, 0}, {true, kSetValue}}
               : std::vector<State>{{true, 0}, {false, 0}};
  milp::MilpSolver solver{milp::MilpOptions()};
  std::vector<std::string> violations;

  for (const State& state : states) {
    ComplaintSet complaints;
    complaints.Add({0, state.alive, {kA, kB, state.v}});
    EncodeRequest req;
    req.log = &log;
    req.d0 = &d0;
    req.dirty_dn = &dn;
    req.complaints = &complaints;
    req.tuple_slots = {0};
    req.parameterized.assign(log.size(), true);
    req.encoded.assign(log.size(), true);
    Result<EncodedProblem> problem = Encode(req);
    if (!problem.ok()) {
      violations.push_back("encode failed: " + problem.status().ToString());
      continue;
    }
    const double eps = problem->epsilon;

    // The right-hand sides each atom takes: g on the grid, then the two
    // ends of the atom's parameter box.
    std::vector<std::vector<double>> rhs_grid;
    for (const Atom& atom : atoms) {
      std::vector<double> rhs;
      for (double g : {0.0, eps / 2, -eps / 2, eps, -eps, 2 * eps, -2 * eps}) {
        rhs.push_back(atom.lhs - g);
      }
      for (const ParamVarInfo& p : problem->params) {
        if (p.query_index == atom.query &&
            p.ref.kind == ParamRef::Kind::kWhereRhs &&
            p.ref.index == atom.index) {
          rhs.push_back(problem->model.lb(p.var));
          rhs.push_back(problem->model.ub(p.var));
        }
      }
      rhs_grid.push_back(std::move(rhs));
    }

    // Every combination of one right-hand side per atom.
    std::vector<size_t> pick(atoms.size(), 0);
    while (true) {
      QueryLog concrete = log;
      bool decided = true;
      std::string point;
      for (size_t i = 0; i < atoms.size(); ++i) {
        const double rhs = rhs_grid[i][pick[i]];
        concrete[atoms[i].query].SetParam(
            {ParamRef::Kind::kWhereRhs, atoms[i].index, 0}, rhs);
        const double g = std::fabs(atoms[i].lhs - rhs);
        decided = decided && (g == 0 || g >= eps);
        point += StringPrintf(" g%zu=%g", i, atoms[i].lhs - rhs);
      }
      const Database fixed = ExecuteLog(concrete, d0);
      const relational::Tuple& replay = fixed.slot(0);
      const bool agrees = replay.alive == state.alive &&
                          (!state.alive || replay.values[kV] == state.v);

      milp::Model pinned = problem->model;
      for (const ParamVarInfo& p : problem->params) {
        pinned.FixVariable(p.var, concrete[p.query_index].GetParam(p.ref));
      }
      const bool feasible = milp::HasSolution(solver.Solve(pinned).status);
      if (feasible && !agrees) {
        violations.push_back(StringPrintf(
            "%s: feasible with alive=%d v=%g, the executor reaches "
            "alive=%d v=%g",
            point.c_str(), state.alive, state.v, replay.alive,
            replay.values[kV]));
      } else if (!feasible && agrees && decided) {
        violations.push_back(StringPrintf(
            "%s: infeasible with the executor's alive=%d v=%g",
            point.c_str(), state.alive, state.v));
      }

      size_t i = 0;
      while (i < atoms.size() && ++pick[i] == rhs_grid[i].size()) {
        pick[i++] = 0;
      }
      if (i == atoms.size()) break;
    }
  }
  return violations;
}

// Joins the first few violations for a readable failure message.
std::string Summary(const std::vector<std::string>& violations) {
  std::string out = StringPrintf("%zu violation(s)", violations.size());
  for (size_t i = 0; i < violations.size() && i < 5; ++i) {
    out += "\n " + violations[i];
  }
  return out;
}

// DELETE FROM T WHERE a <op> c: the target liveness fixes the match,
// which is the comparison's indicator itself.
TEST(EncoderGadgetTest, ComparisonIndicators) {
  for (CmpOp op : kOps) {
    SCOPED_TRACE(StringPrintf("a %s c", CmpOpToString(op)));
    QueryLog log{Query::Delete("T", Cmp(0, op, kA))};
    std::vector<std::string> v = CheckGadget(log, {{0, 0, kA}}, false);
    EXPECT_TRUE(v.empty()) << Summary(v);
  }
}

// DELETE FROM T WHERE a <op1> c1 AND|OR b <op2> c2: the AND/OR binary
// over two indicators.
TEST(EncoderGadgetTest, TwoAtomAndOr) {
  for (bool is_and : {true, false}) {
    for (CmpOp op1 : kOps) {
      for (CmpOp op2 : kOps) {
        SCOPED_TRACE(StringPrintf("a %s c1 %s b %s c2", CmpOpToString(op1),
                                  is_and ? "AND" : "OR",
                                  CmpOpToString(op2)));
        std::vector<Predicate> atoms = {Cmp(0, op1, kA), Cmp(1, op2, kB)};
        Predicate where = is_and ? Predicate::And(std::move(atoms))
                                 : Predicate::Or(std::move(atoms));
        QueryLog log{Query::Delete("T", std::move(where))};
        std::vector<std::string> v =
            CheckGadget(log, {{0, 0, kA}, {0, 1, kB}}, false);
        EXPECT_TRUE(v.empty()) << Summary(v);
      }
    }
  }
}

// A second DELETE over the symbolic liveness the first one left: its
// match is AND(alive, indicator) and the liveness it leaves is
// alive - match.
TEST(EncoderGadgetTest, SecondDeleteOverSymbolicLiveness) {
  for (CmpOp op1 : kOps) {
    for (CmpOp op2 : kOps) {
      SCOPED_TRACE(StringPrintf("a %s c1; b %s c2", CmpOpToString(op1),
                                CmpOpToString(op2)));
      QueryLog log{Query::Delete("T", Cmp(0, op1, kA)),
                   Query::Delete("T", Cmp(1, op2, kB))};
      std::vector<std::string> v =
          CheckGadget(log, {{0, 0, kA}, {1, 0, kB}}, false);
      EXPECT_TRUE(v.empty()) << Summary(v);
    }
  }
}

// UPDATE T SET v = 7 WHERE a <op> c: the complaint's v fixes the
// conditional cell, which takes the new value exactly when the
// indicator is 1.
TEST(EncoderGadgetTest, ConditionalCell) {
  for (CmpOp op : kOps) {
    SCOPED_TRACE(StringPrintf("SET v = 7 WHERE a %s c", CmpOpToString(op)));
    QueryLog log{Query::Update("T", {{kV, LinearExpr::Constant(kSetValue)}},
                               Cmp(0, op, kA))};
    std::vector<std::string> v = CheckGadget(log, {{0, 0, kA}}, true);
    EXPECT_TRUE(v.empty()) << Summary(v);
  }
}

}  // namespace
}  // namespace qfixcore
}  // namespace qfix
