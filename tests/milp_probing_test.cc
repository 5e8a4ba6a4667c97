// Tests for presolve probing (milp/presolve.h ProbeBinaries): fixing via
// one-side contradictions, union bound tightening, infeasibility proofs,
// trail rewinding, the property that probing never cuts off the optimum
// on random models, and the equivalence of the worklist propagation with
// full sweeps and copy-per-side probing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "milp/model.h"
#include "milp/presolve.h"
#include "milp/solver.h"
#include "provenance/complaint.h"
#include "qfix/encoder.h"
#include "relational/executor.h"
#include "test_support.h"
#include "workload/synthetic.h"

namespace qfix {
namespace milp {
namespace {

TEST(ProbingTest, FixesBinaryWhoseOneSideIsContradictory) {
  // b = 1 caps both x and y at 3 while x + y >= 12 needs 12 total. The
  // contradiction only appears when the rows interact, which plain
  // single-row propagation cannot see — probing can.
  Model m;
  VarId x = m.AddContinuous(0, 10, "x");
  VarId y = m.AddContinuous(0, 10, "y");
  VarId b = m.AddBinary("b");
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 12.0);
  m.AddConstraint({{x, 1.0}, {b, 10.0}}, Sense::kLe, 13.0);  // b=1: x <= 3
  m.AddConstraint({{y, 1.0}, {b, 10.0}}, Sense::kLe, 13.0);  // b=1: y <= 3

  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  ASSERT_FALSE(d.Fixed(b)) << "plain propagation should not fix b yet";

  ProbeResult result;
  ASSERT_TRUE(ProbeBinaries(m, d, 10, 1, nullptr, &result).ok());
  EXPECT_EQ(result.fixed_binaries, 1);
  EXPECT_TRUE(d.Fixed(b));
  EXPECT_DOUBLE_EQ(d.ub[b], 0.0);
}

TEST(ProbingTest, ProvesInfeasibilityWhenBothSidesDie) {
  // b = 0 forces x <= 0; b = 1 forces x >= 9; x is pinned to [4, 5].
  Model m;
  VarId x = m.AddContinuous(4, 5, "x");
  VarId b = m.AddBinary("b");
  m.AddConstraint({{x, 1.0}, {b, -10.0}}, Sense::kLe, 0.0);   // x <= 10 b
  m.AddConstraint({{x, 1.0}, {b, -9.0}}, Sense::kGe, 0.0);    // x >= 9 b

  Domains d = m.InitialDomains();
  Status s = ProbeBinaries(m, d, 10, 1, nullptr, nullptr);
  EXPECT_TRUE(s.IsInfeasible()) << s.ToString();
}

TEST(ProbingTest, UnionStepTightensContinuousBounds) {
  // b = 0 forces x = 2 and b = 1 forces x = 7, so globally x in [2, 7]
  // even though x starts with bounds [0, 100].
  Model m;
  VarId x = m.AddContinuous(0, 100, "x");
  VarId b = m.AddBinary("b");
  m.AddConstraint({{x, 1.0}, {b, -5.0}}, Sense::kEq, 2.0);  // x = 2 + 5 b

  Domains d = m.InitialDomains();
  ProbeResult result;
  ASSERT_TRUE(ProbeBinaries(m, d, 10, 1, nullptr, &result).ok());
  EXPECT_GE(result.tightened_bounds, 2);
  EXPECT_DOUBLE_EQ(d.lb[x], 2.0);
  EXPECT_DOUBLE_EQ(d.ub[x], 7.0);
}

TEST(ProbingTest, TrailRewindRestoresDomains) {
  Model m;
  VarId x = m.AddContinuous(0, 10, "x");
  VarId b = m.AddBinary("b");
  m.AddConstraint({{x, 1.0}}, Sense::kGe, 6.0);
  m.AddConstraint({{x, 1.0}, {b, -10.0}}, Sense::kLe, 0.0);

  Domains d = m.InitialDomains();
  Domains before = d;
  BoundTrail trail;
  ASSERT_TRUE(ProbeBinaries(m, d, 10, 1, &trail, nullptr).ok());
  ASSERT_FALSE(trail.empty());
  RewindTrail(d, trail, 0);
  for (VarId v = 0; v < m.NumVars(); ++v) {
    EXPECT_DOUBLE_EQ(d.lb[v], before.lb[v]);
    EXPECT_DOUBLE_EQ(d.ub[v], before.ub[v]);
  }
}

TEST(ProbingTest, SkipsFixedAndShrunkBinaries) {
  Model m;
  VarId b0 = m.AddBinary("b0");
  VarId b1 = m.AddBinary("b1");
  m.AddConstraint({{b0, 1.0}, {b1, 1.0}}, Sense::kLe, 2.0);
  Domains d = m.InitialDomains();
  d.lb[b0] = 1.0;  // already fixed
  d.ub[b0] = 1.0;
  ProbeResult result;
  ASSERT_TRUE(ProbeBinaries(m, d, 10, 1, nullptr, &result).ok());
  EXPECT_EQ(result.probed, 1);  // only b1
}

TEST(SolverProbingTest, ProbingStatsAreReported) {
  Model m;
  VarId x = m.AddContinuous(0, 10, "x");
  VarId y = m.AddContinuous(0, 10, "y");
  VarId b = m.AddBinary("b");
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 12.0);
  m.AddConstraint({{x, 1.0}, {b, 10.0}}, Sense::kLe, 13.0);
  m.AddConstraint({{y, 1.0}, {b, 10.0}}, Sense::kLe, 13.0);
  m.AddObjectiveTerm(x, 1.0);
  m.AddObjectiveTerm(y, 1.0);

  MilpOptions with;
  with.enable_probing = true;
  MilpSolution sol = MilpSolver(with).Solve(m);
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_EQ(sol.stats.probe_fixed, 1);
  EXPECT_NEAR(sol.objective, 12.0, 1e-6);

  MilpOptions without;
  without.enable_probing = false;
  MilpSolution sol2 = MilpSolver(without).Solve(m);
  ASSERT_EQ(sol2.status, MilpStatus::kOptimal);
  EXPECT_EQ(sol2.stats.probe_fixed, 0);
  EXPECT_DOUBLE_EQ(sol2.objective, sol.objective);
}

// ---------------------------------------------------------------------
// Property: probing preserves the optimum on random MILPs.
// ---------------------------------------------------------------------

Model RandomMip(Rng& rng) {
  Model m;
  int nbin = static_cast<int>(rng.UniformInt(2, 6));
  int ncont = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < nbin; ++i) m.AddBinary("b" + std::to_string(i));
  for (int i = 0; i < ncont; ++i) {
    m.AddContinuous(-5, 10, "x" + std::to_string(i));
  }
  int nvars = nbin + ncont;
  int ncons = static_cast<int>(rng.UniformInt(2, 8));
  for (int c = 0; c < ncons; ++c) {
    LinearTerms terms;
    for (int v = 0; v < nvars; ++v) {
      if (rng.Bernoulli(0.6)) {
        terms.push_back({v, static_cast<double>(rng.UniformInt(-4, 4))});
      }
    }
    if (terms.empty()) continue;
    m.AddConstraint(std::move(terms),
                    rng.Bernoulli(0.5) ? Sense::kLe : Sense::kGe,
                    static_cast<double>(rng.UniformInt(-6, 8)));
  }
  for (int v = 0; v < nvars; ++v) {
    m.AddObjectiveTerm(v, static_cast<double>(rng.UniformInt(-3, 3)));
  }
  return m;
}

class ProbingPropertyTest : public testing::TestWithParam<int> {};

TEST_P(ProbingPropertyTest, ProbingNeverChangesTheOptimum) {
  Rng rng(5150 + GetParam());
  Model m = RandomMip(rng);

  MilpOptions plain;
  plain.enable_probing = false;
  plain.time_limit_seconds = 10.0;
  MilpOptions probed = plain;
  probed.enable_probing = true;
  probed.probe_passes = 2;

  MilpSolution a = MilpSolver(plain).Solve(m);
  MilpSolution b = MilpSolver(probed).Solve(m);
  ASSERT_EQ(a.status, b.status)
      << MilpStatusToString(a.status) << " vs "
      << MilpStatusToString(b.status);
  if (HasSolution(a.status)) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
    EXPECT_TRUE(m.IsFeasible(b.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMips, ProbingPropertyTest,
                         testing::Range(0, 25));

// ---------------------------------------------------------------------
// Branching-rule property: pseudo-cost and most-fractional agree.
// ---------------------------------------------------------------------

class BranchRulePropertyTest : public testing::TestWithParam<int> {};

TEST_P(BranchRulePropertyTest, PseudoCostFindsTheSameOptimum) {
  Rng rng(7300 + GetParam());
  Model m = RandomMip(rng);

  MilpOptions frac;
  frac.branch_rule = BranchRule::kMostFractional;
  frac.time_limit_seconds = 10.0;
  MilpOptions pseudo = frac;
  pseudo.branch_rule = BranchRule::kPseudoCost;

  MilpSolution a = MilpSolver(frac).Solve(m);
  MilpSolution b = MilpSolver(pseudo).Solve(m);
  ASSERT_EQ(a.status, b.status)
      << MilpStatusToString(a.status) << " vs "
      << MilpStatusToString(b.status);
  if (HasSolution(a.status)) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
    EXPECT_TRUE(m.IsFeasible(b.x, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMips, BranchRulePropertyTest,
                         testing::Range(0, 25));

// ---------------------------------------------------------------------
// Worklist propagation equals full sweeps and copy-per-side probing.
// ---------------------------------------------------------------------

// The reference: propagation by full sweeps over every row until a sweep
// changes nothing, and probing that propagates each side on a copy of the
// domains and takes the union over every variable.
namespace reference {

constexpr double kFeasTol = 1e-7;

bool TightenUpper(const Model& model, Domains& d, VarId v, double new_ub,
                  bool* infeasible) {
  if (model.type(v) != VarType::kContinuous) {
    new_ub = std::floor(new_ub + kFeasTol);
  }
  if (new_ub >= d.ub[v] - 1e-12) return false;
  if (new_ub < d.lb[v] - kFeasTol) {
    *infeasible = true;
    return false;
  }
  d.ub[v] = std::max(new_ub, d.lb[v]);
  return true;
}

bool TightenLower(const Model& model, Domains& d, VarId v, double new_lb,
                  bool* infeasible) {
  if (model.type(v) != VarType::kContinuous) {
    new_lb = std::ceil(new_lb - kFeasTol);
  }
  if (new_lb <= d.lb[v] + 1e-12) return false;
  if (new_lb > d.ub[v] + kFeasTol) {
    *infeasible = true;
    return false;
  }
  d.lb[v] = std::min(new_lb, d.ub[v]);
  return true;
}

double TermMin(const Term& t, const Domains& d) {
  return t.coeff > 0 ? t.coeff * d.lb[t.var] : t.coeff * d.ub[t.var];
}

bool PropagateLe(const Model& model, const LinearTerms& terms, double rhs,
                 Domains& d, bool* infeasible) {
  double min_act = 0.0;
  int num_inf = 0;
  VarId inf_var = -1;
  for (const Term& t : terms) {
    double m = TermMin(t, d);
    if (std::isinf(m)) {
      ++num_inf;
      inf_var = t.var;
    } else {
      min_act += m;
    }
  }
  if (num_inf == 0 && min_act > rhs + kFeasTol * (1.0 + std::fabs(rhs))) {
    *infeasible = true;
    return false;
  }
  if (num_inf >= 2) return false;
  bool changed = false;
  for (const Term& t : terms) {
    double rest;
    if (num_inf == 1) {
      if (t.var != inf_var) continue;
      rest = min_act;
    } else {
      rest = min_act - TermMin(t, d);
    }
    double limit = rhs - rest;
    if (t.coeff > 0) {
      changed |= TightenUpper(model, d, t.var, limit / t.coeff, infeasible);
    } else {
      changed |= TightenLower(model, d, t.var, limit / t.coeff, infeasible);
    }
    if (*infeasible) return changed;
  }
  return changed;
}

Status Sweep(const Model& model, Domains& domains, int max_rounds) {
  bool infeasible = false;
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (const Constraint& c : model.constraints()) {
      LinearTerms neg = c.terms;
      for (Term& t : neg) t.coeff = -t.coeff;
      if (c.sense != Sense::kGe) {
        changed |= PropagateLe(model, c.terms, c.rhs, domains, &infeasible);
      }
      if (!infeasible && c.sense != Sense::kLe) {
        changed |= PropagateLe(model, neg, -c.rhs, domains, &infeasible);
      }
      if (infeasible) return Status::Infeasible("sweep");
    }
    if (!changed) break;
  }
  return Status::OK();
}

Status Probe(const Model& model, Domains& domains, int rounds,
             int max_passes, ProbeResult* res) {
  *res = ProbeResult{};
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (VarId v = 0; v < model.NumVars(); ++v) {
      if (model.type(v) != VarType::kBinary) continue;
      if (domains.Fixed(v)) continue;
      if (domains.lb[v] > 0.0 || domains.ub[v] < 1.0) continue;
      Domains zero = domains;
      zero.ub[v] = 0.0;
      bool zero_ok = Sweep(model, zero, rounds).ok();
      Domains one = domains;
      one.lb[v] = 1.0;
      bool one_ok = Sweep(model, one, rounds).ok();
      ++res->probed;
      if (!zero_ok && !one_ok) return Status::Infeasible("probe");
      if (!zero_ok || !one_ok) {
        domains.lb[v] = zero_ok ? 0.0 : 1.0;
        domains.ub[v] = domains.lb[v];
        ++res->fixed_binaries;
        changed = true;
        Status s = Sweep(model, domains, rounds);
        if (!s.ok()) return s;
        continue;
      }
      for (VarId w = 0; w < model.NumVars(); ++w) {
        double nl = std::min(zero.lb[w], one.lb[w]);
        double nu = std::max(zero.ub[w], one.ub[w]);
        if (nl > domains.lb[w] + 1e-12) {
          domains.lb[w] = std::min(nl, domains.ub[w]);
          ++res->tightened_bounds;
          changed = true;
        }
        if (nu < domains.ub[w] - 1e-12) {
          domains.ub[w] = std::max(nu, domains.lb[w]);
          ++res->tightened_bounds;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return Status::OK();
}

}  // namespace reference

// The §7.1 synthetic encoding the golden reports diagnose: 400 tuples, 30
// queries, the corrupted one parameterized, the complaint tuples encoded.
Model SyntheticEncoding(uint64_t seed) {
  workload::SyntheticSpec spec;
  spec.num_tuples = 400;
  spec.num_queries = 30;
  spec.value_domain = 200;
  const size_t corrupted = 15 + seed % 15;
  workload::Scenario sc =
      workload::MakeSyntheticScenario(spec, {corrupted}, seed);
  qfixcore::EncodeRequest req;
  req.log = &sc.dirty_log;
  req.d0 = &sc.d0;
  req.dirty_dn = &sc.dirty;
  req.complaints = &sc.complaints;
  for (const provenance::Complaint& c : sc.complaints.complaints()) {
    req.tuple_slots.push_back(static_cast<size_t>(c.tid));
  }
  req.parameterized.assign(sc.dirty_log.size(), false);
  req.parameterized[corrupted] = true;
  req.encoded.assign(sc.dirty_log.size(), true);
  auto problem = qfixcore::Encode(req);
  QFIX_CHECK(problem.ok()) << problem.status().ToString();
  return std::move(problem->model);
}

// Figure 2 in basic mode: every query parameterized, every tuple encoded.
Model TaxesEncoding() {
  relational::Database d0 = test::TaxD0();
  relational::QueryLog log = test::PaperLog(85700);
  relational::Database dirty = relational::ExecuteLog(log, d0);
  provenance::ComplaintSet complaints;
  complaints.Add({2, true, {86000, 21500, 64500}});
  complaints.Add({3, true, {86500, 21625, 64875}});
  qfixcore::EncodeRequest req;
  req.log = &log;
  req.d0 = &d0;
  req.dirty_dn = &dirty;
  req.complaints = &complaints;
  for (size_t slot = 0; slot < dirty.NumSlots(); ++slot) {
    req.tuple_slots.push_back(slot);
  }
  req.parameterized.assign(log.size(), true);
  req.encoded.assign(log.size(), true);
  auto problem = qfixcore::Encode(req);
  QFIX_CHECK(problem.ok()) << problem.status().ToString();
  return std::move(problem->model);
}

// Bounds that a chain of continuous tightenings approaches geometrically
// stop within 1e-12 of their limit, at a point that depends on the visit
// order; every other bound must match exactly.
void ExpectBoundNear(double got, double want, const std::string& what) {
  if (got == want) return;
  EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::fabs(want))) << what;
}

void ExpectSameDomains(const Domains& got, const Domains& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < got.size(); ++v) {
    ExpectBoundNear(got.lb[v], want.lb[v], "lb of var " + std::to_string(v));
    ExpectBoundNear(got.ub[v], want.ub[v], "ub of var " + std::to_string(v));
  }
}

void ExpectWorklistMatchesReference(const Model& m) {
  // High enough that neither side stops at its cap. (At the solver's 20,
  // the sweep stops short of the fixpoint on the taxes encoding, while
  // the worklist's 20 x rows visits reach it.)
  constexpr int kRounds = 1000;
  {
    SCOPED_TRACE("PropagateBounds");
    Domains got = m.InitialDomains();
    Domains want = m.InitialDomains();
    Status g = PropagateBounds(m, got, kRounds, nullptr);
    Status w = reference::Sweep(m, want, kRounds);
    ASSERT_EQ(g.ok(), w.ok()) << g.ToString() << " vs " << w.ToString();
    if (g.ok()) ExpectSameDomains(got, want);
  }
  for (int passes : {1, 2}) {
    SCOPED_TRACE("ProbeBinaries, passes " + std::to_string(passes));
    Domains got = m.InitialDomains();
    Domains want = m.InitialDomains();
    ProbeResult gr, wr;
    Status g = ProbeBinaries(m, got, kRounds, passes, nullptr, &gr);
    Status w = reference::Probe(m, want, kRounds, passes, &wr);
    ASSERT_EQ(g.ok(), w.ok()) << g.ToString() << " vs " << w.ToString();
    EXPECT_EQ(gr.probed, wr.probed);
    EXPECT_EQ(gr.fixed_binaries, wr.fixed_binaries);
    EXPECT_EQ(gr.tightened_bounds, wr.tightened_bounds);
    if (g.ok()) ExpectSameDomains(got, want);
  }
}

TEST(ProbingTest, WorklistMatchesCopyAndSweep) {
  for (int seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("RandomMip seed " + std::to_string(seed));
    Rng rng(9100 + seed);
    ExpectWorklistMatchesReference(RandomMip(rng));
  }
  {
    SCOPED_TRACE("taxes basic encoding");
    ExpectWorklistMatchesReference(TaxesEncoding());
  }
  for (uint64_t seed : {1, 3, 8}) {
    SCOPED_TRACE("synthetic encoding " + std::to_string(seed));
    ExpectWorklistMatchesReference(SyntheticEncoding(seed));
  }
}

}  // namespace
}  // namespace milp
}  // namespace qfix
