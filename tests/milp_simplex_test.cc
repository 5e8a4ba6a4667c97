#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "milp/model.h"
#include "milp/simplex.h"

namespace qfix {
namespace milp {
namespace {

SimplexOptions DefaultOptions() { return SimplexOptions{}; }

TEST(SimplexTest, UnconstrainedSitsAtBounds) {
  Model m;
  VarId a = m.AddContinuous(2, 8, "a");
  VarId b = m.AddContinuous(-3, 4, "b");
  m.AddObjectiveTerm(a, 1.0);   // pushed to lb
  m.AddObjectiveTerm(b, -2.0);  // pushed to ub
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[a], 2.0);
  EXPECT_DOUBLE_EQ(r.x[b], 4.0);
  EXPECT_DOUBLE_EQ(r.objective, 2.0 - 8.0);
}

TEST(SimplexTest, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 (Dantzig's example).
  // As minimization: min -3x - 5y. Optimum (2, 6), objective -36.
  Model m;
  VarId x = m.AddContinuous(0, kInf, "x");
  VarId y = m.AddContinuous(0, kInf, "y");
  m.AddConstraint({{x, 1.0}}, Sense::kLe, 4.0);
  m.AddConstraint({{y, 2.0}}, Sense::kLe, 12.0);
  m.AddConstraint({{x, 3.0}, {y, 2.0}}, Sense::kLe, 18.0);
  m.AddObjectiveTerm(x, -3.0);
  m.AddObjectiveTerm(y, -5.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-6);
  EXPECT_NEAR(r.x[y], 6.0, 1e-6);
  EXPECT_NEAR(r.objective, -36.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + y s.t. x + y = 10, x - y = 2  ->  x = 6, y = 4.
  Model m;
  VarId x = m.AddContinuous(0, kInf, "x");
  VarId y = m.AddContinuous(0, kInf, "y");
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 10.0);
  m.AddConstraint({{x, 1.0}, {y, -1.0}}, Sense::kEq, 2.0);
  m.AddObjectiveTerm(x, 1.0);
  m.AddObjectiveTerm(y, 1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 6.0, 1e-6);
  EXPECT_NEAR(r.x[y], 4.0, 1e-6);
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 5, x >= 1, y >= 0 -> (5, 0) obj 10.
  Model m;
  VarId x = m.AddContinuous(1, kInf, "x");
  VarId y = m.AddContinuous(0, kInf, "y");
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 5.0);
  m.AddObjectiveTerm(x, 2.0);
  m.AddObjectiveTerm(y, 3.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
  EXPECT_NEAR(r.x[x], 5.0, 1e-6);
}

TEST(SimplexTest, NegativeRhsRows) {
  // min x s.t. -x <= -7  (i.e. x >= 7).
  Model m;
  VarId x = m.AddContinuous(0, 100, "x");
  m.AddConstraint({{x, -1.0}}, Sense::kLe, -7.0);
  m.AddObjectiveTerm(x, 1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 7.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  VarId x = m.AddContinuous(0, 5, "x");
  m.AddConstraint({{x, 1.0}}, Sense::kGe, 6.0);
  m.AddObjectiveTerm(x, 1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  Model m;
  VarId x = m.AddContinuous(0, kInf, "x");
  VarId y = m.AddContinuous(0, kInf, "y");
  m.AddConstraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, 1.0);
  m.AddObjectiveTerm(x, -1.0);  // x can grow with y forever
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, FreeVariables) {
  // min |shape|: x free, min x s.t. x >= -12 via row.
  Model m;
  VarId x = m.AddContinuous(-kInf, kInf, "x");
  m.AddConstraint({{x, 1.0}}, Sense::kGe, -12.0);
  m.AddObjectiveTerm(x, 1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], -12.0, 1e-6);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Multiple redundant constraints through the optimum: classic
  // degeneracy trigger.
  Model m;
  VarId x = m.AddContinuous(0, kInf, "x");
  VarId y = m.AddContinuous(0, kInf, "y");
  m.AddConstraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
  m.AddConstraint({{x, 2.0}, {y, 2.0}}, Sense::kLe, 8.0);
  m.AddConstraint({{x, 1.0}}, Sense::kLe, 4.0);
  m.AddConstraint({{y, 1.0}}, Sense::kLe, 4.0);
  m.AddObjectiveTerm(x, -1.0);
  m.AddObjectiveTerm(y, -1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-6);
}

TEST(SimplexTest, RedundantEqualityRows) {
  Model m;
  VarId x = m.AddContinuous(0, 10, "x");
  m.AddConstraint({{x, 1.0}}, Sense::kEq, 3.0);
  m.AddConstraint({{x, 2.0}}, Sense::kEq, 6.0);  // same information
  m.AddObjectiveTerm(x, 1.0);
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 3.0, 1e-6);
}

TEST(SimplexTest, RespectsDomainOverride) {
  Model m;
  VarId x = m.AddContinuous(0, 100, "x");
  m.AddObjectiveTerm(x, -1.0);
  Domains d = m.InitialDomains();
  d.ub[x] = 9.0;  // branch-and-bound style tightening
  LpResult r = SolveLp(m, d, DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[x], 9.0);
}

TEST(SimplexTest, CrossedDomainsAreInfeasible) {
  Model m;
  VarId x = m.AddContinuous(0, 100, "x");
  Domains d = m.InitialDomains();
  d.lb[x] = 5.0;
  d.ub[x] = 4.0;
  LpResult r = SolveLp(m, d, DefaultOptions());
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, RowLimitReportsTooLarge) {
  // Rows must be non-vacuous (bindable under the bounds), or the
  // reduction pass drops them before the limit check.
  Model m;
  std::vector<VarId> xs;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(m.AddContinuous(0, 1, "x" + std::to_string(i)));
  }
  for (int i = 0; i < 10; ++i) {
    m.AddConstraint({{xs[i], 1.0}, {xs[(i + 1) % 10], 1.0}}, Sense::kLe,
                    0.5);
  }
  SimplexOptions opts;
  opts.max_rows = 5;
  LpResult r = SolveLp(m, m.InitialDomains(), opts);
  EXPECT_EQ(r.status, LpStatus::kTooLarge);
}

TEST(SimplexTest, FeasibleStartSkipsPhaseOne) {
  // Every variable starts at 0, its bound nearest zero, which satisfies
  // all 50 rows; each row can still bind (x_i + x_{i+1} can reach 20), so
  // none is dropped as vacuous. Every row thus starts with its slack
  // basic: phase 1 and phase 2 each price once and stop. An all-
  // artificial start pivots once per row instead.
  constexpr int kRows = 50;
  Model m;
  std::vector<VarId> xs;
  for (int i = 0; i < kRows; ++i) {
    xs.push_back(m.AddContinuous(0, 10, "x" + std::to_string(i)));
  }
  for (int i = 0; i < kRows; ++i) {
    m.AddConstraint({{xs[i], 1.0}, {xs[(i + 1) % kRows], 1.0}}, Sense::kLe,
                    5.0);
  }
  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_LE(r.iterations, 2);
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-9));
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

// Property test: an LP with a planted optimum. x* sits strictly inside
// its box; n independent rows are active at x* (mixed senses) and the
// objective is a positive combination of their outward normals (the KKT
// conditions with positive multipliers), so x* is the unique optimum and
// c.x* the optimal value. Further rows are slack at x*, and some of them
// are violated by the simplex's start (every variable at its bound
// nearest zero), so phase 1 has artificials to drive out.
class SimplexPlantedOptimumTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexPlantedOptimumTest, FindsThePlantedOptimalValue) {
  Rng rng(2000 + GetParam());
  const int n = static_cast<int>(rng.UniformInt(2, 8));
  const int num_slack_rows = static_cast<int>(rng.UniformInt(2, 8));

  Model m;
  std::vector<double> star(n), start(n);
  for (int j = 0; j < n; ++j) {
    double lo = rng.UniformReal(-10.0, -1.0);
    double hi = rng.UniformReal(1.0, 10.0);
    m.AddContinuous(lo, hi, "x" + std::to_string(j));
    star[j] = rng.UniformReal(lo + 0.5, hi - 0.5);
    start[j] = std::fabs(lo) <= std::fabs(hi) ? lo : hi;
  }
  auto dot = [](const LinearTerms& terms, const std::vector<double>& x) {
    double s = 0.0;
    for (const Term& t : terms) s += t.coeff * x[t.var];
    return s;
  };

  // Active rows and the objective c = sum_i sign_i * mu_i * a_i: a <= row
  // pushes c against a, a >= row along it, an = row either way.
  std::vector<double> c(n, 0.0);
  for (int i = 0; i < n; ++i) {
    LinearTerms terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.UniformReal(-1.0, 1.0)});
    }
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    const Sense sense = kind == 0 ? Sense::kLe
                                  : (kind == 1 ? Sense::kGe : Sense::kEq);
    double sign = sense == Sense::kLe ? -1.0 : 1.0;
    if (sense == Sense::kEq && rng.Bernoulli(0.5)) sign = -1.0;
    const double mu = rng.UniformReal(0.5, 2.0);
    for (const Term& t : terms) c[t.var] += sign * mu * t.coeff;
    m.AddConstraint(terms, sense, dot(terms, star));
  }
  for (int j = 0; j < n; ++j) m.AddObjectiveTerm(j, c[j]);

  // Slack rows: every third one is violated by the start when it can be.
  for (int k = 0; k < num_slack_rows; ++k) {
    LinearTerms terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.UniformReal(-1.0, 1.0)});
    }
    const double at_star = dot(terms, star);
    const double at_start = dot(terms, start);
    const double gap = rng.UniformReal(0.1, 2.0);
    if (k % 3 == 0 && std::fabs(at_start - at_star) > 1e-3) {
      // rhs strictly between the two activities, on x*'s side.
      const double rhs = at_star + 0.5 * (at_start - at_star);
      m.AddConstraint(terms, at_start > at_star ? Sense::kLe : Sense::kGe,
                      rhs);
    } else if (rng.Bernoulli(0.5)) {
      m.AddConstraint(terms, Sense::kLe, at_star + gap);
    } else {
      m.AddConstraint(terms, Sense::kGe, at_star - gap);
    }
  }

  double planted = 0.0;
  for (int j = 0; j < n; ++j) planted += c[j] * star[j];
  ASSERT_TRUE(m.IsFeasible(star, 1e-9));

  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "seed case " << GetParam();
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-6));
  EXPECT_NEAR(r.objective, planted, 1e-6);
  EXPECT_NEAR(m.EvalObjective(r.x), planted, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexPlantedOptimumTest,
                         ::testing::Range(0, 40));

// Property test: random LPs constructed so that a set of sampled points is
// feasible by construction; the simplex optimum must be feasible and at
// least as good as every sampled point.
class SimplexRandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomLpTest, OptimumDominatesSampledFeasiblePoints) {
  Rng rng(1000 + GetParam());
  const int n = static_cast<int>(rng.UniformInt(2, 6));
  const int num_points = 8;
  const int num_rows = static_cast<int>(rng.UniformInt(2, 10));

  // Sample witness points inside the box [-10, 10]^n.
  std::vector<std::vector<double>> points(num_points,
                                          std::vector<double>(n));
  for (auto& p : points) {
    for (double& v : p) v = rng.UniformReal(-10.0, 10.0);
  }

  Model m;
  for (int j = 0; j < n; ++j) {
    m.AddContinuous(-10.0, 10.0, "x" + std::to_string(j));
    m.AddObjectiveTerm(j, rng.UniformReal(-2.0, 2.0));
  }
  // Each constraint is a random halfspace shifted to contain all points.
  for (int i = 0; i < num_rows; ++i) {
    LinearTerms terms;
    for (int j = 0; j < n; ++j) {
      terms.push_back({j, rng.UniformReal(-1.0, 1.0)});
    }
    double max_activity = -1e30;
    for (const auto& p : points) {
      double act = 0.0;
      for (const Term& t : terms) act += t.coeff * p[t.var];
      max_activity = std::max(max_activity, act);
    }
    m.AddConstraint(terms, Sense::kLe, max_activity);
  }

  LpResult r = SolveLp(m, m.InitialDomains(), DefaultOptions());
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "seed case " << GetParam();
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-5));
  for (const auto& p : points) {
    EXPECT_LE(r.objective, m.EvalObjective(p) + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexRandomLpTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace milp
}  // namespace qfix
