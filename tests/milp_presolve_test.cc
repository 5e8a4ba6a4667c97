#include <gtest/gtest.h>

#include <cmath>

#include "milp/model.h"
#include "milp/presolve.h"

namespace qfix {
namespace milp {
namespace {

TEST(PresolveTest, TightensSimpleInequality) {
  Model m;
  VarId a = m.AddContinuous(0, 100, "a");
  m.AddConstraint({{a, 2.0}}, Sense::kLe, 10.0);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.ub[a], 5.0);
  EXPECT_DOUBLE_EQ(d.lb[a], 0.0);
}

TEST(PresolveTest, GeAndEqSenses) {
  Model m;
  VarId a = m.AddContinuous(0, 100, "a");
  VarId b = m.AddContinuous(0, 100, "b");
  m.AddConstraint({{a, 1.0}}, Sense::kGe, 30.0);
  m.AddConstraint({{b, 1.0}}, Sense::kEq, 42.0);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.lb[a], 30.0);
  EXPECT_DOUBLE_EQ(d.lb[b], 42.0);
  EXPECT_DOUBLE_EQ(d.ub[b], 42.0);
}

TEST(PresolveTest, PropagatesThroughChains) {
  // a = 7, b = a + 1, c <= b - 5  =>  c <= 3.
  Model m;
  VarId a = m.AddContinuous(0, 100, "a");
  VarId b = m.AddContinuous(0, 100, "b");
  VarId c = m.AddContinuous(0, 100, "c");
  m.AddConstraint({{a, 1.0}}, Sense::kEq, 7.0);
  m.AddConstraint({{b, 1.0}, {a, -1.0}}, Sense::kEq, 1.0);
  m.AddConstraint({{c, 1.0}, {b, -1.0}}, Sense::kLe, -5.0);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.lb[b], 8.0);
  EXPECT_DOUBLE_EQ(d.ub[b], 8.0);
  EXPECT_DOUBLE_EQ(d.ub[c], 3.0);
}

TEST(PresolveTest, FixesIndicatorBinaryFromBigM) {
  // x binary, a fixed to 50; big-M pair forcing x = 1 iff a >= 10:
  //   a - 10 <= M x          (x = 0 forces a < 10)
  //   a - 10 >= -M (1 - x)   (x = 1 forces a >= 10)
  // With a = 50 the first row forces x = 1.
  const double kM = 1000.0;
  Model m;
  VarId a = m.AddContinuous(50, 50, "a");
  VarId x = m.AddBinary("x");
  m.AddConstraint({{a, 1.0}, {x, -kM}}, Sense::kLe, 10.0);
  m.AddConstraint({{a, 1.0}, {x, -kM}}, Sense::kGe, 10.0 - kM);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.lb[x], 1.0);
  EXPECT_DOUBLE_EQ(d.ub[x], 1.0);
}

TEST(PresolveTest, IntegerBoundsRoundInward) {
  Model m;
  VarId k = m.AddVariable(VarType::kInteger, 0, 100, "k");
  m.AddConstraint({{k, 2.0}}, Sense::kLe, 9.0);   // k <= 4.5 -> 4
  m.AddConstraint({{k, 3.0}}, Sense::kGe, 7.0);   // k >= 2.33 -> 3
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.ub[k], 4.0);
  EXPECT_DOUBLE_EQ(d.lb[k], 3.0);
}

TEST(PresolveTest, IntegerEqualityRowReachesItsFixpoint) {
  // 2x + 3y = 7 over integers: one pass over both sides of the row
  // leaves x in [1, 3] and y in [1, 2]; the rounded bounds of that pass
  // tighten the row again, down to its only solution x = 2, y = 1.
  Model m;
  VarId x = m.AddVariable(VarType::kInteger, 0, 10, "x");
  VarId y = m.AddVariable(VarType::kInteger, 0, 10, "y");
  m.AddConstraint({{x, 2.0}, {y, 3.0}}, Sense::kEq, 7.0);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.lb[x], 2.0);
  EXPECT_DOUBLE_EQ(d.ub[x], 2.0);
  EXPECT_DOUBLE_EQ(d.lb[y], 1.0);
  EXPECT_DOUBLE_EQ(d.ub[y], 1.0);
}

TEST(PresolveTest, DetectsInfeasibility) {
  Model m;
  VarId a = m.AddContinuous(0, 5, "a");
  m.AddConstraint({{a, 1.0}}, Sense::kGe, 10.0);
  Domains d = m.InitialDomains();
  EXPECT_TRUE(PropagateBounds(m, d, 10, nullptr).IsInfeasible());
}

TEST(PresolveTest, DetectsConflictingEqualities) {
  Model m;
  VarId a = m.AddContinuous(-100, 100, "a");
  m.AddConstraint({{a, 1.0}}, Sense::kEq, 3.0);
  m.AddConstraint({{a, 1.0}}, Sense::kEq, 4.0);
  Domains d = m.InitialDomains();
  EXPECT_TRUE(PropagateBounds(m, d, 10, nullptr).IsInfeasible());
}

TEST(PresolveTest, HandlesUnboundedVariables) {
  Model m;
  VarId a = m.AddContinuous(-kInf, kInf, "a");
  VarId b = m.AddContinuous(0, 10, "b");
  // a + b <= 3 can only tighten a's upper bound once b's lower is known.
  m.AddConstraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 3.0);
  Domains d = m.InitialDomains();
  ASSERT_TRUE(PropagateBounds(m, d, 10, nullptr).ok());
  EXPECT_DOUBLE_EQ(d.ub[a], 3.0);
  EXPECT_TRUE(std::isinf(d.lb[a]));
}

TEST(PresolveTest, TrailRewindRestoresDomains) {
  Model m;
  VarId a = m.AddContinuous(0, 100, "a");
  VarId b = m.AddContinuous(0, 100, "b");
  m.AddConstraint({{a, 1.0}}, Sense::kLe, 20.0);
  m.AddConstraint({{b, 1.0}, {a, -1.0}}, Sense::kLe, 0.0);  // b <= a
  Domains d = m.InitialDomains();
  Domains original = d;
  BoundTrail trail;
  ASSERT_TRUE(PropagateBounds(m, d, 10, &trail).ok());
  EXPECT_DOUBLE_EQ(d.ub[a], 20.0);
  EXPECT_DOUBLE_EQ(d.ub[b], 20.0);
  EXPECT_FALSE(trail.empty());
  RewindTrail(d, trail, 0);
  EXPECT_EQ(d.lb, original.lb);
  EXPECT_EQ(d.ub, original.ub);
  EXPECT_TRUE(trail.empty());
}

}  // namespace
}  // namespace milp
}  // namespace qfix
