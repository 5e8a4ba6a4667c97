// Microbenchmarks (google-benchmark) for the MILP substrate: simplex on
// random dense-ish LPs, bound propagation, and branch & bound on
// knapsacks — the primitives every QFix repair pays for.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/random.h"
#include "milp/model.h"
#include "milp/model_export.h"
#include "milp/presolve.h"
#include "milp/simplex.h"
#include "milp/solver.h"

namespace qfix {
namespace milp {
namespace {

Model RandomLp(int vars, int rows, uint64_t seed) {
  Rng rng(seed);
  // Witness-point construction keeps the LP feasible.
  std::vector<std::vector<double>> points(4, std::vector<double>(vars));
  for (auto& p : points) {
    for (double& v : p) v = rng.UniformReal(-10, 10);
  }
  Model m;
  for (int j = 0; j < vars; ++j) {
    m.AddContinuous(-10, 10, "x");
    m.AddObjectiveTerm(j, rng.UniformReal(-2, 2));
  }
  for (int i = 0; i < rows; ++i) {
    LinearTerms terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.Bernoulli(0.4)) terms.push_back({j, rng.UniformReal(-1, 1)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    double max_act = -1e30;
    for (const auto& p : points) {
      double a = 0;
      for (const Term& t : terms) a += t.coeff * p[t.var];
      max_act = std::max(max_act, a);
    }
    m.AddConstraint(std::move(terms), Sense::kLe, max_act);
  }
  return m;
}

void BM_SimplexRandomLp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Model m = RandomLp(n, n, 42);
  Domains d = m.InitialDomains();
  for (auto _ : state) {
    LpResult r = SolveLp(m, d, SimplexOptions{});
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(80)->Arg(200)->Arg(400);

void BM_BoundPropagation(benchmark::State& state) {
  const int chain = static_cast<int>(state.range(0));
  Model m;
  // a_0 = 7; a_{i+1} = a_i + 1: propagation must walk the whole chain.
  VarId prev = m.AddContinuous(0, 1e6, "a0");
  m.AddConstraint({{prev, 1.0}}, Sense::kEq, 7.0);
  for (int i = 1; i < chain; ++i) {
    VarId next = m.AddContinuous(0, 1e6, "a");
    m.AddConstraint({{next, 1.0}, {prev, -1.0}}, Sense::kEq, 1.0);
    prev = next;
  }
  for (auto _ : state) {
    Domains d = m.InitialDomains();
    Status s = PropagateBounds(m, d, chain + 1, nullptr);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_BoundPropagation)->Arg(64)->Arg(256)->Arg(1024);

void BM_KnapsackBranchAndBound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  Model m;
  LinearTerms row;
  for (int i = 0; i < n; ++i) {
    VarId v = m.AddBinary("b");
    row.push_back({v, double(rng.UniformInt(1, 20))});
    m.AddObjectiveTerm(v, -double(rng.UniformInt(1, 30)));
  }
  m.AddConstraint(row, Sense::kLe, 10.0 * n / 4.0);
  for (auto _ : state) {
    MilpSolution s = MilpSolver().Solve(m);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_KnapsackBranchAndBound)->Arg(12)->Arg(20)->Arg(28);

// Jobs scaling on a strongly correlated knapsack (tight LP bounds force
// real enumeration); compare the Arg(1) and Arg(4) rows for the
// parallel branch & bound speedup on this machine.
void BM_KnapsackJobs(benchmark::State& state) {
  const int n = 26;
  Rng rng(9);
  Model m;
  LinearTerms row;
  double total = 0;
  for (int i = 0; i < n; ++i) {
    VarId v = m.AddBinary("b");
    double w = double(rng.UniformInt(10, 30));
    total += w;
    row.push_back({v, w});
    m.AddObjectiveTerm(v, -(w + rng.UniformReal(0.0, 1.0)));
  }
  m.AddConstraint(row, Sense::kLe, std::floor(total / 2.0) + 0.5);
  MilpOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    MilpSolution s = MilpSolver(opts).Solve(m);
    benchmark::DoNotOptimize(s.objective);
  }
}
BENCHMARK(BM_KnapsackJobs)->Arg(1)->Arg(2)->Arg(4);

// Big-M indicator chain of the shape QFix emits: x >= k forces b_k = 1.
Model IndicatorChain(int chains) {
  Model m;
  for (int k = 0; k < chains; ++k) {
    VarId x = m.AddContinuous(0, 100, "x");
    VarId b = m.AddBinary("b");
    m.AddConstraint({{x, 1.0}, {b, -100.0}}, Sense::kLe, 0.0);
    m.AddConstraint({{x, 1.0}}, Sense::kGe, double(k % 50) + 1.0);
    m.AddObjectiveTerm(b, 1.0);
  }
  return m;
}

void BM_ProbeBinaries(benchmark::State& state) {
  Model m = IndicatorChain(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Domains d = m.InitialDomains();
    ProbeResult result;
    Status s = ProbeBinaries(m, d, 10, 1, nullptr, &result);
    benchmark::DoNotOptimize(result.fixed_binaries);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_ProbeBinaries)->Arg(16)->Arg(64)->Arg(256);

void BM_LpFormatWrite(benchmark::State& state) {
  Model m = RandomLp(static_cast<int>(state.range(0)),
                     static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    std::string text = WriteLpFormat(m);
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_LpFormatWrite)->Arg(50)->Arg(200);

}  // namespace
}  // namespace milp
}  // namespace qfix

BENCHMARK_MAIN();
