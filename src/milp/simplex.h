// Bounded-variable primal simplex for linear programs.
//
// Solves  min c'x  s.t.  Ax {<=,>=,=} b,  l <= x <= u  over the reals.
// This is the LP workhorse underneath branch & bound (solver.h). The
// implementation is a two-phase revised simplex with a dense basis
// inverse, Dantzig pricing with a Bland's-rule anti-cycling fallback, and
// bound-flip handling for boxed variables (the common case in QFix's
// big-M encodings). Every solve starts cold from a slack crash basis:
// nonbasic variables sit at their bound nearest zero, an inequality row
// whose slack can absorb that start's residual starts with the slack
// basic, and only equality rows and rows the start violates carry a
// basic artificial for phase 1 to drive out.
#ifndef QFIX_MILP_SIMPLEX_H_
#define QFIX_MILP_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "milp/model.h"

namespace qfix {
namespace milp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// The instance exceeds the configured memory budget (rows² doubles).
  kTooLarge,
};

/// Outcome of one LP solve.
struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  /// Objective value (includes the model's objective constant).
  double objective = 0.0;
  /// Primal values for the model's structural variables.
  std::vector<double> x;
  int64_t iterations = 0;
};

struct SimplexOptions {
  /// Primal feasibility tolerance (absolute, scaled by row magnitude).
  double feas_tol = 1e-7;
  /// Reduced-cost optimality tolerance.
  double opt_tol = 1e-7;
  /// Pivot magnitude below which a column entry is considered zero.
  double pivot_tol = 1e-9;
  /// Hard cap on simplex iterations over both phases; 0 = automatic
  /// (5000 + 40 * rows).
  int64_t max_iterations = 0;
  /// Wall-clock budget for one LP solve; <= 0 disables. Large dense
  /// instances can take minutes per solve, so branch & bound threads its
  /// remaining deadline through here.
  double time_limit_seconds = 0.0;
  /// Refuses instances with more than this many rows (dense basis
  /// inverse memory is rows^2 * 8 bytes).
  int32_t max_rows = 4000;
};

/// Solves the LP relaxation of `model` under variable bounds `domains`
/// (integrality is ignored; callers enforce it via branch & bound).
LpResult SolveLp(const Model& model, const Domains& domains,
                 const SimplexOptions& options);

}  // namespace milp
}  // namespace qfix

#endif  // QFIX_MILP_SIMPLEX_H_
