#include "milp/simplex.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace qfix {
namespace milp {
namespace {

// Variable status within the simplex. Nonbasic variables rest at a bound
// (or at zero when free); basic variables carry the residual values.
enum class VState : uint8_t { kAtLower, kAtUpper, kFree, kBasic };

class Simplex {
 public:
  Simplex(const Model& model, const Domains& domains,
          const SimplexOptions& options)
      : model_(model), options_(options) {
    n_ = model.NumVars();
    m_ = model.NumConstraints();
    num_cols_ = n_ + m_;        // structural + slack
    total_ = num_cols_ + m_;    // + artificial
    (void)domains;
  }

  LpResult Run(const Domains& domains);

 private:
  void BuildProblem(const Domains& domains);
  void InstallInitialBasis();
  // Runs the primal loop with the given cost vector. Returns kOptimal,
  // kUnbounded, or kIterLimit.
  LpStatus PrimalLoop(const std::vector<double>& costs);
  // Re-derives the basic variable values from the nonbasic assignment to
  // curb accumulated floating-point drift.
  void RecomputeBasics();
  // Pivots artificial variables out of the basis after phase 1 (or fixes
  // them on redundant rows).
  void DriveOutArtificials();

  bool IsArtificial(int j) const { return j >= num_cols_; }

  double ColumnDot(const std::vector<double>& y, int j) const {
    double d = 0.0;
    for (const auto& [row, coeff] : cols_[j]) d += y[row] * coeff;
    return d;
  }

  const Model& model_;
  SimplexOptions options_;
  int n_ = 0;         // structural variables
  int m_ = 0;         // rows
  int num_cols_ = 0;  // structural + slack
  int total_ = 0;     // + artificials

  // Column-sparse matrix over all variables (structural, slack, artificial).
  std::vector<std::vector<std::pair<int, double>>> cols_;
  std::vector<double> lb_, ub_;
  std::vector<double> b_;       // perturbed right-hand sides
  std::vector<double> true_b_;  // original right-hand sides
  std::vector<double> phase2_cost_;

  std::vector<VState> state_;
  std::vector<double> xval_;
  std::vector<int> basis_;    // basis_[r] = variable basic in row r
  std::vector<double> binv_;  // m_ x m_ row-major basis inverse

  int64_t iterations_ = 0;
  int64_t max_iterations_ = 0;
  WallTimer timer_;
};

void Simplex::BuildProblem(const Domains& domains) {
  cols_.assign(total_, {});
  lb_.assign(total_, 0.0);
  ub_.assign(total_, 0.0);
  phase2_cost_.assign(total_, 0.0);
  b_.assign(m_, 0.0);

  for (VarId v = 0; v < n_; ++v) {
    lb_[v] = domains.lb[v];
    ub_[v] = domains.ub[v];
    phase2_cost_[v] = model_.objective()[v];
  }
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model_.constraint(i);
    for (const Term& t : c.terms) {
      cols_[t.var].push_back({i, t.coeff});
    }
    b_[i] = c.rhs;
    int slack = n_ + i;
    cols_[slack].push_back({i, 1.0});
    switch (c.sense) {
      case Sense::kLe:
        lb_[slack] = 0.0;
        ub_[slack] = kInf;
        break;
      case Sense::kGe:
        lb_[slack] = -kInf;
        ub_[slack] = 0.0;
        break;
      case Sense::kEq:
        lb_[slack] = 0.0;
        ub_[slack] = 0.0;
        break;
    }
  }
  // Artificial columns are installed by InstallInitialBasis once the
  // initial residuals (and hence their signs) are known.

  // Anti-degeneracy: perturb each *inequality* right-hand side by a
  // deterministic, row-specific epsilon in the loosening direction.
  // Big-M encodings are massively degenerate and otherwise stall the
  // primal simplex in long runs of zero-step pivots. Loosening keeps
  // every originally-feasible point feasible, and equality rows stay
  // exact (perturbing them desynchronizes redundant equalities into
  // false infeasibility). The perturbation is removed before the final
  // solution is reported (Run() restores true_b_ and re-derives the
  // basic values), so the returned point is exact for the original
  // problem.
  true_b_ = b_;
  for (int i = 0; i < m_; ++i) {
    Sense sense = model_.constraint(i).sense;
    if (sense == Sense::kEq) continue;
    uint64_t h = static_cast<uint64_t>(i + 1) * 0x9E3779B97F4A7C15ull;
    double unit =
        static_cast<double>(h >> 11) / 9007199254740992.0;  // [0, 1)
    double delta = (1e-8 + 1e-7 * unit) * (1.0 + std::fabs(b_[i]));
    b_[i] += sense == Sense::kLe ? delta : -delta;
  }
}

void Simplex::InstallInitialBasis() {
  state_.assign(total_, VState::kAtLower);
  xval_.assign(total_, 0.0);
  basis_.assign(m_, -1);
  binv_.assign(static_cast<size_t>(m_) * m_, 0.0);

  // Nonbasic variables start at their bound nearest to zero (or zero when
  // free); this keeps initial activities small in big-M models.
  for (int j = 0; j < num_cols_; ++j) {
    bool lb_fin = std::isfinite(lb_[j]);
    bool ub_fin = std::isfinite(ub_[j]);
    if (lb_fin && ub_fin) {
      if (std::fabs(lb_[j]) <= std::fabs(ub_[j])) {
        state_[j] = VState::kAtLower;
        xval_[j] = lb_[j];
      } else {
        state_[j] = VState::kAtUpper;
        xval_[j] = ub_[j];
      }
    } else if (lb_fin) {
      state_[j] = VState::kAtLower;
      xval_[j] = lb_[j];
    } else if (ub_fin) {
      state_[j] = VState::kAtUpper;
      xval_[j] = ub_[j];
    } else {
      state_[j] = VState::kFree;
      xval_[j] = 0.0;
    }
  }

  // Slack crash basis. The starting residual of an inequality row is what
  // its slack must take; when the slack's bounds allow that, the slack
  // starts basic (inverse entry 1) and the row's artificial stays
  // nonbasic, fixed at 0. Equality rows and rows the start violates get a
  // basic artificial whose sign makes its value non-negative, so phase 1
  // prices only those.
  std::vector<double> residual = b_;
  for (int j = 0; j < num_cols_; ++j) {
    if (xval_[j] == 0.0) continue;
    for (const auto& [row, coeff] : cols_[j]) {
      residual[row] -= coeff * xval_[j];
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int slack = n_ + i;
    const int art = num_cols_ + i;
    lb_[art] = 0.0;
    const bool slack_fits = lb_[slack] < ub_[slack] &&
                            residual[i] >= lb_[slack] &&
                            residual[i] <= ub_[slack];
    if (slack_fits) {
      cols_[art] = {{i, 1.0}};
      ub_[art] = 0.0;
      state_[slack] = VState::kBasic;
      xval_[slack] = residual[i];
      basis_[i] = slack;
      binv_[static_cast<size_t>(i) * m_ + i] = 1.0;
      continue;
    }
    double sign = residual[i] >= 0.0 ? 1.0 : -1.0;
    cols_[art] = {{i, sign}};
    ub_[art] = kInf;
    state_[art] = VState::kBasic;
    xval_[art] = std::fabs(residual[i]);
    basis_[i] = art;
    binv_[static_cast<size_t>(i) * m_ + i] = sign;
  }
}

void Simplex::RecomputeBasics() {
  std::vector<double> residual = b_;
  for (int j = 0; j < total_; ++j) {
    if (state_[j] == VState::kBasic || xval_[j] == 0.0) continue;
    for (const auto& [row, coeff] : cols_[j]) {
      residual[row] -= coeff * xval_[j];
    }
  }
  for (int r = 0; r < m_; ++r) {
    double v = 0.0;
    const double* binv_row = &binv_[static_cast<size_t>(r) * m_];
    for (int i = 0; i < m_; ++i) v += binv_row[i] * residual[i];
    xval_[basis_[r]] = v;
  }
}

LpStatus Simplex::PrimalLoop(const std::vector<double>& costs) {
  std::vector<double> y(m_);
  std::vector<double> alpha(m_);
  int degenerate_streak = 0;
  bool bland = false;

  while (true) {
    if (iterations_ >= max_iterations_) return LpStatus::kIterLimit;
    // Wall-clock cutoff: checked cheaply every 64 iterations.
    if (options_.time_limit_seconds > 0.0 && (iterations_ & 63) == 0 &&
        timer_.ElapsedSeconds() > options_.time_limit_seconds) {
      return LpStatus::kIterLimit;
    }
    ++iterations_;

    // Pricing vector y = c_B' * Binv.
    std::fill(y.begin(), y.end(), 0.0);
    for (int r = 0; r < m_; ++r) {
      double cb = costs[basis_[r]];
      if (cb == 0.0) continue;
      const double* binv_row = &binv_[static_cast<size_t>(r) * m_];
      for (int i = 0; i < m_; ++i) y[i] += cb * binv_row[i];
    }

    // Pricing: find the entering variable.
    int enter = -1;
    double enter_dir = 0.0;
    double best_viol = options_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (state_[j] == VState::kBasic) continue;
      if (lb_[j] == ub_[j]) continue;  // fixed: cannot move
      double d = costs[j] - ColumnDot(y, j);
      double viol = 0.0;
      double dir = 0.0;
      if ((state_[j] == VState::kAtLower || state_[j] == VState::kFree) &&
          d < -options_.opt_tol) {
        viol = -d;
        dir = 1.0;
      } else if ((state_[j] == VState::kAtUpper ||
                  state_[j] == VState::kFree) &&
                 d > options_.opt_tol) {
        viol = d;
        dir = -1.0;
      } else {
        continue;
      }
      if (bland) {
        enter = j;
        enter_dir = dir;
        break;  // Bland: first improving index
      }
      if (viol > best_viol) {
        best_viol = viol;
        enter = j;
        enter_dir = dir;
      }
    }
    if (enter < 0) return LpStatus::kOptimal;

    // FTRAN: alpha = Binv * A_enter.
    std::fill(alpha.begin(), alpha.end(), 0.0);
    for (const auto& [row, coeff] : cols_[enter]) {
      for (int r = 0; r < m_; ++r) {
        alpha[r] += binv_[static_cast<size_t>(r) * m_ + row] * coeff;
      }
    }

    // Ratio test with bound flips.
    const double sigma = enter_dir;
    double t_bound = kInf;  // step at which the entering var hits its
                            // opposite bound (bound flip)
    if (std::isfinite(lb_[enter]) && std::isfinite(ub_[enter])) {
      t_bound = ub_[enter] - lb_[enter];
    }
    double best_t = kInf;
    int leave_row = -1;
    bool leave_at_upper = false;
    for (int r = 0; r < m_; ++r) {
      double rate = -sigma * alpha[r];  // d x_B[r] / d t
      if (std::fabs(rate) <= options_.pivot_tol) continue;
      int bv = basis_[r];
      double t_r;
      bool at_upper;
      if (rate > 0.0) {
        if (!std::isfinite(ub_[bv])) continue;
        t_r = (ub_[bv] - xval_[bv]) / rate;
        at_upper = true;
      } else {
        if (!std::isfinite(lb_[bv])) continue;
        t_r = (lb_[bv] - xval_[bv]) / rate;
        at_upper = false;
      }
      if (t_r < 0.0) t_r = 0.0;  // numerical guard
      bool better;
      if (bland) {
        better = t_r < best_t - 1e-12 ||
                 (t_r <= best_t + 1e-12 && leave_row >= 0 &&
                  basis_[r] < basis_[leave_row]);
      } else {
        // Prefer larger pivot magnitude among (near-)ties for stability.
        better = t_r < best_t - 1e-9 ||
                 (t_r <= best_t + 1e-9 &&
                  (leave_row < 0 ||
                   std::fabs(alpha[r]) > std::fabs(alpha[leave_row])));
      }
      if (better) {
        best_t = t_r;
        leave_row = r;
        leave_at_upper = at_upper;
      }
    }

    double t = std::min(best_t, t_bound);
    if (!std::isfinite(t)) return LpStatus::kUnbounded;

    if (t <= 1e-12) {
      if (++degenerate_streak > 64) bland = true;
    } else {
      degenerate_streak = 0;
      bland = false;
    }

    // Apply the step to the basic variables.
    if (t != 0.0) {
      for (int r = 0; r < m_; ++r) {
        if (alpha[r] != 0.0) xval_[basis_[r]] -= sigma * t * alpha[r];
      }
    }

    if (t_bound <= best_t) {
      // Bound flip: the entering variable jumps to its other bound.
      if (sigma > 0) {
        xval_[enter] = ub_[enter];
        state_[enter] = VState::kAtUpper;
      } else {
        xval_[enter] = lb_[enter];
        state_[enter] = VState::kAtLower;
      }
      continue;
    }

    // Basis change.
    int leave_var = basis_[leave_row];
    // Snap the leaving variable exactly onto the bound it reached.
    xval_[leave_var] = leave_at_upper ? ub_[leave_var] : lb_[leave_var];
    state_[leave_var] =
        leave_at_upper ? VState::kAtUpper : VState::kAtLower;
    if (IsArtificial(leave_var)) {
      ub_[leave_var] = 0.0;  // artificials never re-enter
      state_[leave_var] = VState::kAtLower;
      xval_[leave_var] = 0.0;
    }

    xval_[enter] += sigma * t;
    state_[enter] = VState::kBasic;
    basis_[leave_row] = enter;

    // Product-form update of the dense basis inverse.
    double piv = alpha[leave_row];
    QFIX_CHECK(std::fabs(piv) > options_.pivot_tol * 0.01)
        << "simplex pivot collapse " << piv;
    double* lr = &binv_[static_cast<size_t>(leave_row) * m_];
    double inv_piv = 1.0 / piv;
    for (int i = 0; i < m_; ++i) lr[i] *= inv_piv;
    for (int r = 0; r < m_; ++r) {
      if (r == leave_row) continue;
      double factor = alpha[r];
      if (factor == 0.0) continue;
      double* row = &binv_[static_cast<size_t>(r) * m_];
      for (int i = 0; i < m_; ++i) row[i] -= factor * lr[i];
    }

    // Periodically re-derive basic values to curb drift.
    if (iterations_ % 512 == 0) RecomputeBasics();
  }
}

void Simplex::DriveOutArtificials() {
  std::vector<double> tableau_row(m_);
  for (int r = 0; r < m_; ++r) {
    if (!IsArtificial(basis_[r])) continue;
    // Tableau row r over candidate columns: (Binv * A)_{r,j}.
    const double* binv_row = &binv_[static_cast<size_t>(r) * m_];
    int pivot_col = -1;
    double pivot_val = 0.0;
    for (int j = 0; j < num_cols_; ++j) {
      if (state_[j] == VState::kBasic) continue;
      double entry = 0.0;
      for (const auto& [row, coeff] : cols_[j]) {
        entry += binv_row[row] * coeff;
      }
      if (std::fabs(entry) > 1e-7) {
        pivot_col = j;
        pivot_val = entry;
        break;
      }
    }
    if (pivot_col < 0) {
      // Redundant row: pin the artificial at zero and leave it basic.
      ub_[basis_[r]] = 0.0;
      continue;
    }
    // Degenerate pivot (step 0): swap the artificial out of the basis.
    int art = basis_[r];
    state_[art] = VState::kAtLower;
    xval_[art] = 0.0;
    ub_[art] = 0.0;
    double entering_value = xval_[pivot_col];
    state_[pivot_col] = VState::kBasic;
    xval_[pivot_col] = entering_value;
    basis_[r] = pivot_col;

    // Update Binv for the degenerate pivot.
    std::fill(tableau_row.begin(), tableau_row.end(), 0.0);
    for (const auto& [row, coeff] : cols_[pivot_col]) {
      for (int rr = 0; rr < m_; ++rr) {
        tableau_row[rr] += binv_[static_cast<size_t>(rr) * m_ + row] * coeff;
      }
    }
    double* lr = &binv_[static_cast<size_t>(r) * m_];
    double inv_piv = 1.0 / pivot_val;
    for (int i = 0; i < m_; ++i) lr[i] *= inv_piv;
    for (int rr = 0; rr < m_; ++rr) {
      if (rr == r) continue;
      double factor = tableau_row[rr];
      if (factor == 0.0) continue;
      double* row = &binv_[static_cast<size_t>(rr) * m_];
      for (int i = 0; i < m_; ++i) row[i] -= factor * lr[i];
    }
    RecomputeBasics();
  }
}

LpResult Simplex::Run(const Domains& domains) {
  LpResult result;
  if (m_ > options_.max_rows) {
    result.status = LpStatus::kTooLarge;
    return result;
  }
  // Crossed domains (possible after aggressive branching) are infeasible.
  for (VarId v = 0; v < n_; ++v) {
    if (domains.lb[v] > domains.ub[v]) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
  }

  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 5000 + 40 * static_cast<int64_t>(m_);

  BuildProblem(domains);

  if (m_ == 0) {
    // No constraints: each variable sits at whichever bound its cost
    // prefers.
    result.x.resize(n_);
    double obj = model_.objective_constant();
    for (VarId v = 0; v < n_; ++v) {
      double c = phase2_cost_[v];
      double val;
      if (c > 0.0) {
        val = lb_[v];
      } else if (c < 0.0) {
        val = ub_[v];
      } else {
        val = std::isfinite(lb_[v]) ? lb_[v]
                                    : (std::isfinite(ub_[v]) ? ub_[v] : 0.0);
      }
      if (!std::isfinite(val)) {
        result.status = LpStatus::kUnbounded;
        return result;
      }
      result.x[v] = val;
      obj += c * val;
    }
    result.objective = obj;
    result.status = LpStatus::kOptimal;
    return result;
  }

  InstallInitialBasis();

  // Phase 1: minimize the sum of artificial variables.
  std::vector<double> phase1_cost(total_, 0.0);
  for (int j = num_cols_; j < total_; ++j) phase1_cost[j] = 1.0;
  LpStatus p1 = PrimalLoop(phase1_cost);
  result.iterations = iterations_;
  if (p1 == LpStatus::kIterLimit || p1 == LpStatus::kUnbounded) {
    // Phase 1 is bounded below by zero, so kUnbounded signals numerical
    // trouble; report as iteration limit.
    result.status = LpStatus::kIterLimit;
    return result;
  }
  RecomputeBasics();
  double infeas = 0.0;
  for (int j = num_cols_; j < total_; ++j) infeas += std::fabs(xval_[j]);
  if (infeas > options_.feas_tol * (1.0 + std::fabs(infeas))) {
    result.status = LpStatus::kInfeasible;
    return result;
  }
  DriveOutArtificials();
  for (int j = num_cols_; j < total_; ++j) ub_[j] = 0.0;

  // Phase 2: the real objective.
  LpStatus p2 = PrimalLoop(phase2_cost_);
  result.iterations = iterations_;
  if (p2 == LpStatus::kOptimal) {
    // Remove the anti-degeneracy perturbation: the optimal basis stays
    // optimal (dual feasibility is independent of b), and re-deriving
    // the basic values against the true right-hand sides makes the
    // reported point exact.
    b_ = true_b_;
    RecomputeBasics();
  }

  result.x.assign(xval_.begin(), xval_.begin() + n_);
  double obj = model_.objective_constant();
  for (VarId v = 0; v < n_; ++v) obj += phase2_cost_[v] * result.x[v];
  result.objective = obj;
  result.status = p2;
  return result;
}

// Builds a reduced LP: variables fixed by branching/propagation are
// substituted into the rows, rows that become vacuous under the variable
// bounds (most big-M rows whose indicator got fixed) are dropped, and
// the remaining problem is renumbered densely. On branch & bound nodes
// deep in the tree this typically shrinks the LP by an order of
// magnitude.
struct ReducedLp {
  Model model;
  Domains domains;
  std::vector<VarId> orig_of_reduced;  // reduced var -> original var
  bool infeasible = false;
};

ReducedLp ReduceLp(const Model& model, const Domains& domains) {
  ReducedLp out;
  const int32_t n = model.NumVars();
  std::vector<VarId> reduced_of_orig(n, -1);
  for (VarId v = 0; v < n; ++v) {
    if (domains.lb[v] > domains.ub[v]) {
      out.infeasible = true;
      return out;
    }
    if (domains.lb[v] == domains.ub[v]) continue;  // fixed: substitute
    reduced_of_orig[v] = out.model.AddVariable(
        model.type(v), domains.lb[v], domains.ub[v], std::string());
    out.orig_of_reduced.push_back(v);
    double c = model.objective()[v];
    if (c != 0.0) {
      out.model.AddObjectiveTerm(reduced_of_orig[v], c);
    }
  }
  double fixed_obj = model.objective_constant();
  for (VarId v = 0; v < n; ++v) {
    if (reduced_of_orig[v] < 0) {
      fixed_obj += model.objective()[v] * domains.lb[v];
    }
  }
  out.model.AddObjectiveConstant(fixed_obj);

  for (const Constraint& c : model.constraints()) {
    LinearTerms terms;
    double rhs = c.rhs;
    double min_act = 0.0, max_act = 0.0;
    bool min_inf = false, max_inf = false;
    for (const Term& t : c.terms) {
      VarId rv = reduced_of_orig[t.var];
      if (rv < 0) {
        rhs -= t.coeff * domains.lb[t.var];
        continue;
      }
      terms.push_back({rv, t.coeff});
      double lo = t.coeff > 0 ? t.coeff * domains.lb[t.var]
                              : t.coeff * domains.ub[t.var];
      double hi = t.coeff > 0 ? t.coeff * domains.ub[t.var]
                              : t.coeff * domains.lb[t.var];
      if (std::isinf(lo)) {
        min_inf = true;
      } else {
        min_act += lo;
      }
      if (std::isinf(hi)) {
        max_inf = true;
      } else {
        max_act += hi;
      }
    }
    const double tol = 1e-9 * (1.0 + std::fabs(rhs));
    if (terms.empty()) {
      bool ok = true;
      switch (c.sense) {
        case Sense::kLe:
          ok = 0.0 <= rhs + tol;
          break;
        case Sense::kGe:
          ok = 0.0 >= rhs - tol;
          break;
        case Sense::kEq:
          ok = std::fabs(rhs) <= tol;
          break;
      }
      if (!ok) {
        out.infeasible = true;
        return out;
      }
      continue;
    }
    // Vacuity: the row cannot be violated under the current bounds.
    bool vacuous = false;
    switch (c.sense) {
      case Sense::kLe:
        vacuous = !max_inf && max_act <= rhs + tol;
        break;
      case Sense::kGe:
        vacuous = !min_inf && min_act >= rhs - tol;
        break;
      case Sense::kEq:
        vacuous = false;
        break;
    }
    if (vacuous) continue;
    out.model.AddConstraint(std::move(terms), c.sense, rhs);
  }
  out.domains = out.model.InitialDomains();
  return out;
}

}  // namespace

LpResult SolveLp(const Model& model, const Domains& domains,
                 const SimplexOptions& options) {
  QFIX_CHECK(domains.size() == static_cast<size_t>(model.NumVars()))
      << "domains size mismatch";
  ReducedLp reduced = ReduceLp(model, domains);
  if (reduced.infeasible) {
    LpResult r;
    r.status = LpStatus::kInfeasible;
    return r;
  }
  Simplex simplex(reduced.model, reduced.domains, options);
  LpResult inner = simplex.Run(reduced.domains);
  // Expand the solution back to the original variable space.
  LpResult out;
  out.status = inner.status;
  out.iterations = inner.iterations;
  out.objective = inner.objective;
  if (inner.status == LpStatus::kOptimal) {
    out.x.resize(model.NumVars());
    for (VarId v = 0; v < model.NumVars(); ++v) out.x[v] = domains.lb[v];
    for (size_t rv = 0; rv < reduced.orig_of_reduced.size(); ++rv) {
      out.x[reduced.orig_of_reduced[rv]] = inner.x[rv];
    }
  }
  return out;
}

}  // namespace milp
}  // namespace qfix
