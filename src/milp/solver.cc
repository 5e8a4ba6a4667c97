#include "milp/solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "exec/cancellation.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "milp/presolve.h"

namespace qfix {
namespace milp {

const char* MilpStatusToString(MilpStatus status) {
  switch (status) {
    case MilpStatus::kOptimal:
      return "optimal";
    case MilpStatus::kFeasible:
      return "feasible";
    case MilpStatus::kInfeasible:
      return "infeasible";
    case MilpStatus::kTimeLimit:
      return "time_limit";
    case MilpStatus::kTooLarge:
      return "too_large";
    case MilpStatus::kUnbounded:
      return "unbounded";
  }
  return "unknown";
}

namespace {

/// Search state shared by every subtree worker of one Solve() call.
/// Workers prune against `PruneBound()` with a single atomic load; the
/// full incumbent vector sits behind a mutex taken only on improvement,
/// which is rare compared to node processing.
class SharedSearch {
 public:
  SharedSearch(const Model& model, const VarRows& var_rows,
               const MilpOptions& options)
      : model_(model),
        var_rows_(var_rows),
        options_(options),
        deadline_(Deadline::AfterSeconds(options.time_limit_seconds)) {}

  const Model& model() const { return model_; }
  const VarRows& var_rows() const { return var_rows_; }
  const MilpOptions& options() const { return options_; }
  const Deadline& deadline() const { return deadline_; }
  exec::CancellationToken token() const { return cancel_.token(); }

  /// True once any terminal condition fired; workers return from their
  /// subtree as soon as they observe it.
  bool Halted() const {
    return cancel_.cancelled() || limit_hit_.load(std::memory_order_relaxed);
  }

  /// Claims one node against the global budget. Returns false (and
  /// latches the limit) when the deadline or node budget is exhausted
  /// or an external caller (service shutdown) cancelled the solve.
  bool TakeNode() {
    if (deadline_.Expired() || options_.cancel.cancelled() ||
        nodes_.load(std::memory_order_relaxed) >= options_.max_nodes) {
      SetLimitHit();
      return false;
    }
    nodes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void SetLimitHit() {
    limit_hit_.store(true, std::memory_order_relaxed);
    cancel_.Cancel();  // queued subtree tasks are skipped, not searched
  }
  void SetTooLarge() {
    too_large_.store(true, std::memory_order_relaxed);
    cancel_.Cancel();
  }
  void SetUnbounded() {
    unbounded_.store(true, std::memory_order_relaxed);
    cancel_.Cancel();
  }
  void SetInexact() { inexact_.store(true, std::memory_order_relaxed); }

  bool limit_hit() const { return limit_hit_.load(std::memory_order_relaxed); }
  bool too_large() const { return too_large_.load(std::memory_order_relaxed); }
  bool unbounded() const { return unbounded_.load(std::memory_order_relaxed); }
  bool inexact() const { return inexact_.load(std::memory_order_relaxed); }
  int64_t nodes() const { return nodes_.load(std::memory_order_relaxed); }

  /// The objective every worker prunes against (+inf until a feasible
  /// solution exists). Lock-free on the hot path.
  double PruneBound() const {
    return incumbent_bound_.load(std::memory_order_acquire);
  }

  /// Installs `x` as the incumbent if it beats the current one. `x` must
  /// already be verified feasible against the original model.
  void OfferIncumbent(double obj, std::vector<double> x) {
    bool installed = false;
    {
      std::lock_guard<std::mutex> lock(incumbent_mu_);
      if (!have_incumbent_ || obj < incumbent_obj_) {
        have_incumbent_ = true;
        incumbent_obj_ = obj;
        incumbent_x_ = std::move(x);
        ++incumbent_updates_;
        incumbent_bound_.store(obj, std::memory_order_release);
        installed = true;
      }
    }
    if (installed && trace() != nullptr) {
      // Zero-width mark at the moment a better solution landed — the
      // retained trace shows when the solve stopped improving.
      double t = trace()->ElapsedSeconds();
      trace()->AddSpan("incumbent_update", t, t, trace_parent());
    }
  }

  obs::TraceContext* trace() const { return options_.trace; }
  size_t trace_parent() const { return options_.trace_parent_span; }
  /// Claims one of the solve-wide "node_batch" span slots.
  bool TakeNodeBatchSpanSlot() {
    return node_batch_spans_.fetch_add(1, std::memory_order_relaxed) <
           kMaxNodeBatchSpans;
  }

  int64_t incumbent_updates() {
    std::lock_guard<std::mutex> lock(incumbent_mu_);
    return incumbent_updates_;
  }

  bool GetIncumbent(double* obj, std::vector<double>* x) {
    std::lock_guard<std::mutex> lock(incumbent_mu_);
    if (!have_incumbent_) return false;
    *obj = incumbent_obj_;
    *x = incumbent_x_;
    return true;
  }

  // --- subtree task throttling ---
  bool WantMoreTasks() const {
    return open_tasks_.load(std::memory_order_relaxed) <
           options_.jobs * 4;
  }
  void TaskStarted() { open_tasks_.fetch_add(1, std::memory_order_relaxed); }
  void TaskFinished() { open_tasks_.fetch_sub(1, std::memory_order_relaxed); }

  void MergeStats(const MilpStats& worker) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    merged_stats_.MergeFrom(worker);
  }
  MilpStats merged_stats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return merged_stats_;
  }

 private:
  const Model& model_;
  const VarRows& var_rows_;  // read-only; shared by every worker
  const MilpOptions& options_;
  Deadline deadline_;
  exec::CancellationSource cancel_;

  std::atomic<int64_t> nodes_{0};
  std::atomic<bool> limit_hit_{false};
  std::atomic<bool> too_large_{false};
  std::atomic<bool> unbounded_{false};
  std::atomic<bool> inexact_{false};
  std::atomic<int> open_tasks_{0};
  std::atomic<int64_t> node_batch_spans_{0};

  std::atomic<double> incumbent_bound_{
      std::numeric_limits<double>::infinity()};
  std::mutex incumbent_mu_;
  bool have_incumbent_ = false;
  double incumbent_obj_ = 0.0;
  int64_t incumbent_updates_ = 0;
  std::vector<double> incumbent_x_;

  std::mutex stats_mu_;
  MilpStats merged_stats_;
};

/// One worker's depth-first search over a subtree. Owns its own bound
/// trail, propagation queue and pseudo-cost table (pseudo-costs are a
/// per-worker heuristic; sharing them would serialize every node on a
/// lock for marginal benefit). With a TaskGroup attached, the second
/// branch side at a node may be packaged as a fresh subtree task for idle
/// workers to steal; without one (serial mode) the search is the original
/// deterministic DFS.
class SubtreeWorker {
 public:
  SubtreeWorker(SharedSearch& shared, exec::TaskGroup* group)
      : shared_(shared),
        group_(group),
        propagator_(shared.model(), shared.var_rows(),
                    shared.options().propagation_rounds),
        pcosts_(static_cast<size_t>(shared.model().NumVars())) {}

  /// Runs the DFS rooted at `domains`, then folds this worker's counters
  /// into the shared stats.
  void Search(Domains domains, bool try_rounding) {
    Dfs(domains, /*depth=*/0, try_rounding);
    FlushNodeBatch();
    shared_.MergeStats(stats_);
  }

  /// Propagates the rows of `var` after a branch moved its bounds.
  Status PropagateBranch(Domains& domains, VarId var, BoundTrail* trail) {
    propagator_.QueueRowsOf(var);
    return propagator_.Propagate(domains, trail);
  }

 private:
  const Model& model() const { return shared_.model(); }
  const MilpOptions& options() const { return shared_.options(); }

  // Depth-first node processing. `domains` is mutated in place; callers
  // rewind via the trail. When `entry_obj` is non-null it receives this
  // node's LP relaxation objective (NaN if the LP did not reach
  // optimality) — the parent uses it to update pseudo-costs.
  void Dfs(Domains& domains, int depth, bool try_rounding,
           double* entry_obj = nullptr) {
    if (entry_obj != nullptr) {
      *entry_obj = std::numeric_limits<double>::quiet_NaN();
    }
    if (shared_.Halted()) return;
    if (!shared_.TakeNode()) return;
    ++stats_.nodes;
    if (shared_.trace() != nullptr) TickNodeBatch();

    // The root worker's first LP is the root relaxation — the span an
    // operator reads first when a solve is slow (a fat root LP means
    // the model, not the tree, is the problem).
    const bool is_root_lp =
        depth == 0 && try_rounding && shared_.trace() != nullptr;
    double root_lp_start = 0.0;
    if (is_root_lp) root_lp_start = shared_.trace()->ElapsedSeconds();
    LpResult lp = SolveLp(model(), domains, LpOptionsForNode());
    if (is_root_lp) {
      shared_.trace()->AddSpan("root_lp", root_lp_start,
                               shared_.trace()->ElapsedSeconds(),
                               shared_.trace_parent());
    }
    stats_.lp_iterations += lp.iterations;
    switch (lp.status) {
      case LpStatus::kInfeasible:
        return;
      case LpStatus::kTooLarge:
        shared_.SetTooLarge();
        return;
      case LpStatus::kUnbounded:
        shared_.SetUnbounded();
        return;
      case LpStatus::kIterLimit:
        // No dual bound available; continue branching blindly but drop
        // the optimality certificate.
        shared_.SetInexact();
        BranchWithoutBound(domains, depth);
        return;
      case LpStatus::kOptimal:
        break;
    }
    if (entry_obj != nullptr) *entry_obj = lp.objective;

    // Bound pruning (minimization) against the global incumbent.
    if (lp.objective >= shared_.PruneBound() - 1e-9) return;

    int branch_var = PickBranchVariable(lp.x, domains);
    if (branch_var < 0) {
      AcceptIncumbent(lp.x);
      return;
    }

    if (try_rounding && options().enable_rounding_heuristic) {
      TryRounding(domains, lp.x);
      if (lp.objective >= shared_.PruneBound() - 1e-9) return;
    }

    double xv = lp.x[branch_var];
    double floor_v = std::floor(xv);
    double ceil_v = floor_v + 1.0;
    double frac = xv - floor_v;
    // Explore the side nearer the LP value first (dive).
    bool floor_first = frac <= 0.5;
    for (int side = 0; side < 2; ++side) {
      bool use_floor = (side == 0) == floor_first;
      // Offload the away-side subtree to the pool when workers are
      // hungry; the dive side stays on this worker so the incumbent
      // arrives as fast as in the serial search.
      if (side == 1 && group_ != nullptr && shared_.WantMoreTasks()) {
        SpawnSubtree(domains, branch_var, use_floor, floor_v, ceil_v);
        continue;
      }
      size_t mark = trail_.size();
      trail_.push_back(
          {branch_var, domains.lb[branch_var], domains.ub[branch_var]});
      if (use_floor) {
        domains.ub[branch_var] = std::min(domains.ub[branch_var], floor_v);
      } else {
        domains.lb[branch_var] = std::max(domains.lb[branch_var], ceil_v);
      }
      if (domains.lb[branch_var] <= domains.ub[branch_var]) {
        Status s = PropagateBranch(domains, branch_var, &trail_);
        if (s.ok()) {
          double child_obj;
          Dfs(domains, depth + 1, /*try_rounding=*/false, &child_obj);
          UpdatePseudoCost(branch_var, use_floor, frac, lp.objective,
                           child_obj);
        }
      }
      RewindTrail(domains, trail_, mark);
      if (shared_.Halted()) return;
    }
  }

  // Packages one branch side as an independent subtree task: snapshot
  // the domains, apply the branch bound, and hand it to the group. The
  // child propagates and searches with its own worker state.
  void SpawnSubtree(const Domains& domains, int branch_var, bool use_floor,
                    double floor_v, double ceil_v) {
    Domains child = domains;
    if (use_floor) {
      child.ub[branch_var] = std::min(child.ub[branch_var], floor_v);
    } else {
      child.lb[branch_var] = std::max(child.lb[branch_var], ceil_v);
    }
    if (child.lb[branch_var] > child.ub[branch_var]) return;
    ++stats_.spawned_subtrees;
    shared_.TaskStarted();
    SharedSearch& shared = shared_;
    exec::TaskGroup* group = group_;
    group->Spawn(
        [&shared, group, branch_var, child = std::move(child)]() mutable {
          SubtreeWorker worker(shared, group);
          Status s = worker.PropagateBranch(child, branch_var, nullptr);
          if (s.ok() && !shared.Halted()) {
            worker.Search(std::move(child), /*try_rounding=*/false);
          }
          shared.TaskFinished();
        });
  }

  // Records how much fixing `var` down/up degraded the child's LP bound,
  // normalized per unit of fractionality removed.
  void UpdatePseudoCost(int var, bool went_down, double frac,
                        double parent_obj, double child_obj) {
    if (options().branch_rule != BranchRule::kPseudoCost) return;
    if (std::isnan(child_obj)) return;
    double removed = went_down ? frac : 1.0 - frac;
    if (removed < 1e-6) return;
    double degradation = std::max(child_obj - parent_obj, 0.0) / removed;
    PseudoCost& pc = pcosts_[var];
    if (went_down) {
      pc.down_sum += degradation;
      ++pc.down_n;
    } else {
      pc.up_sum += degradation;
      ++pc.up_n;
    }
  }

  // Fallback branching when the LP failed to converge: fix the first
  // unfixed integer variable to its bounds' midpoint split.
  void BranchWithoutBound(Domains& domains, int depth) {
    int branch_var = -1;
    for (VarId v = 0; v < model().NumVars(); ++v) {
      if (model().type(v) == VarType::kContinuous) continue;
      if (domains.lb[v] < domains.ub[v] - 0.5) {
        branch_var = v;
        break;
      }
    }
    if (branch_var < 0) return;  // cannot certify anything here
    double mid = std::floor((domains.lb[branch_var] +
                             domains.ub[branch_var]) / 2.0);
    for (int side = 0; side < 2; ++side) {
      size_t mark = trail_.size();
      trail_.push_back(
          {branch_var, domains.lb[branch_var], domains.ub[branch_var]});
      if (side == 0) {
        domains.ub[branch_var] = mid;
      } else {
        domains.lb[branch_var] = mid + 1.0;
      }
      if (domains.lb[branch_var] <= domains.ub[branch_var]) {
        Status s = PropagateBranch(domains, branch_var, &trail_);
        if (s.ok()) Dfs(domains, depth + 1, /*try_rounding=*/false);
      }
      RewindTrail(domains, trail_, mark);
      if (shared_.Halted()) return;
    }
  }

  // Returns the branching variable per the configured rule, or -1 if the
  // solution is integral.
  int PickBranchVariable(const std::vector<double>& x,
                         const Domains& domains) const {
    if (options().branch_rule == BranchRule::kPseudoCost) {
      return PickByPseudoCost(x, domains);
    }
    int best = -1;
    double best_frac = options().int_tol;
    for (VarId v = 0; v < model().NumVars(); ++v) {
      if (model().type(v) == VarType::kContinuous) continue;
      if (domains.Fixed(v)) continue;
      double frac = std::fabs(x[v] - std::round(x[v]));
      double dist_to_half = std::fabs(frac - 0.5);
      if (frac > options().int_tol &&
          (best < 0 || dist_to_half < best_frac)) {
        best = v;
        best_frac = dist_to_half;
      }
    }
    return best;
  }

  // Product rule over estimated down/up bound degradations; variables
  // without history in a direction estimate with their raw fraction, so
  // unexplored variables stay competitive (a crude reliability rule).
  int PickByPseudoCost(const std::vector<double>& x,
                       const Domains& domains) const {
    int best = -1;
    double best_score = -1.0;
    for (VarId v = 0; v < model().NumVars(); ++v) {
      if (model().type(v) == VarType::kContinuous) continue;
      if (domains.Fixed(v)) continue;
      double frac = x[v] - std::floor(x[v]);
      double dist = std::min(frac, 1.0 - frac);
      if (dist <= options().int_tol) continue;
      const PseudoCost& pc = pcosts_[v];
      double down_est =
          pc.down_n > 0 ? (pc.down_sum / pc.down_n) * frac : frac;
      double up_est =
          pc.up_n > 0 ? (pc.up_sum / pc.up_n) * (1.0 - frac) : 1.0 - frac;
      double score = std::max(down_est, 1e-6) * std::max(up_est, 1e-6);
      if (score > best_score) {
        best = v;
        best_score = score;
      }
    }
    return best;
  }

  // Offers an integral LP solution as the new incumbent after verifying
  // it against the original model.
  void AcceptIncumbent(std::vector<double> x) {
    // Snap integer variables exactly.
    for (VarId v = 0; v < model().NumVars(); ++v) {
      if (model().type(v) != VarType::kContinuous) x[v] = std::round(x[v]);
    }
    if (!model().IsFeasible(x, 1e-5)) return;  // numerical mirage; skip
    double obj = model().EvalObjective(x);
    shared_.OfferIncumbent(obj, std::move(x));
  }

  // Root heuristic: fix every integer variable to the rounded LP value,
  // propagate, and re-solve the LP for the continuous remainder.
  void TryRounding(Domains& domains, const std::vector<double>& x) {
    size_t mark = trail_.size();
    for (VarId v = 0; v < model().NumVars(); ++v) {
      if (model().type(v) == VarType::kContinuous) continue;
      if (domains.Fixed(v)) continue;
      double r = std::round(x[v]);
      r = std::clamp(r, domains.lb[v], domains.ub[v]);
      trail_.push_back({v, domains.lb[v], domains.ub[v]});
      domains.lb[v] = r;
      domains.ub[v] = r;
      propagator_.QueueRowsOf(v);
    }
    Status s = propagator_.Propagate(domains, &trail_);
    if (s.ok()) {
      LpResult lp = SolveLp(model(), domains, LpOptionsForNode());
      stats_.lp_iterations += lp.iterations;
      if (lp.status == LpStatus::kOptimal) AcceptIncumbent(lp.x);
    }
    RewindTrail(domains, trail_, mark);
  }

  // Sampled node-batch spans: one span per kTraceNodeBatch nodes this
  // worker processes, bounded solve-wide by kMaxNodeBatchSpans (and by
  // the trace's own span cap). At a high node rate the per-node cost
  // is one branch; the clock is only read at batch edges.
  void TickNodeBatch() {
    if (batch_nodes_ == 0) {
      batch_start_ = shared_.trace()->ElapsedSeconds();
    }
    if (++batch_nodes_ >= kTraceNodeBatch) FlushNodeBatch();
  }

  void FlushNodeBatch() {
    if (batch_nodes_ == 0) return;
    obs::TraceContext* trace = shared_.trace();
    if (trace != nullptr && shared_.TakeNodeBatchSpanSlot()) {
      trace->AddSpan("node_batch", batch_start_, trace->ElapsedSeconds(),
                     shared_.trace_parent());
    }
    batch_nodes_ = 0;
  }

  // LP options with the solver's remaining wall-clock budget threaded
  // through, so a single large LP cannot outlive the MILP deadline.
  SimplexOptions LpOptionsForNode() const {
    SimplexOptions opts = options().lp;
    double remaining = shared_.deadline().RemainingSeconds();
    if (remaining < 1e20 &&
        (opts.time_limit_seconds <= 0.0 ||
         remaining < opts.time_limit_seconds)) {
      opts.time_limit_seconds = std::max(remaining, 1e-3);
    }
    return opts;
  }

  /// Running per-variable estimates of LP bound degradation when the
  /// variable is pushed down/up (pseudo-cost branching).
  struct PseudoCost {
    double down_sum = 0.0;
    double up_sum = 0.0;
    int down_n = 0;
    int up_n = 0;
  };

  SharedSearch& shared_;
  exec::TaskGroup* group_;
  Propagator propagator_;
  std::vector<PseudoCost> pcosts_;
  BoundTrail trail_;
  MilpStats stats_;
  int64_t batch_nodes_ = 0;
  double batch_start_ = 0.0;
};

int NormalizedJobs(const MilpOptions& options) {
  // A caller-owned pool dictates the parallelism: its worker count is
  // what the search can actually use (a deterministic pool has zero
  // workers, which selects the serial search).
  if (options.pool != nullptr) {
    return std::max(options.pool->num_workers(), 1);
  }
  if (options.jobs == 0) return exec::ThreadPool::DefaultParallelism();
  return std::max(options.jobs, 1);
}

}  // namespace

MilpSolution MilpSolver::Solve(const Model& model) const {
  MilpOptions options = options_;
  options.jobs = NormalizedJobs(options);

  MilpSolution out;
  out.stats.num_vars = model.NumVars();
  out.stats.num_constraints = model.NumConstraints();
  out.stats.num_integer_vars = model.NumIntegerVars();
  out.stats.workers = options.jobs;

  const double start = MonotonicSeconds();
  Status valid = model.Validate();
  QFIX_CHECK(valid.ok()) << valid.ToString();

  // The var->row index every propagation of this solve reads.
  const VarRows var_rows(model);
  SharedSearch shared(model, var_rows, options);

  Domains domains = model.InitialDomains();
  if (options.enable_presolve) {
    double presolve_start = 0.0;
    if (options.trace != nullptr) {
      presolve_start = options.trace->ElapsedSeconds();
    }
    auto end_presolve_span = [&] {
      if (options.trace != nullptr) {
        options.trace->AddSpan("presolve", presolve_start,
                               options.trace->ElapsedSeconds(),
                               options.trace_parent_span);
      }
    };
    Propagator root(model, var_rows, options.propagation_rounds);
    root.QueueAllRows();
    Status s = root.Propagate(domains, nullptr);
    if (s.IsInfeasible()) {
      end_presolve_span();
      out.status = MilpStatus::kInfeasible;
      out.stats.wall_seconds = MonotonicSeconds() - start;
      return out;
    }
    int unfixed_binaries = 0;
    for (VarId v = 0; v < model.NumVars(); ++v) {
      if (model.type(v) == VarType::kBinary && !domains.Fixed(v)) {
        ++unfixed_binaries;
      }
    }
    if (options.enable_probing &&
        unfixed_binaries <= options.probe_max_binaries) {
      ProbeResult probe;
      s = root.Probe(domains, options.probe_passes, nullptr, &probe);
      out.stats.probe_fixed = probe.fixed_binaries;
      out.stats.probe_tightened = probe.tightened_bounds;
      // Carry the last union step's tightenings to a fixpoint, so a
      // child node needs to propagate only the rows of its branch.
      if (s.ok()) s = root.Propagate(domains, nullptr);
      if (s.IsInfeasible()) {
        end_presolve_span();
        out.status = MilpStatus::kInfeasible;
        out.stats.wall_seconds = MonotonicSeconds() - start;
        return out;
      }
    }
    end_presolve_span();
  }

  if (options.jobs <= 1) {
    SubtreeWorker worker(shared, /*group=*/nullptr);
    worker.Search(std::move(domains), /*try_rounding=*/true);
  } else {
    // Reuse the caller's pool when one was provided; otherwise build a
    // private one for this call (the original owning path).
    std::optional<exec::ThreadPool> owned;
    exec::ThreadPool* pool = options.pool;
    if (pool == nullptr) {
      owned.emplace(options.jobs);
      pool = &*owned;
    }
    exec::TaskGroup group(pool, shared.token());
    shared.TaskStarted();
    group.Spawn([&shared, &group, root = std::move(domains)]() mutable {
      SubtreeWorker worker(shared, &group);
      worker.Search(std::move(root), /*try_rounding=*/true);
      shared.TaskFinished();
    });
    group.Wait();
  }

  MilpStats merged = shared.merged_stats();
  out.stats.nodes = merged.nodes;
  out.stats.lp_iterations = merged.lp_iterations;
  out.stats.spawned_subtrees = merged.spawned_subtrees;
  out.stats.incumbent_updates = shared.incumbent_updates();
  out.stats.wall_seconds = MonotonicSeconds() - start;

  if (shared.too_large()) {
    out.status = MilpStatus::kTooLarge;
    return out;
  }
  double obj;
  std::vector<double> x;
  bool have_incumbent = shared.GetIncumbent(&obj, &x);
  if (shared.unbounded() && !have_incumbent) {
    out.status = MilpStatus::kUnbounded;
    return out;
  }
  bool proven = !shared.limit_hit() && !shared.inexact();
  if (have_incumbent) {
    out.objective = obj;
    out.x = std::move(x);
    out.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    return out;
  }
  out.status = proven ? MilpStatus::kInfeasible : MilpStatus::kTimeLimit;
  return out;
}

}  // namespace milp
}  // namespace qfix
