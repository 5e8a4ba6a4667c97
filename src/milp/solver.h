// Branch & bound MILP solver (the role CPLEX plays in the paper).
//
// Depth-first search over binary/integer variable fixings, with bound
// propagation at every node, LP relaxation bounds from the bounded-
// variable simplex (simplex.h), a most-fractional branching rule, and a
// root rounding heuristic for early incumbents. With `jobs > 1` the
// search runs on a work-stealing thread pool (src/exec): shallow branch
// siblings are packaged as subtree tasks that idle workers steal, and
// the incumbent objective is shared through an atomic bound so every
// worker prunes against the global best without taking a lock.
#ifndef QFIX_MILP_SOLVER_H_
#define QFIX_MILP_SOLVER_H_

#include <cstdint>
#include <vector>

#include "exec/cancellation.h"
#include "milp/model.h"
#include "milp/simplex.h"
#include "obs/trace.h"

namespace qfix {
namespace exec {
class ThreadPool;
}  // namespace exec
namespace milp {

enum class MilpStatus {
  /// Optimality proven.
  kOptimal,
  /// A feasible solution was found but a limit stopped the proof.
  kFeasible,
  /// The model has no feasible solution.
  kInfeasible,
  /// A limit was hit before any feasible solution was found.
  kTimeLimit,
  /// The instance exceeds the solver's size budget (mirrors the paper's
  /// observation that `basic` collapses beyond ~50 queries).
  kTooLarge,
  /// The LP relaxation is unbounded (indicates an encoding bug).
  kUnbounded,
};

/// True if the status carries a usable assignment.
inline bool HasSolution(MilpStatus s) {
  return s == MilpStatus::kOptimal || s == MilpStatus::kFeasible;
}

const char* MilpStatusToString(MilpStatus status);

struct MilpStats {
  int64_t nodes = 0;
  int64_t lp_iterations = 0;
  /// Elapsed time, measured via MonotonicSeconds() (common/timer.h) so
  /// per-worker stats taken on different threads are comparable.
  double wall_seconds = 0.0;
  /// Subtree tasks handed to the work-stealing pool (0 in serial runs).
  int64_t spawned_subtrees = 0;
  /// Times a new best feasible solution was installed (across workers).
  int64_t incumbent_updates = 0;
  /// Worker threads the search actually used.
  int workers = 1;
  /// Binaries fixed by root probing (0 when probing is disabled).
  int probe_fixed = 0;
  /// Bounds tightened by root probing's union step.
  int probe_tightened = 0;
  /// Size of the model as handed to the solver (reported by the benches
  /// alongside time, since problem size is the scale-free difficulty
  /// measure when comparing against the paper's CPLEX runs).
  int32_t num_vars = 0;
  int32_t num_constraints = 0;
  int32_t num_integer_vars = 0;

  /// Folds a per-worker search record into this one: the search
  /// counters add up. Timing and the root-only fields (probe_*, model
  /// sizes) are owned by the top-level Solve(), not by workers.
  void MergeFrom(const MilpStats& worker) {
    nodes += worker.nodes;
    lp_iterations += worker.lp_iterations;
    spawned_subtrees += worker.spawned_subtrees;
    incumbent_updates += worker.incumbent_updates;
  }
};

struct MilpSolution {
  MilpStatus status = MilpStatus::kTimeLimit;
  double objective = 0.0;
  /// Values for all model variables; empty when !HasSolution(status).
  std::vector<double> x;
  MilpStats stats;
};

/// Which fractional variable branch & bound splits on.
enum class BranchRule {
  /// The variable closest to 0.5 fractionality (cheap, default).
  kMostFractional,
  /// Pseudo-cost branching: prefer variables that historically degraded
  /// the LP bound the most per unit of fractionality (product rule).
  /// Pays off on models where a few binaries control most of the
  /// structure; falls back to fractionality until a variable has been
  /// observed at least once in each direction.
  kPseudoCost,
};

struct MilpOptions {
  /// Wall-clock budget for one Solve() call; <= 0 disables the limit.
  double time_limit_seconds = 60.0;
  /// Node budget for the search tree.
  int64_t max_nodes = 2'000'000;
  /// A solution counts as integral when every integer variable is within
  /// this distance of an integer.
  double int_tol = 1e-6;
  /// Run global bound propagation before the search.
  bool enable_presolve = true;
  /// Caps each propagation call (presolve.h) at this many visits per
  /// row: a call stops at a fixpoint or after propagation_rounds × rows
  /// row visits, as many as that many full sweeps would make.
  int propagation_rounds = 20;
  /// Probe every binary at the root (presolve.h ProbeBinaries): fixes
  /// indicator binaries that big-M rows hide from plain propagation.
  /// Skipped automatically on models larger than `probe_max_binaries`.
  bool enable_probing = true;
  /// Full probing sweeps at the root.
  int probe_passes = 1;
  /// Probing costs O(binaries * propagation); beyond this many unfixed
  /// binaries the root LP is cheaper than the probe, so skip it.
  int probe_max_binaries = 512;
  /// Try rounding the root LP solution into an incumbent.
  bool enable_rounding_heuristic = true;
  /// Variable selection rule at branch nodes.
  BranchRule branch_rule = BranchRule::kMostFractional;
  /// Worker threads for branch & bound. 1 (default) runs the
  /// deterministic serial search; > 1 runs parallel branch & bound on a
  /// work-stealing pool (src/exec) — workers steal open subtree nodes
  /// and share the incumbent through an atomic bound; 0 means "one per
  /// hardware thread". Parallel search visits nodes in a different
  /// order, so node counts vary run to run, but proven-optimal
  /// objectives are identical to the serial search.
  int jobs = 1;
  /// Optional caller-owned pool the parallel search runs on instead of
  /// building (and tearing down) its own — the thread-churn fix for
  /// callers that issue many solves per request (incremental diagnosis,
  /// the batch service). Non-owning; must outlive the Solve() call. When
  /// set, `jobs` is ignored: parallelism follows the pool's worker count,
  /// and a deterministic (<= 0 workers) pool runs the serial search.
  exec::ThreadPool* pool = nullptr;
  /// External cancellation, polled at node boundaries like the time
  /// limit (a cancelled search reports kTimeLimit/kFeasible). Lets a
  /// service shut down without waiting out in-flight solves. The
  /// default token never fires.
  exec::CancellationToken cancel;
  /// Optional request trace the solve records solver-internal child
  /// spans into: "presolve", "root_lp", zero-width "incumbent_update"
  /// marks, and sampled "node_batch" spans (one per kTraceNodeBatch
  /// nodes per worker, capped at kMaxNodeBatchSpans per solve so span
  /// overhead stays bounded at high node rates). Runtime-only wiring
  /// like `pool` and `cancel` — never part of any cache fingerprint.
  /// Non-owning; must outlive the Solve() call. nullptr disables span
  /// recording entirely (the default; zero cost).
  obs::TraceContext* trace = nullptr;
  /// Index in `trace` of the enclosing span (the server's "solve"
  /// phase); kNoParent leaves solver spans at top level.
  size_t trace_parent_span = obs::TraceContext::kNoParent;
  SimplexOptions lp;
};

/// Nodes per sampled "node_batch" trace span (per worker).
inline constexpr int64_t kTraceNodeBatch = 256;
/// Cap on "node_batch" spans one Solve() may record.
inline constexpr int64_t kMaxNodeBatchSpans = 32;

/// Solves a MILP to optimality (or best effort under limits).
class MilpSolver {
 public:
  explicit MilpSolver(MilpOptions options = MilpOptions())
      : options_(options) {}

  /// Minimizes the model's objective. The returned solution is always
  /// verified against the original model before being reported.
  MilpSolution Solve(const Model& model) const;

 private:
  MilpOptions options_;
};

}  // namespace milp
}  // namespace qfix

#endif  // QFIX_MILP_SOLVER_H_
