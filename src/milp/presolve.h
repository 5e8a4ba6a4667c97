// Bound propagation ("presolve") for MILP models.
//
// Propagation tightens variable domains by reasoning about constraint
// activity bounds. It is run once globally before branch & bound and once
// per search node; on QFix encodings — long chains of big-M implications —
// it fixes most indicator binaries without any simplex work, which is what
// makes the from-scratch solver practical.
//
// Propagation is driven by a row worklist: a row is visited only when it
// is queued, and every variable a visit tightens queues the rows it
// appears in. The root queues every row; a search node queues only the
// rows of the variables its branch fixed.
#ifndef QFIX_MILP_PRESOLVE_H_
#define QFIX_MILP_PRESOLVE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "milp/model.h"

namespace qfix {
namespace milp {

/// One undo record: variable `var` had bounds [lb, ub] before a change.
struct BoundChange {
  VarId var;
  double lb;
  double ub;
};

/// A stack of bound changes used to rewind per-node tightenings.
using BoundTrail = std::vector<BoundChange>;

/// Tightens `domains` in place until fixpoint, or until it has visited
/// `max_rounds` × rows rows (as many visits as `max_rounds` full sweeps).
///
/// If `trail` is non-null every modification is recorded so the caller can
/// rewind with RewindTrail(). Returns Infeasible when some constraint
/// cannot be satisfied under the tightened domains.
Status PropagateBounds(const Model& model, Domains& domains, int max_rounds,
                       BoundTrail* trail);

/// Restores `domains` to the state captured by `trail` entries at index
/// >= `mark`, then truncates the trail to `mark`.
void RewindTrail(Domains& domains, BoundTrail& trail, size_t mark);

/// Outcome accounting for ProbeBinaries.
struct ProbeResult {
  /// Binaries probed (both 0 and 1 sides propagated).
  int probed = 0;
  /// Binaries fixed because one side propagated to a contradiction.
  int fixed_binaries = 0;
  /// Bounds of other variables tightened by taking the union of the two
  /// probe sides (valid in every feasible solution).
  int tightened_bounds = 0;
};

/// Probing: for every unfixed binary b, tentatively fix b=0 and b=1 and
/// propagate each side.
///
///  * both sides infeasible          -> the model is infeasible;
///  * exactly one side infeasible    -> b is fixed to the other value;
///  * both sides feasible            -> every variable's global bounds
///    shrink to the union of the two propagated side intervals.
///
/// Big-M indicator rows — the bulk of QFix encodings — propagate weakly
/// in isolation; probing recovers much of the implied structure before
/// branch & bound starts. Runs up to `max_passes` passes over the
/// binaries, or until a pass makes no change. Modifications are recorded
/// on `trail` when it is non-null. Returns Infeasible when a contradiction
/// is proven.
Status ProbeBinaries(const Model& model, Domains& domains,
                     int propagation_rounds, int max_passes,
                     BoundTrail* trail, ProbeResult* result);

/// The rows each variable of a model appears in, built once and read-only
/// afterwards, so the workers of a parallel search share one.
class VarRows {
 public:
  explicit VarRows(const Model& model);

  const int32_t* begin(VarId v) const { return rows_.data() + start_[v]; }
  const int32_t* end(VarId v) const { return rows_.data() + start_[v + 1]; }

 private:
  std::vector<int32_t> start_;  // rows of v: rows_[start_[v], start_[v+1])
  std::vector<int32_t> rows_;
};

/// The worklist propagation that PropagateBounds and ProbeBinaries run,
/// for callers that propagate one model many times (branch & bound).
/// Holds the row queue, so each thread needs its own.
class Propagator {
 public:
  /// `model` and `var_rows` must outlive the propagator. Each Propagate()
  /// visits at most `propagation_rounds` × rows rows.
  Propagator(const Model& model, const VarRows& var_rows,
             int propagation_rounds);

  void QueueAllRows();
  /// Queues every row `v` appears in (after `v`'s bounds moved).
  void QueueRowsOf(VarId v);

  /// Visits queued rows until the queue is empty or the visit cap is
  /// reached, tightening `domains` and recording on `trail` when it is
  /// non-null. The queue is empty afterwards.
  Status Propagate(Domains& domains, BoundTrail* trail);

  /// ProbeBinaries on this propagator. Each side is propagated on a
  /// private trail and rewound, and the union is taken over the variables
  /// both sides moved. On an OK return the rows of the variables the
  /// last union step tightened are left queued, so a following
  /// Propagate() carries `domains` to a fixpoint.
  Status Probe(Domains& domains, int max_passes, BoundTrail* trail,
               ProbeResult* result);

 private:
  // Propagates `sign` × (row terms) <= `sign` × rhs; returns true on any
  // change and sets *infeasible when the row cannot hold.
  bool PropagateLe(const Constraint& row, double sign, Domains& d,
                   BoundTrail* trail, bool* infeasible);
  bool TightenUpper(Domains& d, VarId v, double new_ub, BoundTrail* trail,
                    bool* infeasible);
  bool TightenLower(Domains& d, VarId v, double new_lb, BoundTrail* trail,
                    bool* infeasible);
  void QueueRow(int32_t row);
  // Dequeues the front row and clears its mark.
  int32_t PopRow();
  void ClearQueue();
  // Propagates one probe side: `v` fixed to `value`, recorded on
  // side_trail_, with the pending rows and `v`'s rows queued.
  bool ProbeSide(Domains& domains, VarId v, double value);

  const Model& model_;
  const VarRows& var_rows_;
  int64_t max_visits_;

  // FIFO ring of queued rows; each row is in it at most once.
  std::vector<int32_t> queue_;
  std::vector<uint8_t> queued_;
  size_t head_ = 0;
  size_t size_ = 0;

  // Probing scratch: rows not yet propagated in the global domains, the
  // side trail, and side 0's bounds of the variables it moved (valid
  // where moved0_ equals the current probe's stamp).
  std::vector<int32_t> pending_;
  BoundTrail side_trail_;
  std::vector<uint32_t> moved0_;
  std::vector<double> lb0_;
  std::vector<double> ub0_;
  uint32_t stamp_ = 0;
};

}  // namespace milp
}  // namespace qfix

#endif  // QFIX_MILP_PRESOLVE_H_
