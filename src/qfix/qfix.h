// QFixEngine: the user-facing diagnosis/repair API.
//
// Wires together the encoder (encoder.h), the slicing optimizations
// (provenance/impact.h) and the MILP solver (milp/solver.h) into the
// paper's algorithms:
//   * RepairBasic        — Algorithm 1: parameterize every (relevant)
//                          query and solve one MILP.
//   * RepairIncremental  — Algorithm 3 (Inc_k): walk the log from most
//                          recent to oldest in batches of k, repairing
//                          one batch at a time.
//   * RepairSingle       — parameterize exactly one query (the "single
//                          query parameterization" series of Fig. 4).
// Tuple slicing's two-step refinement (§5.1) runs automatically after a
// successful sliced solve when non-complaint tuples are caught by the
// repaired WHERE clauses.
#ifndef QFIX_QFIX_QFIX_H_
#define QFIX_QFIX_QFIX_H_

#include <cstdint>
#include <vector>

#include "cache/snapshot.h"
#include "common/result.h"
#include "common/timer.h"
#include "milp/solver.h"
#include "provenance/complaint.h"
#include "provenance/impact.h"
#include "qfix/encoder.h"
#include "relational/database.h"
#include "relational/query.h"

namespace qfix {
namespace ingest {
class EncodingCache;
}  // namespace ingest

namespace qfixcore {

struct QFixOptions {
  /// §5.1: encode only complaint tuples (plus refinement).
  bool tuple_slicing = true;
  /// §5.2: encode only queries whose full impact reaches the complaints.
  bool query_slicing = true;
  /// §5.3: restrict variables/constraints to relevant attributes.
  bool attribute_slicing = true;
  /// §5.1 step 2: shrink over-general repairs with a second small MILP.
  bool refinement = true;
  /// Incremental mode: use the strict candidate filter F(q) ⊇ A(C) when
  /// searching for a single corrupted query (k == 1).
  bool single_corruption_filter = true;
  /// Round repaired constants to the coarsest decimal whose replay
  /// reproduces the same final state (MILP optima sit on ugly epsilon
  /// boundaries; administrators should read "86501", not
  /// "86500.000001"). Replay-equivalence is re-checked per parameter.
  bool polish_params = true;
  /// Wall-clock budget across all attempts (encode + solve + refine).
  double time_limit_seconds = 120.0;
  /// Objective weight of the step-2 parameter-distance tiebreak.
  double refine_distance_weight = 1e-3;

  /// Incremental ingest: when set and the snapshot carries sealed
  /// chunks, attempts reuse the memoized replay of the deepest chunk
  /// prefix below the first parameterized query, re-encoding only the
  /// tail (see ingest/encoding_cache.h). Non-owning, may be null.
  /// Deliberately NOT part of any cache fingerprint: it changes encode
  /// cost, never results.
  ingest::EncodingCache* encoding_cache = nullptr;

  EncoderOptions encoder;
  milp::MilpOptions milp;
};

struct RepairStats {
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
  /// Size of the (last) MILP handed to the solver.
  int32_t num_vars = 0;
  int32_t num_constraints = 0;
  int32_t num_integer_vars = 0;
  int64_t solver_nodes = 0;
  /// Summed simplex iterations across every MILP behind this repair.
  int64_t lp_iterations = 0;
  /// Times any branch & bound worker installed a new best incumbent.
  int64_t incumbent_updates = 0;
  /// Whether the encoder replayed a memoized chunk-prefix state instead
  /// of re-encoding the full log (ingest::EncodingCache hit).
  bool prefix_reused = false;
  /// Batches attempted (incremental mode).
  int attempts = 0;
  /// Whether the step-2 refinement MILP ran.
  bool refined = false;
  /// True when every MILP behind the returned repair was solved to
  /// proven optimality. False means a limit stopped branch & bound at
  /// a feasible incumbent — the repair is valid but possibly not
  /// minimal, so it depends on the budget and MUST NOT be memoized
  /// (the report cache only caches optimal results).
  bool optimal = false;
  size_t encoded_tuples = 0;
  size_t encoded_queries = 0;
};

/// The tolerance policy of every verdict (JudgeReplay). A complaint is
/// resolved when its replayed tuple's liveness matches the target and
/// every attribute lies within kTargetTolerance of the target value. A
/// non-complaint slot is a side effect when its liveness differs from
/// the observed dirty state or an attribute moved by more than
/// kMoveTolerance.
inline constexpr double kTargetTolerance = 1e-4;
inline constexpr double kMoveTolerance = 1e-6;

/// Whether the replay of a repaired log resolves one complaint.
struct ComplaintVerdict {
  int64_t tid = 0;
  bool resolved = false;
};

/// A successful diagnosis: the repaired log Q* and bookkeeping.
struct Repair {
  relational::QueryLog log;
  /// Indexes of queries whose parameters changed — the diagnosis.
  std::vector<size_t> changed_queries;
  /// d(Q, Q*), the Manhattan parameter distance (§4.3).
  double distance = 0.0;

  // The verdict on the replay of Q* from D0 (JudgeReplay); both reports
  // (report_json.h, explain.h) render it as is.
  /// True if that replay resolves every complaint: liveness matches and
  /// every attribute is within kTargetTolerance (1e-4) of its target.
  bool verified = false;
  /// One row per complaint, in complaint-set order.
  std::vector<ComplaintVerdict> complaints;
  /// Non-complaint slots whose final state the repair moved away from
  /// the observed dirty state, ascending: its predictions of unreported
  /// errors (§1).
  std::vector<size_t> side_effects;
  /// side_effects.size(). Incremental search prefers repairs with zero
  /// collateral and only falls back to damaged ones when no batch yields
  /// a clean repair.
  size_t collateral = 0;

  /// True when this result was served from a cache::ReportCache instead
  /// of a fresh solve (BatchOptions::report_cache). Not part of the
  /// rendered report — cached reports are byte-identical to cold ones.
  bool from_cache = false;
  RepairStats stats;
};

/// Sets `repair`'s verdict (verified, complaints, side_effects,
/// collateral) from `fixed`, the replay of `repair->log` from D0, the
/// observed dirty state and the complaint set, under the tolerance
/// policy above. Every replayed slot must exist in `dirty`.
void JudgeReplay(const relational::Database& fixed,
                 const relational::Database& dirty,
                 const provenance::ComplaintSet& complaints, Repair* repair);

/// One diagnosis instance (D0, Q, D_n, C) and the paper's algorithms
/// over it. Work per engine vs per attempt: the constructor computes
/// what no Inc_k attempt changes — F(q) for every query and the
/// relevance filters, the encoder's EncodingContext (value bound,
/// epsilon, insert tids), and the §5.3 attribute filter over the
/// loosely relevant queries. An attempt adds to that filter only the
/// parameterized queries outside the loose set (RepairSingle, RepairBasic's
/// all-queries fallback), then encodes, solves, and replays its repaired
/// log once: that replay serves refinement's collateral check, polish
/// and the verdict (JudgeReplay), and only an adopted refinement or
/// a polished constant replaces it, with the replay that step made. So
/// any call returns exactly what the same call on a fresh engine would.
class QFixEngine {
 public:
  /// Zero-copy constructor: the engine shares the immutable snapshot
  /// for its whole lifetime (no tuple is copied). This is the serving
  /// hot path — see cache/snapshot.h.
  QFixEngine(cache::Snapshot data, provenance::ComplaintSet complaints,
             QFixOptions options = QFixOptions());

  /// By-value adapter (tests, CLI): moves the states into a private
  /// snapshot; the engine is self-contained afterwards.
  QFixEngine(relational::QueryLog log, relational::Database d0,
             relational::Database dirty_dn,
             provenance::ComplaintSet complaints,
             QFixOptions options = QFixOptions());

  /// Algorithm 1. Returns Infeasible if no parameter assignment resolves
  /// the complaints, ResourceExhausted on time/size limits.
  Result<Repair> RepairBasic();

  /// Algorithm 3 (Inc_k): k consecutive queries parameterized per
  /// attempt, most recent first. k >= 1.
  Result<Repair> RepairIncremental(int k);

  /// Parameterizes exactly one query.
  Result<Repair> RepairSingle(size_t query_index);

  /// Extension beyond the paper: enumerates *all* single-query diagnoses
  /// that resolve the complaint set, ranked best-first (zero-collateral
  /// repairs before damaged ones, then by parameter distance). Useful
  /// when an administrator wants alternatives to validate rather than a
  /// single answer (§1: repairs are confirmed by an expert). Stops after
  /// `max_diagnoses` hits or when the time limit expires.
  std::vector<Repair> DiagnoseAll(size_t max_diagnoses = 5);

  /// A(C) for the stored complaint set.
  const AttrSet& complaint_attrs() const { return complaint_attrs_; }
  /// F(q_i) for every query (Alg. 2).
  const std::vector<AttrSet>& full_impacts() const { return full_impacts_; }

 private:
  Result<Repair> SolveAttempt(const std::vector<bool>& parameterized,
                              const Deadline& deadline, RepairStats* stats);
  std::vector<size_t> ComplaintSlots() const;
  std::vector<size_t> AllSlots() const;
  // Queries eligible for encoding (loose relevance filter).
  std::vector<bool> EncodedSet(const std::vector<bool>& parameterized) const;

  /// Owns (a reference on) the immutable snapshot; the references below
  /// point into it and stay valid for the engine's lifetime.
  cache::Snapshot data_;
  const relational::QueryLog& log_;
  const relational::Database& d0_;
  const relational::Database& dirty_;
  provenance::ComplaintSet complaints_;
  QFixOptions options_;

  size_t num_attrs_ = 0;
  AttrSet complaint_attrs_;
  std::vector<AttrSet> full_impacts_;
  std::vector<bool> relevant_loose_;   // |F ∩ A(C)| > 0
  std::vector<bool> relevant_strict_;  // F ⊇ A(C)
  // Attempt-invariant encoder constants, handed to every Encode.
  EncodingContext encoding_context_;
  // §5.3 filter over the queries every attempt encodes: the loosely
  // relevant ones (every query without query slicing). Empty when
  // attribute slicing is off.
  AttrSet attr_filter_;
};

}  // namespace qfixcore
}  // namespace qfix

#endif  // QFIX_QFIX_QFIX_H_
