// The MILP Encoder: translates (query log, D0, Dn, complaints) into a
// mixed-integer linear program whose optimal solution is the minimal log
// repair (paper §4).
//
// Encoding summary (deviations from the paper's presentation are
// intentional, equivalence-preserving simplifications; see DESIGN.md §2):
//
//  * Tuple values flow through the log as *affine expressions* over MILP
//    variables. A cell that no parameterized query has touched stays a
//    constant, so untouched queries are partially evaluated instead of
//    emitting constraints — constraints appear only where repair
//    decisions can change values. ConnectQueries (Alg. 1) is therefore
//    implicit: the output expression of q_i *is* the input of q_{i+1}.
//  * UPDATE (Eq. 2-4): for a tuple with symbolic match binary x, each SET
//    output variable `out` is tied to the new/old expressions with four
//    big-M rows (x=1 -> out = mu(t).A, x=0 -> out = t.A). This eliminates
//    the paper's u/v split variables algebraically.
//  * Predicates (Eq. 1): each comparison atom gets an indicator binary
//    with two big-M rows (four for equality atoms, which need a side-
//    selection binary); AND/OR nodes combine child binaries with the
//    standard min/max linearizations. Strict comparison is modeled with a
//    configurable epsilon (auto: 0.5 for integral data).
//  * DELETE (Eq. 6): instead of the paper's out-of-domain sentinel value
//    M+ (which is unsound for `>=` predicates), each tuple carries an
//    explicit liveness state; DELETE sets alive' = alive - (alive AND x),
//    and UPDATE/DELETE matches are conjoined with liveness.
//  * INSERT (Eq. 5): a parameterized INSERT's values are the parameter
//    variables themselves; the objective term |p - p0| subsumes Eq. 5's
//    correctness binary.
//  * Parameters: every additive constant of a parameterized query (WHERE
//    rhs, SET constant, INSERT value) becomes a variable p with split
//    deviation variables, objective sum |p - p0| (§4.3). Multiplicative
//    SET/WHERE coefficients are parameterized only for the earliest
//    parameterized query (whose inputs are provably concrete), keeping
//    the encoding linear.
#ifndef QFIX_QFIX_ENCODER_H_
#define QFIX_QFIX_ENCODER_H_

#include <cstdint>
#include <vector>

#include "common/attr_set.h"
#include "common/result.h"
#include "milp/model.h"
#include "provenance/complaint.h"
#include "relational/database.h"
#include "relational/query.h"

namespace qfix {
namespace qfixcore {

struct EncoderOptions {
  /// Bound on |attribute value| used for variable bounds and big-M
  /// derivation. 0 = derive automatically from the data and log.
  double value_bound = 0.0;
  /// Margin enforcing strict inequalities (x < c becomes x <= c - eps).
  /// 0 = auto: 0.5 when all data and constants are integral, else 1e-4.
  double epsilon = 0.0;
  /// Allow repairing multiplicative coefficients (SET a = a * ?) where
  /// the encoding stays linear.
  bool parameterize_coefficients = true;
  /// Partial evaluation: fold query arithmetic over constant inputs
  /// instead of emitting Eq. (1)-(6) constraints for them. Disabling
  /// reproduces the paper's raw encoding (every constant-input cell of
  /// an encoded query becomes a pinned model variable), which is what
  /// the basic algorithm's Figure 4 cost profile reflects; the
  /// abl_partial_eval bench measures the difference.
  bool fold_constants = true;
  /// Weight of the Manhattan parameter-distance objective.
  double param_distance_weight = 1.0;
  /// Weight of the matched-soft-tuple objective (refinement step, §5.1).
  double soft_match_weight = 0.0;
};

/// Maps one repairable query constant to its MILP variable.
struct ParamVarInfo {
  size_t query_index;
  relational::ParamRef ref;
  milp::VarId var;
  double original;
};

/// The match indicator of a parameterized query on an encoded tuple;
/// the refinement step minimizes these over non-complaint tuples.
struct MatchVarInfo {
  size_t query_index;
  int64_t tid;
  milp::VarId var;
};

/// The encoder's output: the MILP plus the bookkeeping needed to read a
/// repaired log back out of a solution.
struct EncodedProblem {
  milp::Model model;
  std::vector<ParamVarInfo> params;
  std::vector<MatchVarInfo> match_vars;
  size_t num_encoded_tuples = 0;
  size_t num_encoded_queries = 0;
  /// Effective constants used by the encoding (useful for diagnostics).
  double value_bound = 0.0;
  double epsilon = 0.0;
};

/// The encoder's constants that no attempt changes. They depend on the
/// instance (log, D0, D_n, complaint targets) and on the options'
/// value_bound/epsilon overrides, never on which queries a request
/// parameterizes, encodes or slices away, so one context serves every
/// attempt and refinement round over the same instance.
struct EncodingContext {
  /// Box of every value variable and the base of the big-M constants.
  double value_bound = 0.0;
  /// Minimum half-width of a parameter variable's box around its
  /// original value.
  double param_bound = 0.0;
  /// Margin that turns strict comparisons into non-strict ones.
  double epsilon = 0.0;
  /// Per query: the tid its INSERT creates, or -1. Mirrors the executor:
  /// D0's slots first, then one tid per INSERT in log order.
  std::vector<int64_t> insert_tid;
};

/// Scans D0, D_n, the complaint targets and every query constant once:
/// value_bound = 4 * max|v| + 100 and epsilon = 0.5 on integral data
/// (else 1e-4), unless `options` overrides them; param_bound =
/// 2 * max|v| + 100.
EncodingContext DeriveEncodingContext(
    const relational::QueryLog& log, const relational::Database& d0,
    const relational::Database& dirty_dn,
    const provenance::ComplaintSet& complaints, const EncoderOptions& options);

/// What to encode. All pointers must outlive the call.
struct EncodeRequest {
  const relational::QueryLog* log = nullptr;
  const relational::Database* d0 = nullptr;
  /// The observed (dirty) final state D_n = Q(D_0).
  const relational::Database* dirty_dn = nullptr;
  const provenance::ComplaintSet* complaints = nullptr;

  /// Slots (tids) to encode. Tuple slicing passes the complaint tids;
  /// the basic algorithm passes every slot of dirty_dn.
  std::vector<size_t> tuple_slots;
  /// Per-query: expose this query's constants as repairable variables.
  std::vector<bool> parameterized;
  /// Per-query: emit constraints for this query. Non-encoded queries are
  /// partially evaluated on constant inputs (query slicing, §5.2); when
  /// their inputs are symbolic their written cells become unconstrained
  /// ("chain break"), which is sound because query slicing guarantees
  /// such attributes are disjoint from the complaint attributes.
  std::vector<bool> encoded;
  /// Attribute slicing (§5.3): when non-null, only these attributes get
  /// variables and output constraints. Must cover every attribute read
  /// or written by an encoded query, and all complaint attributes.
  const AttrSet* attr_filter = nullptr;
  /// Subset of tuple_slots with *soft* outputs (the refinement step's
  /// NC set): no D_n equality constraints; instead their match variables
  /// are penalized via EncoderOptions::soft_match_weight.
  std::vector<size_t> soft_slots;

  /// Incremental ingest (src/ingest): reuse the replayed state of the
  /// unchanged log prefix instead of re-walking it. When prefix_len >
  /// 0, tuples are initialized from `prefix_state` (the executor state
  /// after log[0, prefix_len)) and the per-tuple query walk starts at
  /// prefix_len. Sound exactly when no query in the prefix is
  /// parameterized and constant folding is on: every prefix cell is
  /// then a plain constant and the encoder's fold of the prefix IS the
  /// executor's replay, so skipping it changes nothing in the model.
  /// Both are validated. `prefix_state` must outlive the call.
  const relational::Database* prefix_state = nullptr;
  size_t prefix_len = 0;

  /// The attempt-invariant constants, derived once by a caller that
  /// encodes the same instance many times (QFixEngine derives it when it
  /// is constructed and hands it to every attempt and refinement round).
  /// It must come from DeriveEncodingContext over this request's log,
  /// d0, dirty_dn, complaints and options; only its insert-tid map's
  /// length is checked. Null: Encode derives it from the request, which
  /// scans every tuple and query constant. Must outlive the call.
  const EncodingContext* context = nullptr;

  EncoderOptions options;
};

/// Builds the MILP. Returns Infeasible when partial evaluation already
/// proves no assignment of the parameterized queries can satisfy the
/// complaints (e.g. a complaint on a constant-valued cell).
Result<EncodedProblem> Encode(const EncodeRequest& request);

/// Writes the solved parameter values back into a copy of the log
/// (ConvertQLog, Alg. 1 line 13).
relational::QueryLog ConvertQLog(const relational::QueryLog& log,
                                 const EncodedProblem& problem,
                                 const std::vector<double>& solution);

}  // namespace qfixcore
}  // namespace qfix

#endif  // QFIX_QFIX_ENCODER_H_
