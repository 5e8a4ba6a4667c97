#include "qfix/encoder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "common/logging.h"
#include "common/strings.h"

namespace qfix {
namespace qfixcore {
namespace {

using milp::LinearTerms;
using milp::Model;
using milp::Sense;
using milp::VarId;
using relational::CmpOp;
using relational::Comparison;
using relational::LinearExpr;
using relational::ParamRef;
using relational::Predicate;
using relational::Query;
using relational::QueryLog;
using relational::QueryType;
using relational::SetClause;

/// A tuple-cell value: an affine expression over model variables.
/// terms empty => constant. known == false => the cell's value depends on
/// queries that were sliced away; it must not be read by encoded queries
/// and is never constrained ("chain break", see encoder.h).
struct Affine {
  LinearTerms terms;
  double constant = 0.0;
  bool known = true;

  bool IsConst() const { return known && terms.empty(); }
  static Affine Const(double v) { return Affine{{}, v, true}; }
  static Affine Unknown() { return Affine{{}, 0.0, false}; }
};

/// A boolean value: either a folded constant or a binary model variable.
struct BoolVal {
  bool is_const = true;
  bool value = false;
  VarId var = -1;
  bool known = true;

  static BoolVal Const(bool v) { return BoolVal{true, v, -1, true}; }
  static BoolVal Var(VarId v) { return BoolVal{false, false, v, true}; }
  static BoolVal Unknown() { return BoolVal{true, false, -1, false}; }
};

/// Key identifying one parameter variable: (query, kind, index, term).
using ParamKey = std::tuple<size_t, int, size_t, size_t>;

ParamKey MakeKey(size_t query, const ParamRef& ref) {
  return {query, static_cast<int>(ref.kind), ref.index, ref.term};
}

class Encoder {
 public:
  explicit Encoder(const EncodeRequest& req) : req_(req) {}

  Result<EncodedProblem> Run() {
    QFIX_RETURN_IF_ERROR(Validate());
    UseContext();

    std::vector<size_t> slots = req_.tuple_slots;
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    soft_set_.insert(req_.soft_slots.begin(), req_.soft_slots.end());

    for (size_t slot : slots) {
      QFIX_RETURN_IF_ERROR(EncodeTuple(slot));
    }

    out_.num_encoded_tuples = slots.size();
    for (size_t i = 0; i < req_.log->size(); ++i) {
      if (req_.encoded[i]) ++out_.num_encoded_queries;
    }
    out_.model = std::move(model_);
    return std::move(out_);
  }

 private:
  Status Validate() {
    if (req_.log == nullptr || req_.d0 == nullptr ||
        req_.dirty_dn == nullptr || req_.complaints == nullptr) {
      return Status::InvalidArgument("EncodeRequest has null inputs");
    }
    const size_t n = req_.log->size();
    if (req_.parameterized.size() != n || req_.encoded.size() != n) {
      return Status::InvalidArgument(
          "parameterized/encoded flag vectors must match the log size");
    }
    for (size_t i = 0; i < n; ++i) {
      if (req_.parameterized[i] && !req_.encoded[i]) {
        return Status::InvalidArgument(
            "a parameterized query must also be encoded");
      }
    }
    num_attrs_ = req_.d0->schema().num_attrs();
    if (req_.attr_filter != nullptr &&
        req_.attr_filter->capacity() != num_attrs_) {
      return Status::InvalidArgument("attr_filter capacity mismatch");
    }
    if (req_.context != nullptr && req_.context->insert_tid.size() != n) {
      return Status::InvalidArgument(
          "encoding context was derived for another log");
    }
    for (size_t slot : req_.tuple_slots) {
      if (slot >= req_.dirty_dn->NumSlots()) {
        return Status::InvalidArgument("tuple slot beyond final state");
      }
    }
    if (req_.prefix_len > 0) {
      if (req_.prefix_state == nullptr) {
        return Status::InvalidArgument("prefix_len set without prefix_state");
      }
      if (req_.prefix_len > n) {
        return Status::InvalidArgument("prefix_len beyond the log");
      }
      if (!req_.options.fold_constants) {
        // Without folding even unparameterized prefix queries emit
        // pinned-variable constraints, so skipping them changes the
        // model; the prefix shortcut is only equivalent under folding.
        return Status::InvalidArgument(
            "prefix reuse requires fold_constants");
      }
      for (size_t i = 0; i < req_.prefix_len; ++i) {
        if (req_.parameterized[i]) {
          return Status::InvalidArgument(
              "prefix covers a parameterized query");
        }
      }
      if (req_.prefix_state->schema().num_attrs() != num_attrs_) {
        return Status::InvalidArgument("prefix state schema mismatch");
      }
      size_t prefix_inserts = 0;
      for (size_t i = 0; i < req_.prefix_len; ++i) {
        if ((*req_.log)[i].type() == relational::QueryType::kInsert) {
          ++prefix_inserts;
        }
      }
      if (req_.prefix_state->NumSlots() !=
          req_.d0->NumSlots() + prefix_inserts) {
        return Status::InvalidArgument(
            "prefix state slot count does not match the prefix replay");
      }
    }
    return Status::OK();
  }

  // Takes the attempt-invariant constants from the request's context,
  // deriving them first when it has none.
  void UseContext() {
    if (req_.context == nullptr) {
      derived_ = DeriveEncodingContext(*req_.log, *req_.d0, *req_.dirty_dn,
                                       *req_.complaints, req_.options);
    }
    const EncodingContext& ctx =
        req_.context != nullptr ? *req_.context : derived_;
    value_bound_ = ctx.value_bound;
    param_bound_ = ctx.param_bound;
    epsilon_ = ctx.epsilon;
    insert_tid_ = &ctx.insert_tid;
    out_.value_bound = value_bound_;
    out_.epsilon = epsilon_;

    for (size_t i = 0; i < req_.log->size(); ++i) {
      if (req_.parameterized[i]) {
        first_param_idx_ = std::min(first_param_idx_, i);
      }
    }
  }

  bool AttrEncodable(size_t attr) const {
    return req_.attr_filter == nullptr || req_.attr_filter->Contains(attr);
  }

  double ActivityBound(const Affine& a) const {
    double b = std::fabs(a.constant);
    for (const auto& t : a.terms) {
      double vb = std::max(std::fabs(model_.lb(t.var)),
                           std::fabs(model_.ub(t.var)));
      b += std::fabs(t.coeff) * vb;
    }
    return b;
  }

  VarId NewValueVar(const char* tag) {
    return model_.AddContinuous(-value_bound_, value_bound_,
                                StringPrintf("%s%d", tag, next_id_++));
  }
  VarId NewBinary(const char* tag) {
    return model_.AddBinary(StringPrintf("%s%d", tag, next_id_++));
  }

  // ---- parameters ----

  VarId ParamVar(size_t query_idx, const ParamRef& ref, double original) {
    ParamKey key = MakeKey(query_idx, ref);
    auto it = param_index_.find(key);
    if (it != param_index_.end()) return out_.params[it->second].var;

    // Bound the parameter around its original value. Multiplicative
    // coefficients are rate-like (0.3, 1.0, ...); giving them the full
    // value domain would blow up the big-M constants (coeff * value) and
    // with them the solver's numerical headroom.
    double span = ref.kind == ParamRef::Kind::kSetCoeff
                      ? 2.0 * std::fabs(original) + 5.0
                      : std::max(param_bound_,
                                 2.0 * std::fabs(original) + 10.0);
    // The deviation pair shares p's id, so every name stays unique and
    // valid in the LP and MPS exports.
    const int id = next_id_++;
    VarId p = model_.AddContinuous(original - span, original + span,
                                   StringPrintf("p_q%zu_%d", query_idx, id));
    // Split deviation: p = original + dp - dm, objective |p - original|.
    VarId dp = model_.AddContinuous(
        0.0, span, StringPrintf("dp_q%zu_%d", query_idx, id));
    VarId dm = model_.AddContinuous(
        0.0, span, StringPrintf("dm_q%zu_%d", query_idx, id));
    model_.AddConstraint({{p, 1.0}, {dp, -1.0}, {dm, 1.0}}, Sense::kEq,
                         original);
    model_.AddObjectiveTerm(dp, req_.options.param_distance_weight);
    model_.AddObjectiveTerm(dm, req_.options.param_distance_weight);

    param_index_[key] = out_.params.size();
    out_.params.push_back(ParamVarInfo{query_idx, ref, p, original});
    return p;
  }

  bool CoefficientsParameterizable(size_t query_idx) const {
    // Requires concrete inputs: only the earliest parameterized query
    // qualifies, and only when folding is on (raw emission pins even
    // constant cells behind model variables, making coeff * cell
    // bilinear).
    return req_.options.parameterize_coefficients &&
           req_.options.fold_constants && query_idx == first_param_idx_;
  }

  // ---- boolean combinators ----

  BoolVal EncodeNot(BoolVal a) {
    if (!a.known) return BoolVal::Unknown();
    if (a.is_const) return BoolVal::Const(!a.value);
    VarId z = NewBinary("not");
    model_.AddConstraint({{z, 1.0}, {a.var, 1.0}}, Sense::kEq, 1.0);
    return BoolVal::Var(z);
  }

  BoolVal EncodeNary(const std::vector<BoolVal>& children, bool is_and) {
    std::vector<VarId> vars;
    for (const BoolVal& c : children) {
      if (!c.known) return BoolVal::Unknown();
      if (c.is_const) {
        if (is_and && !c.value) return BoolVal::Const(false);
        if (!is_and && c.value) return BoolVal::Const(true);
        continue;  // neutral element
      }
      vars.push_back(c.var);
    }
    if (vars.empty()) return BoolVal::Const(is_and);
    if (vars.size() == 1) return BoolVal::Var(vars[0]);

    VarId z = NewBinary(is_and ? "and" : "or");
    LinearTerms sum{{z, 1.0}};
    for (VarId v : vars) {
      if (is_and) {
        model_.AddConstraint({{z, 1.0}, {v, -1.0}}, Sense::kLe, 0.0);
      } else {
        model_.AddConstraint({{z, 1.0}, {v, -1.0}}, Sense::kGe, 0.0);
      }
      sum.push_back({v, -1.0});
    }
    if (is_and) {
      // z >= sum(v) - (k - 1):  z - sum(v) >= -(k - 1)
      model_.AddConstraint(std::move(sum), Sense::kGe,
                           -(static_cast<double>(vars.size()) - 1.0));
    } else {
      // z <= sum(v):  z - sum(v) <= 0
      model_.AddConstraint(std::move(sum), Sense::kLe, 0.0);
    }
    return BoolVal::Var(z);
  }

  BoolVal EncodeAndPair(const BoolVal& a, const BoolVal& b) {
    return EncodeNary({a, b}, /*is_and=*/true);
  }

  // ---- predicate encoding ----

  /// Indicator binary z for `g <op> 0` where g is symbolic (Eq. 1).
  BoolVal MakeIndicator(const Affine& g, CmpOp op) {
    QFIX_CHECK(g.known);
    const double mg = ActivityBound(g) + epsilon_ + 1.0;
    VarId z = NewBinary("x");

    auto row = [&](double z_coeff, Sense sense, double rhs_shift) {
      LinearTerms terms = g.terms;
      terms.push_back({z, z_coeff});
      model_.AddConstraint(std::move(terms), sense, rhs_shift - g.constant);
    };

    switch (op) {
      case CmpOp::kGe:
        row(-mg, Sense::kGe, -mg);        // z=1 -> g >= 0
        row(-mg, Sense::kLe, -epsilon_);  // z=0 -> g <= -eps
        break;
      case CmpOp::kGt:
        row(-mg, Sense::kGe, epsilon_ - mg);  // z=1 -> g >= eps
        row(-mg, Sense::kLe, 0.0);            // z=0 -> g <= 0
        break;
      case CmpOp::kLe:
        row(mg, Sense::kLe, mg);        // z=1 -> g <= 0
        row(mg, Sense::kGe, epsilon_);  // z=0 -> g >= eps
        break;
      case CmpOp::kLt:
        row(mg, Sense::kLe, mg - epsilon_);  // z=1 -> g <= -eps
        row(mg, Sense::kGe, 0.0);            // z=0 -> g >= 0
        break;
      case CmpOp::kEq: {
        row(mg, Sense::kLe, mg);    // z=1 -> g <= 0
        row(-mg, Sense::kGe, -mg);  // z=1 -> g >= 0
        // z=0 -> (g >= eps or g <= -eps), chosen by side binary d.
        VarId d = NewBinary("side");
        LinearTerms lo = g.terms;
        lo.push_back({z, mg});
        lo.push_back({d, mg});
        model_.AddConstraint(std::move(lo), Sense::kGe,
                             epsilon_ - g.constant);  // z=0,d=0 -> g >= eps
        LinearTerms hi = g.terms;
        hi.push_back({z, -mg});
        hi.push_back({d, mg});
        model_.AddConstraint(std::move(hi), Sense::kLe,
                             mg - epsilon_ - g.constant);  // z=0,d=1 -> g<=-eps
        break;
      }
      case CmpOp::kNeq: {
        return EncodeNot(MakeIndicator(g, CmpOp::kEq));
      }
    }
    return BoolVal::Var(z);
  }

  Result<BoolVal> EncodeComparison(size_t query_idx, size_t atom_idx,
                                   const Comparison& cmp,
                                   const std::vector<Affine>& cells) {
    // g = lhs(cells) - rhs. Symbolic if any read cell is symbolic or the
    // rhs is parameterized. `lhs` sums the constant parts in the
    // executor's order (LinearExpr::Eval), so that a fully constant
    // comparison folds to exactly the executor's decision.
    Affine g;
    g.constant = cmp.lhs.constant() - cmp.rhs;
    double lhs = cmp.lhs.constant();
    for (const auto& term : cmp.lhs.terms()) {
      const Affine& cell = cells[term.attr];
      if (!cell.known) {
        return Status::Internal(
            "encoded query reads a cell whose provenance was sliced away");
      }
      g.constant += term.coeff * cell.constant;
      lhs += term.coeff * cell.constant;
      for (const auto& ct : cell.terms) {
        g.terms.push_back({ct.var, term.coeff * ct.coeff});
      }
    }
    if (req_.parameterized[query_idx]) {
      ParamRef ref{ParamRef::Kind::kWhereRhs, atom_idx, 0};
      VarId p = ParamVar(query_idx, ref, cmp.rhs);
      g.terms.push_back({p, -1.0});
      g.constant += cmp.rhs;  // replace the folded constant by the variable
    }

    if (g.terms.empty()) {
      return BoolVal::Const(relational::Compare(lhs, cmp.op, cmp.rhs));
    }
    return MakeIndicator(g, cmp.op);
  }

  /// Encodes sigma_q(t), numbering atoms in Query::Params() visit order.
  Result<BoolVal> EncodePredicateTree(size_t query_idx,
                                      const Predicate& pred,
                                      const std::vector<Affine>& cells,
                                      size_t* atom_counter) {
    switch (pred.kind()) {
      case Predicate::Kind::kTrue:
        return BoolVal::Const(true);
      case Predicate::Kind::kComparison: {
        size_t atom = (*atom_counter)++;
        return EncodeComparison(query_idx, atom, pred.comparison(), cells);
      }
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr: {
        std::vector<BoolVal> children;
        children.reserve(pred.children().size());
        for (const Predicate& c : pred.children()) {
          QFIX_ASSIGN_OR_RETURN(
              BoolVal b,
              EncodePredicateTree(query_idx, c, cells, atom_counter));
          children.push_back(b);
        }
        return EncodeNary(children,
                          pred.kind() == Predicate::Kind::kAnd);
      }
    }
    return Status::Internal("unknown predicate kind");
  }

  // ---- SET expression evaluation ----

  Result<Affine> EvalSetExpr(size_t query_idx, size_t clause_idx,
                             const SetClause& clause,
                             const std::vector<Affine>& cells) {
    const bool parameterized = req_.parameterized[query_idx];
    Affine out;
    // Additive constant: repairable whenever the query is parameterized.
    if (parameterized) {
      ParamRef ref{ParamRef::Kind::kSetConstant, clause_idx, 0};
      out.terms.push_back(
          {ParamVar(query_idx, ref, clause.expr.constant()), 1.0});
    } else {
      out.constant = clause.expr.constant();
    }
    const auto& terms = clause.expr.terms();
    for (size_t t = 0; t < terms.size(); ++t) {
      const Affine& cell = cells[terms[t].attr];
      if (!cell.known) return Affine::Unknown();
      if (parameterized && CoefficientsParameterizable(query_idx)) {
        // Inputs of the earliest parameterized query are concrete, so
        // coeff * value stays linear with the coefficient as variable.
        QFIX_CHECK(cell.IsConst())
            << "first parameterized query read a symbolic cell";
        ParamRef ref{ParamRef::Kind::kSetCoeff, clause_idx, t};
        VarId cv = ParamVar(query_idx, ref, terms[t].coeff);
        out.terms.push_back({cv, cell.constant});
      } else {
        out.constant += terms[t].coeff * cell.constant;
        for (const auto& ct : cell.terms) {
          out.terms.push_back({ct.var, terms[t].coeff * ct.coeff});
        }
      }
    }
    return out;
  }

  /// Big-M conditional write (Eq. 2-4 with u/v eliminated):
  /// m=1 -> out = updated, m=0 -> out = old.
  Affine ConditionalCell(const BoolVal& m, const Affine& updated,
                         const Affine& old) {
    QFIX_CHECK(!m.is_const) << "ConditionalCell requires a symbolic match";
    if (!updated.known || !old.known) return Affine::Unknown();
    VarId out = NewValueVar("v");
    const double m_new = ActivityBound(updated) + value_bound_ + 1.0;
    const double m_old = ActivityBound(old) + value_bound_ + 1.0;

    auto row = [&](const Affine& side, double big_m, bool active_when_one) {
      // active_when_one: rows binding when m = 1 (new value), relaxed by
      // big_m * (1 - m); otherwise binding when m = 0, relaxed by big_m*m.
      // out - side <= slack  and  out - side >= -slack.
      for (int dir = 0; dir < 2; ++dir) {
        LinearTerms terms{{out, dir == 0 ? 1.0 : -1.0}};
        for (const auto& t : side.terms) {
          terms.push_back({t.var, dir == 0 ? -t.coeff : t.coeff});
        }
        double rhs = dir == 0 ? side.constant : -side.constant;
        if (active_when_one) {
          // slack = big_m * (1 - m): terms + big_m * m <= rhs + big_m
          terms.push_back({m.var, big_m});
          model_.AddConstraint(std::move(terms), Sense::kLe, rhs + big_m);
        } else {
          // slack = big_m * m: terms - big_m * m <= rhs
          terms.push_back({m.var, -big_m});
          model_.AddConstraint(std::move(terms), Sense::kLe, rhs);
        }
      }
    };
    row(updated, m_new, /*active_when_one=*/true);
    row(old, m_old, /*active_when_one=*/false);

    Affine cell;
    cell.terms.push_back({out, 1.0});
    return cell;
  }

  /// Materializes an affine as a single variable when needed (e.g. for
  /// an equality output constraint on a multi-term expression we can
  /// just emit the row directly, so this is rarely required).
  void AddEqualityRow(const Affine& a, double target) {
    LinearTerms terms = a.terms;
    model_.AddConstraint(std::move(terms), Sense::kEq, target - a.constant);
  }

  // ---- per-tuple encoding ----

  /// fold_constants == false: replace every constant-valued encodable
  /// cell by a fresh model variable pinned with an equality row, so the
  /// subsequent query encoding emits its full constraint set instead of
  /// folding (the raw Eq. (1)-(6) emission of the basic algorithm).
  void MaterializeConstants(std::vector<Affine>& cells) {
    for (size_t a = 0; a < num_attrs_; ++a) {
      if (!AttrEncodable(a)) continue;
      if (!cells[a].known || !cells[a].IsConst()) continue;
      double c = cells[a].constant;
      // Widen the box when folding has produced a value outside the
      // derived domain (compounded relative updates can overshoot).
      VarId v = model_.AddContinuous(std::min(-value_bound_, c),
                                     std::max(value_bound_, c),
                                     StringPrintf("cell%d", next_id_++));
      model_.AddConstraint({{v, 1.0}}, Sense::kEq, c);
      cells[a] = Affine{{{v, 1.0}}, 0.0, true};
    }
  }

  Status EncodeTuple(size_t slot) {
    const QueryLog& log = *req_.log;
    const int64_t tid = static_cast<int64_t>(slot);

    std::vector<Affine> cells(num_attrs_, Affine::Const(0.0));
    BoolVal alive = BoolVal::Const(true);
    // With a prefix, the starting point is the replayed prefix state
    // (which already accounts for prefix INSERTs/DELETEs) and the walk
    // begins at the first post-prefix query.
    const relational::Database* init_db =
        req_.prefix_len > 0 ? req_.prefix_state : req_.d0;
    bool exists = tid < static_cast<int64_t>(init_db->NumSlots());
    bool broken = false;  // a sliced-away DELETE made liveness unknown

    if (exists) {
      const relational::Tuple& t0 = init_db->slot(slot);
      alive = BoolVal::Const(t0.alive);
      for (size_t a = 0; a < num_attrs_; ++a) {
        cells[a] = Affine::Const(t0.values[a]);
      }
    }

    for (size_t qi = req_.prefix_len; qi < log.size() && !broken; ++qi) {
      const Query& q = log[qi];
      const bool enc = req_.encoded[qi];

      if (q.type() == QueryType::kInsert) {
        if ((*insert_tid_)[qi] != tid) continue;
        QFIX_CHECK(!exists) << "duplicate insert for tid " << tid;
        exists = true;
        alive = BoolVal::Const(true);
        if (enc && req_.parameterized[qi]) {
          for (size_t a = 0; a < num_attrs_; ++a) {
            QFIX_CHECK(AttrEncodable(a))
                << "parameterized INSERT requires all attributes encoded";
            ParamRef ref{ParamRef::Kind::kInsertValue, a, 0};
            VarId p = ParamVar(qi, ref, q.insert_values()[a]);
            cells[a] = Affine{{{p, 1.0}}, 0.0, true};
          }
        } else {
          for (size_t a = 0; a < num_attrs_; ++a) {
            cells[a] = Affine::Const(q.insert_values()[a]);
          }
        }
        continue;
      }

      if (!exists) continue;

      if (enc) {
        if (!req_.options.fold_constants) MaterializeConstants(cells);
        size_t atom_counter = 0;
        QFIX_ASSIGN_OR_RETURN(
            BoolVal sigma,
            EncodePredicateTree(qi, q.where(), cells, &atom_counter));
        BoolVal match = EncodeAndPair(alive, sigma);

        if (req_.parameterized[qi] && !match.is_const) {
          out_.match_vars.push_back(MatchVarInfo{qi, tid, match.var});
        }

        if (q.type() == QueryType::kDelete) {
          if (match.is_const) {
            if (match.value) alive = BoolVal::Const(false);
          } else if (alive.is_const) {
            QFIX_CHECK(alive.value);  // match symbolic implies alive
            alive = EncodeNot(match);
          } else {
            // alive' = alive - match (0/1 arithmetic of alive AND NOT m).
            VarId next = NewBinary("alive");
            model_.AddConstraint(
                {{next, 1.0}, {alive.var, -1.0}, {match.var, 1.0}},
                Sense::kEq, 0.0);
            alive = BoolVal::Var(next);
          }
          continue;
        }

        // UPDATE: evaluate all SET expressions against pre-update cells.
        if (match.is_const && !match.value) continue;
        std::vector<std::pair<size_t, Affine>> writes;
        for (size_t ci = 0; ci < q.set_clauses().size(); ++ci) {
          const SetClause& sc = q.set_clauses()[ci];
          if (!req_.parameterized[qi] && sc.expr.IsIdentityOf(sc.attr)) {
            continue;  // SET a = a: provably a no-op
          }
          QFIX_CHECK(AttrEncodable(sc.attr))
              << "encoded query writes non-encoded attribute " << sc.attr;
          QFIX_ASSIGN_OR_RETURN(Affine updated,
                                EvalSetExpr(qi, ci, sc, cells));
          if (match.is_const) {
            writes.emplace_back(sc.attr, std::move(updated));
          } else {
            writes.emplace_back(
                sc.attr, ConditionalCell(match, updated, cells[sc.attr]));
          }
        }
        for (auto& [attr, cell] : writes) cells[attr] = std::move(cell);
        continue;
      }

      // Query sliced away: partially evaluate on constant inputs.
      bool sigma_const_known = true;
      bool sigma_value = false;
      if (alive.is_const && !alive.value) {
        sigma_value = false;  // dead tuples match nothing
      } else {
        // Evaluate the predicate only if every read cell is a known
        // constant (and liveness is concrete).
        bool readable = alive.is_const;
        AttrSet reads = q.where().ReadSet(num_attrs_);
        for (size_t a : reads.ToVector()) {
          readable = readable && cells[a].IsConst();
        }
        if (readable) {
          std::vector<double> values(num_attrs_, 0.0);
          for (size_t a : reads.ToVector()) values[a] = cells[a].constant;
          sigma_value = q.where().Eval(values);
        } else {
          sigma_const_known = false;
        }
      }

      if (q.type() == QueryType::kDelete) {
        if (!sigma_const_known) {
          // A sliced DELETE with symbolic inputs severs the whole chain;
          // slicing theory guarantees this tuple carries no complaint
          // attribute, so it is safe to stop constraining it.
          broken = true;
          continue;
        }
        if (sigma_value) alive = BoolVal::Const(false);
        continue;
      }

      // UPDATE (sliced).
      if (!sigma_const_known) {
        for (const SetClause& sc : q.set_clauses()) {
          cells[sc.attr] = Affine::Unknown();
        }
        continue;
      }
      if (!sigma_value) continue;
      std::vector<std::pair<size_t, Affine>> writes;
      for (const SetClause& sc : q.set_clauses()) {
        bool const_inputs = true;
        for (const auto& term : sc.expr.terms()) {
          const_inputs = const_inputs && cells[term.attr].IsConst();
        }
        if (!const_inputs) {
          writes.emplace_back(sc.attr, Affine::Unknown());
          continue;
        }
        double v = sc.expr.constant();
        for (const auto& term : sc.expr.terms()) {
          v += term.coeff * cells[term.attr].constant;
        }
        writes.emplace_back(sc.attr, Affine::Const(v));
      }
      for (auto& [attr, cell] : writes) cells[attr] = std::move(cell);
    }

    return ConstrainOutput(slot, cells, alive, broken);
  }

  // Refinement step (§5.1 step 2): a soft tuple's outputs are tied to the
  // observed dirty state through a per-tuple deviation binary. dev = 0
  // forces the tuple to keep its dirty values; dev = 1 (cost
  // soft_match_weight) frees it. Minimizing deviations implements the
  // paper's "minimize the number of non-complaint tuples affected by the
  // repair" while still permitting unavoidable side effects.
  void ConstrainSoftOutput(size_t slot, const std::vector<Affine>& cells,
                           const BoolVal& alive) {
    const relational::Tuple& dirty = req_.dirty_dn->slot(slot);
    VarId dev = -1;
    auto dev_var = [&]() {
      if (dev < 0) {
        dev = NewBinary("dev");
        model_.AddObjectiveTerm(dev, req_.options.soft_match_weight);
      }
      return dev;
    };

    if (!alive.is_const) {
      if (dirty.alive) {
        // dead(final) => dev: alive + dev >= 1.
        model_.AddConstraint({{alive.var, 1.0}, {dev_var(), 1.0}},
                             Sense::kGe, 1.0);
      } else {
        // alive(final) => dev: alive - dev <= 0.
        model_.AddConstraint({{alive.var, 1.0}, {dev_var(), -1.0}},
                             Sense::kLe, 0.0);
      }
    }
    if (!dirty.alive) return;  // dirty-dead values are not comparable

    for (size_t a = 0; a < num_attrs_; ++a) {
      const Affine& cell = cells[a];
      if (!cell.known || cell.IsConst() || !AttrEncodable(a)) continue;
      double target = dirty.values[a];
      double mg = ActivityBound(cell) + std::fabs(target) + 1.0;
      // |cell - target| <= mg * dev.
      LinearTerms up = cell.terms;
      up.push_back({dev_var(), -mg});
      model_.AddConstraint(std::move(up), Sense::kLe,
                           target - cell.constant);
      LinearTerms down = cell.terms;
      down.push_back({dev_var(), mg});
      model_.AddConstraint(std::move(down), Sense::kGe,
                           target - cell.constant);
    }
  }

  // AssignVals (Alg. 1 line 6): pin final cells to the complaint target
  // (complaint tuples) or the observed dirty state (other hard tuples).
  Status ConstrainOutput(size_t slot, const std::vector<Affine>& cells,
                         const BoolVal& alive, bool tuple_broken) {
    if (soft_set_.count(slot) > 0) {
      if (!tuple_broken && req_.options.soft_match_weight > 0.0) {
        ConstrainSoftOutput(slot, cells, alive);
      }
      return Status::OK();
    }

    const relational::Tuple& dirty = req_.dirty_dn->slot(slot);
    const provenance::Complaint* complaint =
        req_.complaints->Find(static_cast<int64_t>(slot));

    const bool target_alive =
        complaint != nullptr ? complaint->target_alive : dirty.alive;
    const std::vector<double>& target_values =
        complaint != nullptr && complaint->target_alive
            ? complaint->target_values
            : dirty.values;

    if (tuple_broken) {
      if (complaint != nullptr) {
        return Status::Internal(
            "complaint tuple lost to slicing chain break");
      }
      return Status::OK();
    }

    // Liveness.
    if (alive.is_const) {
      if (alive.value != target_alive) {
        if (complaint != nullptr) {
          return Status::Infeasible(StringPrintf(
              "complaint on tuple %zu requires liveness %d but no "
              "parameterized query can change it",
              slot, target_alive ? 1 : 0));
        }
        return Status::Internal(
            "replay mismatch: encoded liveness disagrees with dirty state");
      }
    } else {
      model_.AddConstraint({{alive.var, 1.0}}, Sense::kEq,
                           target_alive ? 1.0 : 0.0);
    }
    if (!target_alive) return Status::OK();  // values of dead tuples free

    for (size_t a = 0; a < num_attrs_; ++a) {
      const Affine& cell = cells[a];
      const bool differs_from_dirty =
          complaint != nullptr &&
          (!dirty.alive || target_values[a] != dirty.values[a]);
      if (!cell.known) {
        if (differs_from_dirty) {
          return Status::Internal(
              "complaint attribute sliced away (filter too narrow)");
        }
        continue;
      }
      if (!AttrEncodable(a)) {
        if (differs_from_dirty) {
          return Status::Internal(
              "attr_filter does not cover a complaint attribute");
        }
        continue;
      }
      if (cell.IsConst()) {
        if (std::fabs(cell.constant - target_values[a]) > 1e-6) {
          if (complaint != nullptr) {
            return Status::Infeasible(StringPrintf(
                "complaint on tuple %zu attr %zu is out of reach of the "
                "parameterized queries",
                slot, a));
          }
          return Status::Internal(StringPrintf(
              "replay mismatch on tuple %zu attr %zu: %f vs %f", slot, a,
              cell.constant, target_values[a]));
        }
        continue;
      }
      AddEqualityRow(cell, target_values[a]);
    }
    return Status::OK();
  }

  const EncodeRequest& req_;
  Model model_;
  EncodedProblem out_;

  double value_bound_ = 0.0;
  double param_bound_ = 0.0;
  double epsilon_ = 0.0;
  size_t num_attrs_ = 0;
  size_t first_param_idx_ = SIZE_MAX;
  // Per query: tid created, or -1 (points into the context).
  const std::vector<int64_t>* insert_tid_ = nullptr;
  EncodingContext derived_;  // the context when the request carries none
  std::map<ParamKey, size_t> param_index_;  // -> index into out_.params
  std::set<size_t> soft_set_;
  int next_id_ = 0;
};

}  // namespace

EncodingContext DeriveEncodingContext(
    const QueryLog& log, const relational::Database& d0,
    const relational::Database& dirty_dn,
    const provenance::ComplaintSet& complaints, const EncoderOptions& options) {
  EncodingContext ctx;
  // Insert-tid assignment mirrors the executor: D0 slots first, then
  // one tid per INSERT in log order.
  ctx.insert_tid.assign(log.size(), -1);
  int64_t next_tid = static_cast<int64_t>(d0.NumSlots());
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i].type() == QueryType::kInsert) ctx.insert_tid[i] = next_tid++;
  }

  // Value bound and integrality scan over data, targets, and constants.
  double max_abs = 1.0;
  bool integral = true;
  auto feed = [&max_abs, &integral](double v) {
    max_abs = std::max(max_abs, std::fabs(v));
    integral = integral && (v == std::floor(v));
  };
  for (const auto& t : d0.tuples()) {
    for (double v : t.values) feed(v);
  }
  for (const auto& t : dirty_dn.tuples()) {
    for (double v : t.values) feed(v);
  }
  for (const auto& c : complaints.complaints()) {
    for (double v : c.target_values) feed(v);
  }
  for (const Query& q : log) {
    for (const ParamRef& ref : q.Params()) feed(q.GetParam(ref));
  }

  ctx.value_bound = options.value_bound > 0.0 ? options.value_bound
                                              : 4.0 * max_abs + 100.0;
  ctx.param_bound = 2.0 * max_abs + 100.0;
  ctx.epsilon =
      options.epsilon > 0.0 ? options.epsilon : (integral ? 0.5 : 1e-4);
  return ctx;
}

Result<EncodedProblem> Encode(const EncodeRequest& request) {
  Encoder encoder(request);
  return encoder.Run();
}

relational::QueryLog ConvertQLog(const relational::QueryLog& log,
                                 const EncodedProblem& problem,
                                 const std::vector<double>& solution) {
  relational::QueryLog repaired = log;
  for (const ParamVarInfo& p : problem.params) {
    QFIX_CHECK(p.query_index < repaired.size());
    QFIX_CHECK(static_cast<size_t>(p.var) < solution.size());
    repaired[p.query_index].SetParam(p.ref, solution[p.var]);
  }
  return repaired;
}

}  // namespace qfixcore
}  // namespace qfix
