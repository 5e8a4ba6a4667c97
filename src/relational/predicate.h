// WHERE-clause predicates: AND/OR trees of linear comparisons.
//
// This models the paper's conditional function sigma_q(t): conjunctions
// and disjunctions of predicates whose sides are linear combinations of
// constants and attributes (§3, problem scope).
#ifndef QFIX_RELATIONAL_PREDICATE_H_
#define QFIX_RELATIONAL_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/attr_set.h"
#include "relational/linear_expr.h"

namespace qfix {
namespace relational {

class Schema;

enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNeq };

const char* CmpOpToString(CmpOp op);

/// `lhs <op> rhs`: the one comparison the executor (Comparison::Eval)
/// and the encoder's constant fold both decide with.
bool Compare(double lhs, CmpOp op, double rhs);

/// One atomic comparison, normalized to `lhs <op> rhs_const`.
///
/// The right-hand constant is the atom's repairable parameter (the digit-
/// transposed 85700 of the running example lives here). Constants folded
/// into the lhs are structural and are not repaired.
struct Comparison {
  LinearExpr lhs;
  CmpOp op = CmpOp::kLe;
  double rhs = 0.0;

  bool Eval(const std::vector<double>& values) const;
};

/// A boolean combination of comparisons.
class Predicate {
 public:
  enum class Kind { kTrue, kComparison, kAnd, kOr };

  /// The always-true predicate (UPDATE/DELETE without WHERE).
  Predicate() : kind_(Kind::kTrue) {}

  static Predicate True() { return Predicate(); }
  static Predicate Atom(Comparison cmp);
  static Predicate And(std::vector<Predicate> children);
  static Predicate Or(std::vector<Predicate> children);

  /// Convenience for the common single-range case `lo <= attr <= hi`.
  static Predicate Between(size_t attr, double lo, double hi);

  Kind kind() const { return kind_; }
  bool IsTrue() const { return kind_ == Kind::kTrue; }

  const Comparison& comparison() const;
  Comparison& mutable_comparison();
  const std::vector<Predicate>& children() const { return children_; }
  std::vector<Predicate>& mutable_children() { return children_; }

  /// Evaluates sigma(t) over a tuple's attribute values.
  bool Eval(const std::vector<double>& values) const;

  /// All attributes read anywhere in the tree.
  AttrSet ReadSet(size_t num_attrs) const;

  /// Number of comparison atoms in the tree.
  size_t NumAtoms() const;

  /// Applies `fn` to every comparison atom (mutable), in a deterministic
  /// left-to-right order. Used for parameter collection and repair.
  template <typename Fn>
  void VisitComparisons(Fn&& fn) {
    if (kind_ == Kind::kComparison) {
      fn(cmp_);
      return;
    }
    for (Predicate& c : children_) c.VisitComparisons(fn);
  }
  template <typename Fn>
  void VisitComparisons(Fn&& fn) const {
    if (kind_ == Kind::kComparison) {
      fn(cmp_);
      return;
    }
    for (const Predicate& c : children_) c.VisitComparisons(fn);
  }

  /// Renders SQL, e.g. "income >= 85700 AND (a1 = 3 OR a2 <= 7)".
  std::string ToString(const Schema& schema) const;

 private:
  Kind kind_;
  Comparison cmp_;                  // kComparison only
  std::vector<Predicate> children_; // kAnd / kOr only
};

}  // namespace relational
}  // namespace qfix

#endif  // QFIX_RELATIONAL_PREDICATE_H_
