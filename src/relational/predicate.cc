#include "relational/predicate.h"

#include "common/logging.h"
#include "common/strings.h"
#include "relational/schema.h"

namespace qfix {
namespace relational {

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNeq:
      return "<>";
  }
  return "?";
}

bool Compare(double lhs, CmpOp op, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNeq:
      return lhs != rhs;
  }
  return false;
}

bool Comparison::Eval(const std::vector<double>& values) const {
  return Compare(lhs.Eval(values), op, rhs);
}

Predicate Predicate::Atom(Comparison cmp) {
  Predicate p;
  p.kind_ = Kind::kComparison;
  p.cmp_ = std::move(cmp);
  return p;
}

Predicate Predicate::And(std::vector<Predicate> children) {
  QFIX_CHECK(!children.empty()) << "AND of zero predicates";
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind_ = Kind::kAnd;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Or(std::vector<Predicate> children) {
  QFIX_CHECK(!children.empty()) << "OR of zero predicates";
  if (children.size() == 1) return std::move(children[0]);
  Predicate p;
  p.kind_ = Kind::kOr;
  p.children_ = std::move(children);
  return p;
}

Predicate Predicate::Between(size_t attr, double lo, double hi) {
  return And({Atom({LinearExpr::Attr(attr), CmpOp::kGe, lo}),
              Atom({LinearExpr::Attr(attr), CmpOp::kLe, hi})});
}

const Comparison& Predicate::comparison() const {
  QFIX_CHECK(kind_ == Kind::kComparison);
  return cmp_;
}

Comparison& Predicate::mutable_comparison() {
  QFIX_CHECK(kind_ == Kind::kComparison);
  return cmp_;
}

bool Predicate::Eval(const std::vector<double>& values) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kComparison:
      return cmp_.Eval(values);
    case Kind::kAnd:
      for (const Predicate& c : children_) {
        if (!c.Eval(values)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Predicate& c : children_) {
        if (c.Eval(values)) return true;
      }
      return false;
  }
  return false;
}

AttrSet Predicate::ReadSet(size_t num_attrs) const {
  AttrSet s(num_attrs);
  VisitComparisons([&s, num_attrs](const Comparison& cmp) {
    s.UnionWith(cmp.lhs.ReadSet(num_attrs));
  });
  return s;
}

size_t Predicate::NumAtoms() const {
  size_t n = 0;
  VisitComparisons([&n](const Comparison&) { ++n; });
  return n;
}

std::string Predicate::ToString(const Schema& schema) const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kComparison:
      return cmp_.lhs.ToString(schema) + " " + CmpOpToString(cmp_.op) + " " +
             FormatNumber(cmp_.rhs);
    case Kind::kAnd:
    case Kind::kOr: {
      const char* sep = kind_ == Kind::kAnd ? " AND " : " OR ";
      std::vector<std::string> parts;
      for (const Predicate& c : children_) {
        // AND binds tighter than OR, so only an OR child under an AND
        // parent needs parentheses.
        bool needs_parens = kind_ == Kind::kAnd && c.kind() == Kind::kOr;
        parts.push_back(needs_parens ? "(" + c.ToString(schema) + ")"
                                     : c.ToString(schema));
      }
      return Join(parts, sep);
    }
  }
  return "?";
}

}  // namespace relational
}  // namespace qfix
