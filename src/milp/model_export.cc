#include "milp/model_export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace qfix {
namespace milp {

namespace {

// Where the LP writer wraps expression lines. The format caps physical
// lines at 510 characters; we stay far below.
constexpr size_t kWrapColumn = 72;

// True if `c` is allowed anywhere in an identifier: the conservative
// subset every LP and MPS reader accepts.
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// LP-format reserved words (section headers and the `free` and infinity
// bound tokens), lower-cased. The format is newline-insensitive, so a
// variable named "end" would terminate the file mid-expression.
bool IsReservedWord(const std::string& name) {
  static const char* const kReserved[] = {
      "minimize", "minimum", "min", "maximize", "maximum", "max",
      "subject",  "such",    "to",  "that",     "st",      "bounds",
      "bound",    "binaries", "binary", "bin",  "generals", "general",
      "gen",      "integers", "integer", "int", "end",      "free",
      "inf",      "infinity",
  };
  std::string lower = name;
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (const char* word : kReserved) {
    if (lower == word) return true;
  }
  return false;
}

// True if `name`, already mapped to the name charset, can be written
// verbatim: non-empty, no leading digit, not the start of a number in
// scientific notation ("e12"), and not a reserved word.
bool IsValidName(const std::string& name) {
  if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0])) != 0) {
    return false;
  }
  if ((name[0] == 'e' || name[0] == 'E') && name.size() > 1 &&
      std::isdigit(static_cast<unsigned char>(name[1])) != 0) {
    return false;
  }
  return !IsReservedWord(name);
}

// Maps every model variable to a unique name that both formats accept.
std::vector<std::string> SanitizeNames(const Model& model) {
  std::vector<std::string> out(model.NumVars());
  std::unordered_set<std::string> used;
  for (VarId v = 0; v < model.NumVars(); ++v) {
    std::string candidate = model.name(v);
    for (char& c : candidate) {
      if (!IsNameChar(c)) c = '_';
    }
    if (!IsValidName(candidate)) candidate = "v_" + candidate;
    if (!IsValidName(candidate) || used.count(candidate) > 0) {
      candidate = StringPrintf("v%d", v);
    }
    // v%d can still collide with a model name that happens to be "v7";
    // append the id until unique (terminates: ids are unique).
    while (used.count(candidate) > 0) {
      candidate += StringPrintf("_%d", v);
    }
    used.insert(candidate);
    out[v] = std::move(candidate);
  }
  return out;
}

// How each format spells infinity. MPS has no infinity literal.
constexpr const char* kLpInfinity = "inf";
constexpr const char* kMpsInfinity = "1e30";

// Formats a coefficient or bound so that it reads back as the same
// double; infinities are spelled `infinity` and "-" `infinity`.
std::string FormatNumber(double v, const char* infinity) {
  if (std::isinf(v)) return v > 0 ? infinity : std::string("-") + infinity;
  // %.17g is lossless for doubles; %.15g is shorter when it suffices.
  char shortest[64];
  std::snprintf(shortest, sizeof(shortest), "%.15g", v);
  if (std::strtod(shortest, nullptr) == v) return shortest;
  char exact[64];
  std::snprintf(exact, sizeof(exact), "%.17g", v);
  return exact;
}

// Appends "<sign> <coeff> <name>" to the current LP expression line,
// wrapping when the line grows past kWrapColumn.
class ExprWriter {
 public:
  explicit ExprWriter(std::string* out) : out_(out) {}

  void Term(double coeff, const std::string& name) {
    std::string piece;
    double mag = std::fabs(coeff);
    piece += coeff < 0 ? "- " : (first_ ? "" : "+ ");
    if (mag != 1.0) {
      piece += FormatNumber(mag, kLpInfinity);
      piece += ' ';
    }
    piece += name;
    Append(piece);
  }

  void Constant(double value) {
    if (value == 0.0) return;
    std::string piece = value < 0 ? "- " : (first_ ? "" : "+ ");
    piece += FormatNumber(std::fabs(value), kLpInfinity);
    Append(piece);
  }

  // Emits "0" for empty expressions (LP rows must not be blank).
  void FinishExpr() {
    if (first_) Append("0");
  }

 private:
  void Append(const std::string& piece) {
    if (!first_ && column_ + piece.size() + 1 > kWrapColumn) {
      *out_ += "\n   ";
      column_ = 3;
    } else if (!first_) {
      *out_ += ' ';
      ++column_;
    }
    *out_ += piece;
    column_ += piece.size();
    first_ = false;
  }

  std::string* out_;
  size_t column_ = 0;
  bool first_ = true;
};

const char* SenseToLp(Sense s) {
  switch (s) {
    case Sense::kLe:
      return "<=";
    case Sense::kGe:
      return ">=";
    case Sense::kEq:
      return "=";
  }
  return "<=";
}

char SenseToMps(Sense s) {
  switch (s) {
    case Sense::kLe:
      return 'L';
    case Sense::kGe:
      return 'G';
    case Sense::kEq:
      return 'E';
  }
  return 'L';
}

}  // namespace

std::string WriteLpFormat(const Model& model) {
  std::vector<std::string> names = SanitizeNames(model);

  std::string out;
  out += "\\ QFix MILP export: ";
  out += StringPrintf("%d vars, %d constraints, %d integer\n",
                      model.NumVars(), model.NumConstraints(),
                      model.NumIntegerVars());
  for (VarId v = 0; v < model.NumVars(); ++v) {
    if (names[v] != model.name(v)) {
      out += "\\ ";
      out += names[v];
      out += " := ";
      out += model.name(v);
      out += '\n';
    }
  }

  out += "Minimize\n obj: ";
  {
    ExprWriter expr(&out);
    const std::vector<double>& obj = model.objective();
    for (VarId v = 0; v < model.NumVars(); ++v) {
      if (obj[v] != 0.0) expr.Term(obj[v], names[v]);
    }
    expr.Constant(model.objective_constant());
    expr.FinishExpr();
  }
  out += "\nSubject To\n";
  for (int32_t i = 0; i < model.NumConstraints(); ++i) {
    const Constraint& c = model.constraint(i);
    out += StringPrintf(" c%d: ", i);
    ExprWriter expr(&out);
    for (const Term& t : c.terms) expr.Term(t.coeff, names[t.var]);
    expr.FinishExpr();
    out += ' ';
    out += SenseToLp(c.sense);
    out += ' ';
    out += FormatNumber(c.rhs, kLpInfinity);
    out += '\n';
  }

  // Every variable gets explicit bounds: the LP default ([0, inf)) does
  // not match arbitrary models, and explicit bounds make the file
  // self-describing.
  out += "Bounds\n";
  for (VarId v = 0; v < model.NumVars(); ++v) {
    double lb = model.lb(v);
    double ub = model.ub(v);
    out += ' ';
    if (lb == -kInf && ub == kInf) {
      out += names[v];
      out += " free";
    } else if (lb == ub) {
      out += names[v];
      out += " = ";
      out += FormatNumber(lb, kLpInfinity);
    } else {
      out += FormatNumber(lb, kLpInfinity);
      out += " <= ";
      out += names[v];
      out += " <= ";
      out += FormatNumber(ub, kLpInfinity);
    }
    out += '\n';
  }

  bool have_binary = false;
  bool have_integer = false;
  for (VarId v = 0; v < model.NumVars(); ++v) {
    have_binary |= model.type(v) == VarType::kBinary;
    have_integer |= model.type(v) == VarType::kInteger;
  }
  if (have_binary) {
    out += "Binaries\n";
    for (VarId v = 0; v < model.NumVars(); ++v) {
      if (model.type(v) == VarType::kBinary) {
        out += ' ';
        out += names[v];
        out += '\n';
      }
    }
  }
  if (have_integer) {
    out += "Generals\n";
    for (VarId v = 0; v < model.NumVars(); ++v) {
      if (model.type(v) == VarType::kInteger) {
        out += ' ';
        out += names[v];
        out += '\n';
      }
    }
  }
  out += "End\n";
  return out;
}

std::string WriteMpsFormat(const Model& model) {
  std::vector<std::string> names = SanitizeNames(model);

  std::string out;
  out += "* QFix MILP export (free MPS): ";
  out += StringPrintf("%d vars, %d constraints, %d integer\n",
                      model.NumVars(), model.NumConstraints(),
                      model.NumIntegerVars());
  out += "NAME qfix\n";

  out += "ROWS\n";
  out += " N obj\n";
  for (int32_t i = 0; i < model.NumConstraints(); ++i) {
    out += StringPrintf(" %c c%d\n", SenseToMps(model.constraint(i).sense), i);
  }

  // Column-major coefficient lists.
  std::vector<std::vector<std::pair<int32_t, double>>> by_var(
      model.NumVars());
  for (int32_t i = 0; i < model.NumConstraints(); ++i) {
    for (const Term& t : model.constraint(i).terms) {
      by_var[t.var].emplace_back(i, t.coeff);
    }
  }

  out += "COLUMNS\n";
  bool in_integers = false;
  int marker = 0;
  for (VarId v = 0; v < model.NumVars(); ++v) {
    bool integral = model.type(v) != VarType::kContinuous;
    if (integral && !in_integers) {
      out += StringPrintf(" M%d 'MARKER' 'INTORG'\n", marker++);
      in_integers = true;
    } else if (!integral && in_integers) {
      out += StringPrintf(" M%d 'MARKER' 'INTEND'\n", marker++);
      in_integers = false;
    }
    double obj = model.objective()[v];
    bool wrote_any = false;
    if (obj != 0.0) {
      out += " " + names[v] + " obj " + FormatNumber(obj, kMpsInfinity) +
             "\n";
      wrote_any = true;
    }
    for (const auto& [row, coeff] : by_var[v]) {
      out += " " + names[v] + StringPrintf(" c%d ", row) +
             FormatNumber(coeff, kMpsInfinity) + "\n";
      wrote_any = true;
    }
    if (!wrote_any) {
      // MPS variables exist only via COLUMNS entries; emit a harmless
      // zero objective coefficient so the variable is declared.
      out += " " + names[v] + " obj 0\n";
    }
  }
  if (in_integers) out += StringPrintf(" M%d 'MARKER' 'INTEND'\n", marker++);

  out += "RHS\n";
  for (int32_t i = 0; i < model.NumConstraints(); ++i) {
    double rhs = model.constraint(i).rhs;
    if (rhs != 0.0) {
      out += StringPrintf(" rhs c%d ", i) +
             FormatNumber(rhs, kMpsInfinity) + "\n";
    }
  }
  if (model.objective_constant() != 0.0) {
    out += " rhs obj " +
           FormatNumber(-model.objective_constant(), kMpsInfinity) + "\n";
  }

  out += "BOUNDS\n";
  for (VarId v = 0; v < model.NumVars(); ++v) {
    double lb = model.lb(v);
    double ub = model.ub(v);
    if (model.type(v) == VarType::kBinary && lb == 0.0 && ub == 1.0) {
      out += " BV bnd " + names[v] + "\n";
      continue;
    }
    if (lb == -kInf && ub == kInf) {
      out += " FR bnd " + names[v] + "\n";
      continue;
    }
    if (lb == ub) {
      out += " FX bnd " + names[v] + " " + FormatNumber(lb, kMpsInfinity) +
             "\n";
      continue;
    }
    if (lb == -kInf) {
      out += " MI bnd " + names[v] + "\n";
    } else {
      out += " LO bnd " + names[v] + " " + FormatNumber(lb, kMpsInfinity) +
             "\n";
    }
    if (ub != kInf) {
      out += " UP bnd " + names[v] + " " + FormatNumber(ub, kMpsInfinity) +
             "\n";
    }
  }
  out += "ENDATA\n";
  return out;
}

Status WriteModelFile(const Model& model, ModelFormat format,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << (format == ModelFormat::kLp ? WriteLpFormat(model)
                                     : WriteMpsFormat(model));
  out.close();
  if (!out) return Status::InvalidArgument("write failed: " + path);
  return Status::OK();
}

}  // namespace milp
}  // namespace qfix
