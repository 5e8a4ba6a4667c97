// LP and MPS text export of MILP models.
//
// The paper hands its encodings to IBM CPLEX; this repository solves
// them with its own branch & bound. These writers put a milp::Model in
// the two solver-neutral interchange formats, CPLEX LP and free MPS
// (read by CPLEX, Gurobi, SCIP, CBC, HiGHS, ...), so a user can check an
// encoding with an external solver (`qfix_cli --export-lp/--export-mps`).
// Nothing in the repository reads a model back: tests/golden pins both
// writers' output for the Figure 2 encoding byte for byte.
//
// Both formats share one naming and one number policy, so a variable
// has the same name in both files:
//  * names are mapped to [A-Za-z0-9_]; a name that is empty, starts with
//    a digit, reads as a number in scientific notation ("e12") or is an
//    LP keyword ("end", "free", ...) gets a "v_" prefix; a name still
//    invalid or already taken becomes v<id>, suffixed until unique. The
//    LP file lists every renamed variable in its header comment;
//  * rows are c0, c1, ... and the objective row is obj;
//  * numbers are written with %.15g, or %.17g when that is needed to
//    read back the same double.
//
// LP: the objective constant is written inline, every variable gets an
// explicit bound ("x free", "x = v" or "lb <= x <= ub" with -inf/inf),
// then Binaries and Generals sections.
//
// Free MPS: the objective constant is an RHS entry on the objective row
// with negated sign (the de-facto convention); integer columns sit
// between INTORG/INTEND markers; a [0, 1] binary gets a BV bound and
// every other variable explicit FR/FX/MI/LO/UP bounds, so MPS's
// integer-default-[0, 1] quirk never applies. MPS has no infinity
// literal; 1e30 stands for it.
#ifndef QFIX_MILP_MODEL_EXPORT_H_
#define QFIX_MILP_MODEL_EXPORT_H_

#include <string>

#include "common/status.h"
#include "milp/model.h"

namespace qfix {
namespace milp {

/// Renders `model` in CPLEX LP format.
std::string WriteLpFormat(const Model& model);

/// Renders `model` in free MPS format, as problem "qfix".
std::string WriteMpsFormat(const Model& model);

enum class ModelFormat { kLp, kMps };

/// Writes `model` to `path` in `format`. An IO failure is returned as
/// InvalidArgument (StatusCode has no dedicated IO code).
Status WriteModelFile(const Model& model, ModelFormat format,
                      const std::string& path);

}  // namespace milp
}  // namespace qfix

#endif  // QFIX_MILP_MODEL_EXPORT_H_
