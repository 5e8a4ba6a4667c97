// The free-MPS writer (milp/model_export.h): its text for a model that
// takes every branch of the writer, pinned byte for byte. The CLI suite
// pins the Figure 2 export (tests/golden/taxes_basic.mps).
#include <gtest/gtest.h>

#include "milp/model_export.h"
#include "test_support.h"

namespace qfix {
namespace milp {
namespace {

// The names are the LP writer's. Integer columns sit between markers,
// the column with no entry gets a zero objective entry, a zero rhs is
// left out, the objective constant is negated into the obj rhs, and a
// binary gets BV only while its box is [0, 1].
TEST(MpsWriterTest, WritesEveryBranch) {
  const char* expected =
      R"mps(* QFix MILP export (free MPS): 12 vars, 6 constraints, 3 integer
NAME qfix
ROWS
 N obj
 L c0
 G c1
 E c2
 L c3
 G c4
 L c5
COLUMNS
 x obj 1
 x c0 1
 x c1 2
 x c5 1234.5
 M0 'MARKER' 'INTORG'
 y c0 5
 y c2 1
 y c5 1234.5
 z obj 3
 z c1 -1
 z c2 1
 z c5 1234.5
 M1 'MARKER' 'INTEND'
 t_3__owed obj -1
 t_3__owed c3 0.30000000000000004
 t_3__owed c5 1234.5
 v_end c5 1234.5
 v_e12 obj 0
 v_9lives c5 1234.5
 d_ obj 0.5
 d_ c3 -1
 d_ c5 1234.5
 v8 obj 0.5
 v8 c3 1
 v8 c5 1234.5
 v10 c5 1234.5
 v10_10 c5 1234.5
 M2 'MARKER' 'INTORG'
 w c5 1234.5
 M3 'MARKER' 'INTEND'
RHS
 rhs c0 8
 rhs c1 1
 rhs c2 2
 rhs c4 -1
 rhs c5 99999
 rhs obj 4.5
BOUNDS
 LO bnd x 0
 UP bnd x 10
 BV bnd y
 LO bnd z -3
 UP bnd z 7
 FR bnd t_3__owed
 FX bnd v_end 2.5
 MI bnd v_e12
 UP bnd v_e12 4
 LO bnd v_9lives 1
 LO bnd d_ 0
 UP bnd d_ 5
 LO bnd v8 0
 UP bnd v8 5
 LO bnd v10 0
 UP bnd v10 1
 LO bnd v10_10 0
 UP bnd v10_10 1
 FX bnd w 1
ENDATA
)mps";
  EXPECT_EQ(WriteMpsFormat(test::WriterCoverageModel()), expected);
}

}  // namespace
}  // namespace milp
}  // namespace qfix
