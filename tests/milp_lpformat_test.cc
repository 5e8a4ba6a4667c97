// The LP writer (milp/model_export.h): its text for a model that takes
// every branch of the writer, pinned byte for byte. The CLI suite pins
// the Figure 2 export (tests/golden/taxes_basic.lp).
#include <gtest/gtest.h>

#include "milp/model_export.h"
#include "test_support.h"

namespace qfix {
namespace milp {
namespace {

// Renamed variables are listed in the header; the objective constant is
// written inline; c4 is an empty row and c5 wraps; every variable gets
// an explicit bound, with -inf/inf where one side is open.
TEST(LpWriterTest, WritesEveryBranch) {
  const char* expected =
      R"lp(\ QFix MILP export: 12 vars, 6 constraints, 3 integer
\ t_3__owed := t[3].owed
\ v_end := end
\ v_e12 := e12
\ v_9lives := 9lives
\ d_ := d+
\ v8 := d-
\ v10_10 := d+
Minimize
 obj: x + 3 z - t_3__owed + 0.5 d_ + 0.5 v8 - 4.5
Subject To
 c0: x + 5 y <= 8
 c1: 2 x - z >= 1
 c2: y + z = 2
 c3: 0.30000000000000004 t_3__owed - d_ + v8 <= 0
 c4: 0 >= -1
 c5: 1234.5 x + 1234.5 y + 1234.5 z + 1234.5 t_3__owed + 1234.5 v_end
   + 1234.5 v_9lives + 1234.5 d_ + 1234.5 v8 + 1234.5 v10
   + 1234.5 v10_10 + 1234.5 w <= 99999
Bounds
 0 <= x <= 10
 0 <= y <= 1
 -3 <= z <= 7
 t_3__owed free
 v_end = 2.5
 -inf <= v_e12 <= 4
 1 <= v_9lives <= inf
 0 <= d_ <= 5
 0 <= v8 <= 5
 0 <= v10 <= 1
 0 <= v10_10 <= 1
 w = 1
Binaries
 y
 w
Generals
 z
End
)lp";
  EXPECT_EQ(WriteLpFormat(test::WriterCoverageModel()), expected);
}

}  // namespace
}  // namespace milp
}  // namespace qfix
