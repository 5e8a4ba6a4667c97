// Benchmark entry point:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
// Prints the run stamp, human-readable results and, as the last line of
// stdout, one JSON record: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// ones (--trace 1). Exits 0 when the run completed, 1 when its set-up
// failed (no result is printed), 2 on bad flags, 3 when the self-test of
// the benchmark's arithmetic fails.
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp_inc1|synthetic_milp|"
               "serve_mixed --seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    long long v = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseInt(value, 0, (1LL << 62), &v)) {
      args.seed = static_cast<uint64_t>(v);
    } else if (flag == "--seconds" && ParseInt(value, 1, 3600, &v)) {
      args.seconds = static_cast<int>(v);
    } else if (flag == "--trace" && ParseInt(value, 0, 1, &v)) {
      args.trace = v == 1;
    } else {
      return Usage();
    }
  }

  std::string why;
  if (!perfbench::SelfTest(&why)) {
    std::fprintf(stderr, "perfbench self-test failed: %s\n", why.c_str());
    return 3;
  }

  void (*run)(const perfbench::RunArgs&, perfbench::Report*) = nullptr;
  if (workload == "oltp_inc1") {
    run = perfbench::RunOltpInc1;
  } else if (workload == "synthetic_milp") {
    run = perfbench::RunSyntheticMilp;
  } else if (workload == "serve_mixed") {
    run = perfbench::RunServeMixed;
  } else {
    return Usage();
  }
  perfbench::Report report;
  perfbench::PrintStamp(&report, args.seed);
  run(args, &report);
  return report.Print(args.trace) ? 0 : 1;
}
