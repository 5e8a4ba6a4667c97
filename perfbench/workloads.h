// The three benchmark workloads. Each runs a fixed, seeded list of
// operations (never a fixed duration), checks every answer, and fills
// a Report. See NOTES.md for why each exists and what it should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  uint64_t seed = 1;
  /// Sizes the operation list (operations per second of an unloaded
  /// run times this); the list is fixed for a given value, so every run
  /// of one seed does the same work whatever the machine's speed.
  int seconds = 20;
  /// false: the untraced run (end-to-end metrics); true: the traced run
  /// over the same operation list (per-layer metrics).
  bool trace = false;
};

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;

void RunOltpInc1(const RunArgs& args, Report* report);
void RunSyntheticMilp(const RunArgs& args, Report* report);
void RunServeMixed(const RunArgs& args, Report* report);

/// Splits a seed into independent streams (SplitMix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
