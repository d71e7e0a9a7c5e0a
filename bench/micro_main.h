#ifndef TRAJKIT_BENCH_MICRO_MAIN_H_
#define TRAJKIT_BENCH_MICRO_MAIN_H_

// The main of the google-benchmark microbenchmarks: google-benchmark takes
// its --benchmark_* flags out of argv, Flags reads the shared harness flags
// from the rest and refuses any other (exit 2). After the benchmarks,
// `after` runs (when given) and the metric artifacts are written.

#include <benchmark/benchmark.h>

#include "common/flags.h"
#include "common/harness_options.h"

namespace trajkit::bench {

inline int MicrobenchMain(int argc, char** argv,
                          int (*after)(const HarnessOptions&) = nullptr) {
  benchmark::Initialize(&argc, argv);
  const Flags flags(argc, argv);
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();
  harness.ApplyThreads();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (after != nullptr) {
    if (const int status = after(harness); status != 0) return status;
  }
  return harness.WriteMetrics() ? 0 : 1;
}

}  // namespace trajkit::bench

#endif  // TRAJKIT_BENCH_MICRO_MAIN_H_
