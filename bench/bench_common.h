#ifndef TRAJKIT_BENCH_BENCH_COMMON_H_
#define TRAJKIT_BENCH_BENCH_COMMON_H_

// Shared plumbing of the experiment harnesses: the --timing_json
// machine-readable timing emitter and DieOnError. Flags come from the
// library's common/flags.h (every value checked, unknown flags refused)
// and the shared --threads/--timing_json/--metrics_* set from
// common/harness_options.h, so every harness, microbenchmark, and the CLI
// read them identically. Harnesses are plain executables that print the
// paper's rows; microbenchmarks (micro_*.cc) use google-benchmark instead.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/harness_options.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/experiments.h"

namespace trajkit::bench {

using ::trajkit::Flags;
using ::trajkit::HarnessOptions;

/// Corpus defaults of the experiments (--users/--days/--seed override
/// them through synthgeo::GeneratorOptionsFromFlags); they reproduce the
/// numbers in EXPERIMENTS.md.
constexpr synthgeo::GeneratorOptions kCorpusDefaults{.num_users = 60,
                                                     .days_per_user = 6};

/// Collects named wall-clock phase timings and, when --timing_json=<path>
/// was given, writes them as one JSON object — the machine-readable perf
/// trajectory consumed by BENCH_*.json tooling (tools/check_bench.py):
///   {"harness": "...", "threads": N, "timings_s": {"phase": 1.23, ...}}
/// Record() keeps insertion order; duplicate names are emitted as given.
/// Write() additionally honors the shared --metrics_json/--metrics_prom
/// flags (HarnessOptions::WriteMetrics): the process metrics registry
/// (counters, gauges, latency histograms with p50/p90/p99) is dumped
/// alongside the timings, so every harness emits the same structured
/// observability artifacts.
class TimingJson {
 public:
  TimingJson(const char* harness, const HarnessOptions& options)
      : harness_(harness), options_(options) {}

  /// Records one phase's wall-clock seconds.
  void Record(const std::string& name, double seconds) {
    entries_.emplace_back(name, seconds);
  }

  /// Convenience: records the stopwatch's elapsed seconds and restarts it,
  /// so consecutive phases chain naturally.
  void RecordLap(const std::string& name, Stopwatch& watch) {
    Record(name, watch.ElapsedSeconds());
    watch.Reset();
  }

  /// Writes the timing JSON (--timing_json) and the metric artifacts if
  /// their flags were given; no-ops otherwise. Returns false (with a
  /// stderr note) when a file cannot be written.
  bool Write() const {
    if (!options_.WriteMetrics()) return false;
    const std::string& path = options_.timing_json;
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "timing_json: cannot open '%s'\n", path.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"harness\": \"%s\",\n  \"threads\": %d,\n",
                 harness_, MaxThreads());
    std::fprintf(out, "  \"timings_s\": {");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                   entries_[i].first.c_str(), entries_[i].second);
    }
    std::fprintf(out, "\n  }\n}\n");
    std::fclose(out);
    std::printf("timings written to %s\n", path.c_str());
    return true;
  }

 private:
  const char* harness_;
  HarnessOptions options_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// Dies with a message when a Status/Result is not OK.
template <typename T>
T DieOnError(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace trajkit::bench

#endif  // TRAJKIT_BENCH_BENCH_COMMON_H_
