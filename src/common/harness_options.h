#ifndef TRAJKIT_COMMON_HARNESS_OPTIONS_H_
#define TRAJKIT_COMMON_HARNESS_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/flags.h"
#include "obs/timeseries.h"

namespace trajkit {

/// The shared flags every TrajKit executable (experiment harnesses,
/// microbenchmarks, the CLI) accepts, parsed in one place instead of
/// re-declared per harness:
///
///   --threads=N        bound the shared worker pool (N >= 0; 0/absent
///                      keeps the process default, which honors
///                      TRAJKIT_THREADS)
///   --timing_json=F    machine-readable phase timings (bench::TimingJson)
///   --metrics_json=F   process metrics registry dump after the run
///   --metrics_prom=F   the same dump in Prometheus text exposition
///   --timeseries_json=F  time-series store dump (entry points that tick
///                      a TimeSeriesStore pass it to WriteMetrics)
///   --trace_json=F     request-trace dump (Chrome trace-event JSON for
///                      chrome://tracing / Perfetto); also enables the
///                      flight recorder for the run
///   --trace_test=F     deterministic byte-stable trace dump (rank
///                      timestamps); also enables the recorder
///   --trace_sample=N   head sampling: export every Nth trace (default 1)
///   --trace_buffer=M   per-thread flight-recorder capacity in events
///                      (default 8192)
struct HarnessOptions {
  int threads = 0;
  std::string timing_json;
  std::string metrics_json;
  std::string metrics_prom;
  std::string timeseries_json;
  std::string trace_json;
  std::string trace_test;
  uint64_t trace_sample = 1;
  size_t trace_buffer = 8192;

  /// Reads the shared flags (errors are kept by `flags`, see Flags).
  static HarnessOptions FromFlags(const Flags& flags);

  /// Applies --threads (no-op for 0) and returns the effective pool
  /// budget. Call once, before any dataset/model work.
  int ApplyThreads() const;

  /// True when any --trace_* output was requested.
  bool tracing_requested() const {
    return !trace_json.empty() || !trace_test.empty();
  }

  /// Configures the global RequestTracer from the --trace_* flags (no-op
  /// when no trace output was requested and `always` is false — tracing
  /// stays disabled and the serve path is bit-identical to an untraced
  /// run). Call before serving.
  void ConfigureTracing(bool always = false) const;

  /// Writes --trace_json / --trace_test from the global tracer if
  /// requested. Returns false (with a stderr note) when a file cannot be
  /// written.
  bool DumpTrace() const;

  /// Writes the --metrics_json / --metrics_prom / --timeseries_json
  /// artifacts of the global registry (obs::WriteMetricsArtifacts; absent
  /// flags are skipped) and notes each file on stdout. `timeseries` is the
  /// store of entry points that tick one (nullptr otherwise —
  /// --timeseries_json then fails loudly instead of writing nothing).
  /// Returns false on a write failure.
  bool WriteMetrics(const obs::TimeSeriesStore* timeseries = nullptr) const;
};

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_HARNESS_OPTIONS_H_
