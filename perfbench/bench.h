// Shared pieces of the TrajKit benchmark driver: command-line options, the
// result report, timing helpers, and the in-memory span tracer that the
// traced runs record around every call into a library layer.
//
// Nothing inside the library is instrumented. Spans are opened and closed
// by the driver itself, on the driver thread, so they nest strictly and a
// span's self time (its duration minus its children's) sums over the tree
// to the traced wall time.

#ifndef TRAJKIT_PERFBENCH_BENCH_H_
#define TRAJKIT_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seconds between two time points (b - a).
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// How long the measured part of a run lasts.
  double seconds = 10.0;
  bool trace = false;
  /// Directory for corpus files, segment logs and span dumps.
  std::string work_dir = ".bench_run";
  /// Small corpora for the smoke self-test.
  bool tiny = false;
};

/// What a run prints as its last line.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  /// Counts one attempt; a false `ok` counts it failed as well.
  void Attempt(bool ok, size_t count = 1);
  /// Records an output mismatch: the run is incorrect and `what` is
  /// printed to stderr.
  void Mismatch(const std::string& what);
  bool correct() const { return correct_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  std::string ToJson() const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  void ReplaceMetrics(std::vector<Metric> metrics) {
    metrics_ = std::move(metrics);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Starts a fresh resident-set high-water mark (Linux /proc/self/clear_refs)
/// so that PeakRssMb() covers only what follows, i.e. the timed part and
/// not set-up. Returns false, with a note on stderr, when the kernel
/// refuses; PeakRssMb() then covers the whole process.
bool ResetPeakRss();
/// Resident-set high-water mark in MB since ResetPeakRss() (VmHWM).
double PeakRssMb();
/// CPU seconds the whole process has used so far.
double ProcessCpuSeconds();

/// Runs `setup` `repeats` times and returns the median duration in
/// seconds; the state the last call leaves behind is the one the run uses.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

/// The layers of the repository, named by module, plus `bench` for the
/// driver's own work.
inline constexpr std::string_view kLayers[] = {
    "bench", "geolife", "traj", "core", "serve",
    "ml",    "common",  "obs",  "store"};

/// Span recorder. Begin() opens a span; End(name) closes the innermost
/// one under a name chosen at close (so a call can be classified by what
/// it did, e.g. an Ingest that closed a segment). Spans are aggregated
/// per name as they close, and the first `kMaxRecords` are kept raw for
/// WriteChromeTrace(). A disabled tracer does nothing and End() returns 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Registers a span name ("<layer>.<what>") and returns its id.
  int Name(std::string_view name);

  void Begin() {
    if (!enabled_) return;
    stack_.push_back(Frame{Clock::now(), 0.0});
  }

  /// Closes the innermost span as `id` and returns its duration in seconds.
  double End(int id);

  /// Per-name totals.
  struct Totals {
    std::string name;
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  const Totals& totals(int id) const { return totals_[static_cast<size_t>(id)]; }
  /// Sum of self times of every span whose name starts with "<layer>.".
  double LayerSelfSeconds(std::string_view layer) const;
  /// Sum of self times over all spans.
  double TotalSelfSeconds() const;
  /// True when every opened span was closed.
  bool balanced() const { return stack_.empty(); }

  /// Writes the raw spans as Chrome trace-event JSON (chrome://tracing or
  /// Perfetto). Returns false on a write error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kMaxRecords = 200000;
  struct Frame {
    Clock::time_point start;
    double child_s;
  };
  struct Record {
    int id;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Frame> stack_;
  std::vector<Totals> totals_;
  std::vector<Record> records_;
  size_t dropped_ = 0;
};

/// RAII span for calls whose name is known up front.
class Span {
 public:
  Span(Tracer& tracer, int id) : tracer_(tracer), id_(id) { tracer_.Begin(); }
  ~Span() { tracer_.End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Adds the traced-run ledger shared by every workload: per-layer self
/// seconds and the closure check, which fails the run unless the self
/// times sum to `traced_wall_s` (stopwatch time of the root spans).
void AddLedger(const Tracer& tracer, double traced_wall_s, Report* report);

/// The workloads. Each fills `report` with its end-to-end metrics
/// (options.trace == false) or its per-layer metrics (true).
int RunReplayGeolife(const Options& options, Report* report);
int RunServePacedShort(const Options& options, Report* report);
int RunOfflineStudy(const Options& options, Report* report);

/// Every per-layer metric name with its unit, in print order. A traced run
/// prints all of them; layers a workload does not touch read 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // TRAJKIT_PERFBENCH_BENCH_H_
