#ifndef TRAJKIT_OBS_TIMESERIES_H_
#define TRAJKIT_OBS_TIMESERIES_H_

// Fixed-capacity metric history: a TimeSeriesStore samples a chosen set of
// registry metrics into per-series ring buffers on explicit Tick() calls.
// Nothing here reads a clock — the *caller* decides what a tick is, which
// is the whole determinism story: under `serve-replay` one tick fires per
// replay barrier (a pure function of corpus position, with every request
// drained), so the sampled series are byte-identical at any thread/shard
// count; a live deployment would tick from a wall-clock timer instead and
// pass wall seconds as the timestamp.
//
// Counters sample their cumulative value, gauges their current value, and
// histograms their full cumulative bucket vector (plus count/sum) so that
// windowed quantiles can be computed over *bucket deltas* between any two
// retained ticks. Windowed accessors (Rate/Delta/WindowedQuantile) are
// reset-aware: a sampled value that decreases is treated as a process
// restart, and deltas accumulate the non-negative increments only.
//
// Like the rest of obs, this depends only on the standard library.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace trajkit::obs {

struct TimeSeriesOptions {
  /// Ring capacity in ticks per series; the oldest tick is dropped once
  /// the ring is full. Clamped to >= 2 (a window needs two endpoints).
  size_t capacity = 512;
};

/// Bucket-level delta of a tracked histogram over a tick window, for
/// callers (the SLO engine) that need more than one quantile.
struct WindowedHistogram {
  std::vector<double> bounds;    ///< Upper bounds (without +Inf).
  std::vector<uint64_t> deltas;  ///< Per-bucket increments, size bounds+1.
  uint64_t count = 0;            ///< Total observations in the window.
};

/// Interpolated quantile over per-bucket increments: finds the bucket
/// holding rank q*total and interpolates between its edges (the first
/// bucket's lower edge is 0 — observations are assumed non-negative —
/// and the overflow bucket clamps to the last finite bound). Returns 0
/// when the deltas are empty. Shared by WindowedQuantile and the SLO
/// engine; exposed for tests.
double QuantileFromBucketDeltas(const std::vector<double>& bounds,
                                const std::vector<uint64_t>& deltas,
                                double q);

/// Ring-buffered history of a chosen set of metrics. Track* registers a
/// series by name; resolution against the registry is lazy (a metric that
/// does not exist yet samples as 0 until it appears), so series can be
/// declared before the subsystem that emits them has started. Tick()
/// samples every tracked series once.
///
/// Thread-safety: all members take one internal mutex, so a driver thread
/// may Tick() while an HTTP scrape thread reads ToJson()/accessors. The
/// registry side of a sample is relaxed atomic loads (same contract as
/// any export).
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(const MetricsRegistry& registry,
                           TimeSeriesOptions options = {});
  TimeSeriesStore(const TimeSeriesStore&) = delete;
  TimeSeriesStore& operator=(const TimeSeriesStore&) = delete;

  void TrackCounter(std::string_view name);
  void TrackGauge(std::string_view name);
  void TrackHistogram(std::string_view name);

  /// Samples every tracked series at `timestamp` (tick index under
  /// replay, wall seconds in live mode — the store never reads a clock).
  void Tick(double timestamp);

  size_t tick_count() const;
  size_t series_count() const;
  size_t capacity() const { return options_.capacity; }

  /// (name, kind) of every tracked series, sorted by name; kind is
  /// "counter" / "gauge" / "histogram". Statusz iterates this.
  std::vector<std::pair<std::string, std::string>> SeriesKinds() const;

  /// Increase of a counter (reset-aware) / net change of a gauge /
  /// observation count of a histogram over the last `window` tick
  /// intervals (0 = the whole retained ring). 0 when the series is
  /// unknown or fewer than two ticks are retained.
  double Delta(std::string_view name, size_t window = 0) const;

  /// Delta divided by the timestamp span of the window; 0 when the span
  /// is not positive.
  double Rate(std::string_view name, size_t window = 0) const;

  /// Interpolated quantile of a tracked histogram's observations inside
  /// the window (bucket deltas between the window's endpoint ticks,
  /// reset-aware). Returns 0 for unknown series, non-histograms, and
  /// windows with no observations.
  double WindowedQuantile(std::string_view name, double q,
                          size_t window = 0) const;

  /// Bucket-level window delta for the SLO engine. False when the series
  /// is unknown, not a histogram, or fewer than two ticks are retained.
  bool WindowedHistogramDeltas(std::string_view name, size_t window,
                               WindowedHistogram* out) const;

  /// Most recent sampled values of a series, oldest first, at most
  /// `last` entries (0 = all retained). Counters/histograms yield their
  /// cumulative count; gauges their value. Empty for unknown series.
  /// Statusz renders these as sparklines.
  std::vector<double> RecentSamples(std::string_view name,
                                    size_t last = 0) const;

  /// Byte-stable JSON: {"capacity":C,"ticks":[...],"series":{name:
  /// {"kind":...,"samples":[...]} | {"kind":"histogram","count":[...],
  /// "sum":[...],"p50":[...],"p99":[...]}}} — series sorted by name,
  /// doubles formatted with %.12g.
  std::string ToJson() const;

 private:
  // Registry counters are monotone in-process, so the reset-handling
  // paths need synthetic decreasing samples; the test peer injects them.
  friend class TimeSeriesStoreTestPeer;

  enum class Kind { kCounter, kGauge, kHistogram };

  struct HistSample {
    std::vector<uint64_t> buckets;  // cumulative, size bounds+1
    uint64_t count = 0;
    double sum = 0.0;
  };

  struct Series {
    Kind kind = Kind::kCounter;
    // Lazily resolved handles (stable for the registry's lifetime). A
    // counter or gauge samples its family total, so shard series created
    // after the handle was resolved are still summed in.
    const CounterFamily* counter = nullptr;
    const GaugeFamily* gauge = nullptr;
    const Histogram* histogram = nullptr;
    std::deque<double> samples;       // counter/gauge rings
    std::deque<HistSample> hist;      // histogram ring
    std::vector<double> bounds;       // histogram bucket bounds
  };

  void Track(std::string_view name, Kind kind);
  const Series* FindSeries(std::string_view name) const;
  double DeltaLocked(const Series& series, size_t first, size_t last) const;
  /// [first, last] sample indices of a `window`-interval window ending at
  /// the newest tick; false when fewer than two ticks are retained.
  bool WindowRange(const Series& series, size_t window, size_t* first,
                   size_t* last) const;

  const MetricsRegistry& registry_;
  const TimeSeriesOptions options_;
  mutable std::mutex mu_;
  std::deque<double> ticks_;
  std::map<std::string, Series, std::less<>> series_;
};

/// One call site for every `--metrics_json` / `--metrics_prom` /
/// `--timeseries_json` artifact dump; the CLI and the bench harnesses all
/// route through here so a new artifact kind lands everywhere at once.
/// Empty paths are skipped; returns false (with a stderr note) on the
/// first write failure or when `timeseries_json` is set without a store.
struct MetricsArtifactOptions {
  std::string metrics_json;
  std::string metrics_prom;
  std::string timeseries_json;
  const TimeSeriesStore* timeseries = nullptr;
};

bool WriteMetricsArtifacts(const MetricsArtifactOptions& options,
                           const MetricsRegistry& registry);

}  // namespace trajkit::obs

#endif  // TRAJKIT_OBS_TIMESERIES_H_
