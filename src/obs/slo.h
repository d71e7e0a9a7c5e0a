#ifndef TRAJKIT_OBS_SLO_H_
#define TRAJKIT_OBS_SLO_H_

// Declarative SLOs evaluated over the TimeSeriesStore with the standard
// multi-window multi-burn-rate policy: an objective defines a *bad event
// fraction* (requests slower than a latency ceiling, or a bad/total
// counter ratio such as shed rate) and an error budget; the burn rate is
// bad_fraction / budget, and the SLO *breaches* only when the burn rate
// exceeds the threshold over BOTH a fast window (catches sudden cliffs
// quickly) and a slow window (suppresses one-tick blips). Windows are
// measured in ticks, so under replay every evaluation is a pure function
// of corpus position and the transition log is byte-identical at any
// thread/shard count.
//
// On every ok<->breach transition the engine appends a deterministic log
// line, increments `slo.<name>.breaches` (breach entry only), and drops a
// "slo_breach"/"slo_recover" landmark into the flight recorder; the
// `slo.<name>.{budget_remaining,breached}` gauges are refreshed on every
// evaluation. /healthz serves 503 while any SLO is breached.
//
// Spec grammar (--slo_spec): `;`-separated SLOs, each
//   <name>:key=value,key=value,...
// with keys
//   type=latency          metric=<histogram> ceiling_ms=<float>
//   type=ratio            bad=<counter>[+<counter>...] total=<counter>[+...]
//   budget=<fraction>     (allowed bad fraction, default 0.01)
//   fast=<ticks>          (fast window, default 8)
//   slow=<ticks>          (slow window, default 64; windows are
//                         integers in [1, 2^31 - 1])
//   burn=<rate>           (breach threshold, default 1.0)
// e.g. "p99:type=latency,metric=serve.batch_predictor.latency_seconds,
//       ceiling_ms=50,budget=0.05;shed:type=ratio,
//       bad=serve.shed_total.queue_full+serve.shed_total.preempted,
//       total=serve.batch_predictor.requests,budget=0.02,burn=2".

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace trajkit::obs {

struct SloSpec {
  enum class Kind { kLatency, kRatio };

  std::string name;
  Kind kind = Kind::kRatio;
  /// Latency objective: histogram metric + ceiling. The effective ceiling
  /// is the smallest bucket bound >= ceiling_seconds (bucket resolution).
  std::string metric;
  double ceiling_seconds = 0.0;
  /// Ratio objective: '+'-joined counter lists (bad events / total).
  std::vector<std::string> bad;
  std::vector<std::string> total;
  double budget = 0.01;
  size_t fast_window = 8;
  size_t slow_window = 64;
  double burn_threshold = 1.0;
};

/// Parses the --slo_spec grammar above. Returns false and names the
/// offending token in *error on malformed input; on success *specs holds
/// the parsed SLOs in declaration order.
bool ParseSloSpecs(std::string_view text, std::vector<SloSpec>* specs,
                   std::string* error);

/// Point-in-time state of one SLO.
struct SloState {
  std::string name;
  bool breached = false;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  /// Unconsumed budget fraction over the slow window: max(0, 1 -
  /// burn_slow).
  double budget_remaining = 1.0;
  uint64_t transitions = 0;
};

/// Evaluates a fixed set of SloSpecs against a TimeSeriesStore. The
/// engine tracks every metric its specs reference at construction (so
/// declare it before the first tick) and is evaluated by the tick driver
/// right after each Tick(). Thread-safe: evaluation and the accessors
/// below take an internal mutex, so an HTTP scrape thread may read
/// healthy()/states() while the driver evaluates.
class SloEngine {
 public:
  SloEngine(TimeSeriesStore* store, MetricsRegistry* registry,
            std::vector<SloSpec> specs);

  /// Evaluates every SLO over the store's current ring; `tick` labels
  /// transition-log lines (pass the tick index just sampled).
  void Evaluate(uint64_t tick);

  /// True while no SLO is breached (drives /healthz).
  bool healthy() const;
  std::vector<SloState> states() const;
  /// Deterministic transition lines, e.g.
  /// "tick=12 slo=shed ok->breach burn_fast=2.5 burn_slow=1.3".
  std::vector<std::string> transition_log() const;
  const std::vector<SloSpec>& specs() const { return specs_; }

 private:
  double BadFraction(const SloSpec& spec, size_t window) const;

  TimeSeriesStore* store_;
  MetricsRegistry* registry_;
  std::vector<SloSpec> specs_;
  mutable std::mutex mu_;
  std::vector<SloState> states_;
  std::vector<std::string> log_;
};

}  // namespace trajkit::obs

#endif  // TRAJKIT_OBS_SLO_H_
