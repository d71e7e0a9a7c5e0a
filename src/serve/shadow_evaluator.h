#ifndef TRAJKIT_SERVE_SHADOW_EVALUATOR_H_
#define TRAJKIT_SERVE_SHADOW_EVALUATOR_H_

// Scores a shadow candidate against the active model over one evaluation
// window. Predictor workers feed it per-batch tallies (the shadow ran on
// the exact rows the active model served); the replay/serving driver
// feeds it labeled outcomes once ground truth is known. The continuous
// trainer reads the window at its deterministic step barriers to decide
// promote vs retire.
//
// Metric families (all under serve.shadow.*):
//   samples, agreement        — counters, deterministic under replay
//   accuracy_delta            — gauge, shadow minus active accuracy over
//                               the window's labeled outcomes
//   latency_ratio             — gauge, measured shadow/active batch
//                               predict time (observability only; the
//                               promotion policy gates on the
//                               deterministic node-count cost ratio)

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace trajkit::serve {

class ShadowEvaluator {
 public:
  /// One window's accumulated comparison. `scored`/`agreements` come from
  /// batch time (no labels yet); `labeled`/`*_correct` from gather time.
  struct WindowStats {
    std::string version;  ///< Shadow version under evaluation.
    bool open = false;
    /// Deterministic serving-cost proxy: shadow flat-forest nodes over
    /// active flat-forest nodes, fixed at window start. This — not the
    /// measured latency ratio — is what the promotion policy budgets, so
    /// verdicts don't depend on wall-clock noise.
    double cost_ratio = 1.0;
    size_t scored = 0;
    size_t agreements = 0;
    size_t labeled = 0;
    size_t active_correct = 0;
    size_t shadow_correct = 0;

    /// Shadow accuracy minus active accuracy over the labeled outcomes
    /// (0 when none yet).
    double accuracy_delta() const;
  };

  ShadowEvaluator();

  /// Opens a fresh window for `shadow_version`; drops any previous one.
  void StartWindow(std::string_view shadow_version, double cost_ratio);

  /// Closes the window (the candidate was promoted or retired). Stats
  /// remain readable until the next StartWindow.
  void EndWindow();

  /// Batch-time tally from a predictor worker: `scored` rows compared,
  /// `agreements` of them identical, plus the measured predict times.
  /// Ignored when the window is closed or `shadow_version` doesn't match
  /// (a stale in-flight batch from before a swap).
  void ObserveBatch(std::string_view shadow_version, size_t scored,
                    size_t agreements, double active_seconds,
                    double shadow_seconds);

  /// Gather-time labeled outcome for one request both models answered.
  /// Same staleness guard as ObserveBatch.
  void ObserveOutcome(std::string_view shadow_version, int true_class,
                      int active_label, int shadow_label);

  WindowStats window() const;

 private:
  void ExportGaugesLocked();

  mutable std::mutex mu_;
  WindowStats window_;
  double active_seconds_ = 0.0;
  double shadow_seconds_ = 0.0;

  obs::Counter& metric_samples_;
  obs::Counter& metric_agreement_;
  obs::Gauge& metric_accuracy_delta_;
  obs::Gauge& metric_latency_ratio_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SHADOW_EVALUATOR_H_
