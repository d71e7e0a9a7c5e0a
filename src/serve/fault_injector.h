#ifndef TRAJKIT_SERVE_FAULT_INJECTOR_H_
#define TRAJKIT_SERVE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace trajkit::serve {

/// Declarative chaos profile, parsed from the --fault_spec flag. The spec
/// is a ';'-separated list of fault clauses, each "name:key=value,...":
///
///   swap_stall:p=0.01,latency_ms=50    registry lookup stalls for
///                                      latency_ms and then fails for the
///                                      batch (simulated stuck hot-swap),
///                                      exercising the degradation chain
///   predict_fail:p=0.02                the batch's forest pass resolves
///                                      Unavailable (transient backend
///                                      failure), exercising retries
///   batch_delay:p=0.1,latency_ms=5     the batch is processed latency_ms
///                                      late, exercising deadline pressure
///   seed=42                            RNG seed for the fault draws
///
/// All probabilities are per dispatched batch. Example:
///   --fault_spec="swap_stall:p=0.01,latency_ms=50;predict_fail:p=0.02"
struct FaultSpec {
  double swap_stall_p = 0.0;
  double swap_stall_latency_ms = 0.0;
  double predict_fail_p = 0.0;
  double batch_delay_p = 0.0;
  double batch_delay_latency_ms = 0.0;
  uint64_t seed = 1234;

  /// Parses the spec syntax above; InvalidArgument on unknown clauses,
  /// unknown keys, malformed numbers, probabilities outside [0, 1] (NaN
  /// included), latencies that are negative or not finite, or a seed that
  /// is not an unsigned 64-bit integer.
  static Result<FaultSpec> Parse(std::string_view spec);
};

/// Draws per-batch faults from a FaultSpec. Deterministic: one seeded Rng
/// consumed in batch-dispatch order (mutex-guarded — the worker thread and
/// Flush callers may dispatch concurrently). Injections are counted under
/// serve.faults.injected.<kind> so chaos runs are observable, and the
/// whole injector can be flipped off atomically (set_enabled) to prove
/// determinism parity with faults disabled on one wiring.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The faults to apply to one dispatched batch. All-false when disabled.
  struct BatchFaults {
    bool stall_registry = false;   ///< Registry unusable for this batch.
    bool fail_predict = false;     ///< Forest pass resolves Unavailable.
    double delay_seconds = 0.0;    ///< Sleep before processing the batch.

    /// True when any fault fired for this batch — its requests count as
    /// fault-injected (request traces tail-keep them).
    bool any() const {
      return stall_registry || fail_predict || delay_seconds > 0.0;
    }
  };
  BatchFaults Next();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  const FaultSpec& spec() const { return spec_; }

 private:
  const FaultSpec spec_;
  std::atomic<bool> enabled_{true};
  obs::Counter& metric_swap_stall_;
  obs::Counter& metric_predict_fail_;
  obs::Counter& metric_batch_delay_;
  std::mutex mu_;
  Rng rng_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_FAULT_INJECTOR_H_
