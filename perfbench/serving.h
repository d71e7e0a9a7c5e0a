// Set-up shared by the two serving workloads: the served model, the plane
// configuration, and the telemetry tick that serve-replay --tick_every arms.

#ifndef TRAJKIT_PERFBENCH_SERVING_H_
#define TRAJKIT_PERFBENCH_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "core/label_sets.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/model_registry.h"
#include "serve/serving_plane.h"

namespace perfbench {

/// Shards of the serving plane and threads of the shared pool. With the
/// driver thread that makes 2 + 2 = 4 threads, one per core of the
/// reference host (the pool's caller is the shard worker itself).
inline constexpr size_t kShards = 2;
inline constexpr int kServePoolThreads = 2;

/// Telemetry tick cadence, in closed segments (serve-replay's default).
inline constexpr size_t kTickEverySegments = 64;

/// The served model is trained on a corpus drawn with this seed, never the
/// workload seed itself: a model scored on its own training corpus reads
/// a meaningless accuracy of 1.0.
inline uint64_t TrainingSeed(uint64_t seed) {
  return seed ^ 0x7261696e696e6721ULL;
}

/// Trains a 50-tree random forest on the Dabiri label set of a synthetic
/// corpus (30 users x 4 days, or 4 x 2 when `tiny`, drawn with
/// TrainingSeed(seed)) and publishes it as the registry's active model.
trajkit::Status PublishServedModel(uint64_t seed, bool tiny,
                                   trajkit::serve::ModelRegistry* registry);

/// Two shards, the paper's user/day/mode segmentation, and an optional
/// max window (0 = unbounded, the offline-parity mode).
trajkit::serve::ServingPlaneOptions PlaneOptions(size_t max_window);

/// One closed segment: (user id, start time) is unique per corpus.
using SegmentKey = std::pair<int, double>;
using Predictions = std::map<SegmentKey, int>;

/// A TimeSeriesStore sampling the serving counters plus an SloEngine with
/// a p99-latency and a shed-rate objective, as serve-replay arms them.
class Telemetry {
 public:
  Telemetry();
  /// Samples every series and evaluates the objectives.
  void Tick();
  size_t ticks() const { return ticks_; }

 private:
  std::unique_ptr<trajkit::obs::TimeSeriesStore> series_;
  std::unique_ptr<trajkit::obs::SloEngine> slo_;
  size_t ticks_ = 0;
};

}  // namespace perfbench

#endif  // TRAJKIT_PERFBENCH_SERVING_H_
