#ifndef TRAJKIT_SERVE_STREAMING_FEATURES_H_
#define TRAJKIT_SERVE_STREAMING_FEATURES_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "geo/geodesy.h"
#include "traj/point_features.h"
#include "traj/trajectory_features.h"
#include "traj/types.h"

namespace trajkit::serve {

/// Incremental construction of the paper's 70-dim trajectory-feature vector
/// for one *open* segment: GPS fixes are ingested one at a time, each in
/// O(1), and the full vector is materialized on demand at close time.
///
/// Parity guarantee: after feeding the points of a segment in order,
/// Flush() is **bit-identical** to the offline path
/// `TrajectoryFeatureExtractor::Extract` on the same points. This holds
/// because (a) the per-point derivations below replicate
/// `traj::ComputePointFeatures` operation-for-operation — the same
/// `geo::DistanceAndBearing` kernel with the previous fix's latitude trig
/// cached, and the index-0 backfill ("the speed of the first trajectory
/// point is equal to the speed of the second") — so the accumulated channel
/// buffers equal the batch kernel's output arrays, and (b) Flush() feeds
/// those buffers through the very same statistics code the batch extractor
/// uses. The order-sensitive percentile/median features are the reason the
/// channel values are buffered per open segment (the buffer is bounded by
/// the session layer's max-window close rule) instead of folded into
/// streaming accumulators.
class StreamingFeatureExtractor {
 public:
  explicit StreamingFeatureExtractor(traj::PointFeatureOptions options = {})
      : options_(options) {}

  /// Ingests the next fix of the open segment. O(1) amortized.
  void Add(const traj::TrajectoryPoint& point);

  /// Number of points ingested since construction / the last Reset().
  size_t num_points() const { return num_points_; }

  /// The accumulated point-feature channels (index-aligned with the batch
  /// kernel's output for the same points). `duration` is left empty: no
  /// statistic reads it.
  const traj::PointFeatures& point_features() const { return features_; }

  /// Computes the 70 trajectory features of the open segment. Returns
  /// InvalidArgument when fewer than 2 points were ingested. Does not
  /// reset; callers may keep streaming afterwards.
  Result<std::vector<double>> Flush() const;

  /// Clears all state for reuse on the next segment. The channel buffers
  /// keep their capacity.
  void Reset();

 private:
  traj::PointFeatureOptions options_;
  size_t num_points_ = 0;
  traj::TrajectoryPoint last_point_;
  geo::LatitudeTrig last_trig_;
  traj::PointFeatures features_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_STREAMING_FEATURES_H_
