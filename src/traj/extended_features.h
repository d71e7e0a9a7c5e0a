#ifndef TRAJKIT_TRAJ_EXTENDED_FEATURES_H_
#define TRAJKIT_TRAJ_EXTENDED_FEATURES_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "traj/point_features.h"
#include "traj/types.h"

namespace trajkit::traj {

/// The eight segment-level features appended by the extended extractor:
/// the heading-change rate (HCR), stop rate (SR) and velocity-change rate
/// (VCR) of Zheng et al., plus trip-level summaries (length, duration,
/// mean moving speed, stop fraction, straightness). The paper's §5 names
/// tailored features as future work; these are the canonical candidates
/// from its own references.
inline constexpr int kNumExtendedFeatures = 8;

/// Names of the extended features, index-aligned with the extractor.
const std::vector<std::string>& ExtendedFeatureNames();

/// Computes the extended feature block for one segment.
/// Returns InvalidArgument when the segment has fewer than 2 points.
class ExtendedFeatureExtractor {
 public:
  Result<std::vector<double>> Extract(const Segment& segment) const;

  /// From precomputed point features (plus the raw points for geometry).
  std::vector<double> ExtractFromPointFeatures(
      const PointFeatures& features,
      std::span<const TrajectoryPoint> points) const;
};

}  // namespace trajkit::traj

#endif  // TRAJKIT_TRAJ_EXTENDED_FEATURES_H_
