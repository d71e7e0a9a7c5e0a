#include "traj/extended_features.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geo/geodesy.h"

namespace trajkit::traj {
namespace {

// Thresholds of the Zheng et al. [29, 30] segment-level features.
/// A point is a heading change when |Δbearing| exceeds this (degrees).
constexpr double kHeadingChangeThresholdDeg = 19.0;
/// A point is "stopped" below this speed (m/s).
constexpr double kStopSpeedThresholdMps = 0.6;
/// A velocity change when |Δv|/v exceeds this ratio.
constexpr double kVelocityChangeRatio = 0.7;

}  // namespace

const std::vector<std::string>& ExtendedFeatureNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{
          "heading_change_rate",   // Changes per km.
          "stop_rate",             // Stop points per km.
          "velocity_change_rate",  // Velocity changes per km.
          "trip_length_m",
          "trip_duration_s",
          "moving_speed_mean",     // Mean speed over non-stopped points.
          "stop_fraction",         // Fraction of points below the threshold.
          "straightness",          // Net displacement / path length.
      };
  return *kNames;
}

Result<std::vector<double>> ExtendedFeatureExtractor::Extract(
    const Segment& segment) const {
  if (segment.points.size() < 2) {
    return Status::InvalidArgument(
        "segment must have at least 2 points for extended features");
  }
  const PointFeatures features =
      ComputePointFeatures(segment.points, PointFeatureOptions{});
  return ExtractFromPointFeatures(features, segment.points);
}

std::vector<double> ExtendedFeatureExtractor::ExtractFromPointFeatures(
    const PointFeatures& features,
    std::span<const TrajectoryPoint> points) const {
  TRAJKIT_CHECK_EQ(features.size(), points.size());
  const size_t n = features.size();

  double path_length = 0.0;
  size_t heading_changes = 0;
  size_t stops = 0;
  size_t velocity_changes = 0;
  double moving_speed_sum = 0.0;
  size_t moving_points = 0;

  for (size_t i = 1; i < n; ++i) {
    path_length += features.distance[i];
    const double heading_delta = geo::BearingDifferenceDeg(
        features.bearing[i - 1], features.bearing[i]);
    if (std::fabs(heading_delta) > kHeadingChangeThresholdDeg) {
      ++heading_changes;
    }
    if (features.speed[i] < kStopSpeedThresholdMps) {
      ++stops;
    } else {
      moving_speed_sum += features.speed[i];
      ++moving_points;
    }
    const double prev_speed = std::max(features.speed[i - 1], 1e-6);
    if (std::fabs(features.speed[i] - features.speed[i - 1]) / prev_speed >
        kVelocityChangeRatio) {
      ++velocity_changes;
    }
  }

  const double km = std::max(path_length / 1000.0, 1e-6);
  const double duration =
      std::max(points.back().timestamp - points.front().timestamp, 1e-6);
  const double net_displacement =
      geo::HaversineMeters(points.front().pos, points.back().pos);

  std::vector<double> out;
  out.reserve(kNumExtendedFeatures);
  out.push_back(static_cast<double>(heading_changes) / km);
  out.push_back(static_cast<double>(stops) / km);
  out.push_back(static_cast<double>(velocity_changes) / km);
  out.push_back(path_length);
  out.push_back(duration);
  out.push_back(moving_points > 0
                    ? moving_speed_sum / static_cast<double>(moving_points)
                    : 0.0);
  out.push_back(static_cast<double>(stops) / static_cast<double>(n - 1));
  out.push_back(path_length > 0.0
                    ? std::min(net_displacement / path_length, 1.0)
                    : 0.0);
  TRAJKIT_CHECK_EQ(out.size(), static_cast<size_t>(kNumExtendedFeatures));
  return out;
}

}  // namespace trajkit::traj
