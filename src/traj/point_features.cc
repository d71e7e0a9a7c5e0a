#include "traj/point_features.h"

#include <array>

#include "common/check.h"
#include "geo/geodesy.h"

namespace trajkit::traj {

PointFeatures ComputePointFeatures(std::span<const TrajectoryPoint> points,
                                   const PointFeatureOptions& options) {
  TRAJKIT_CHECK_GE(points.size(), 2u);
  const size_t n = points.size();
  PointFeatures f;
  f.duration.resize(n);
  f.distance.resize(n);
  f.speed.resize(n);
  f.acceleration.resize(n);
  f.jerk.resize(n);
  f.bearing.resize(n);
  f.bearing_rate.resize(n);
  f.bearing_rate_rate.resize(n);

  // One stride-1 loop per channel: the geodesy pass below isolates the
  // libm calls (sin/cos/asin/atan2 of distance and bearing), and every
  // derivative chain after it is a pure subtract/divide loop over already
  // materialized columns — the shape compilers auto-vectorize. Each
  // element's arithmetic is unchanged from the interleaved form, so the
  // outputs are bit-identical (and still match the streaming extractor,
  // see serve/streaming_features.cc).
  for (size_t i = 1; i < n; ++i) {
    const double dt = points[i].timestamp - points[i - 1].timestamp;
    f.duration[i] = dt < kMinDurationSeconds ? kMinDurationSeconds : dt;
  }
  // Each fix's latitude sine and cosine serve both pairs it belongs to.
  geo::LatitudeTrig prev_trig = geo::LatitudeTrigOf(points[0].pos);
  for (size_t i = 1; i < n; ++i) {
    const geo::LatitudeTrig trig = geo::LatitudeTrigOf(points[i].pos);
    const geo::DistanceBearing step = geo::DistanceAndBearing(
        points[i - 1].pos, prev_trig, points[i].pos, trig);
    f.distance[i] = step.distance_m;
    f.bearing[i] = step.bearing_deg;
    prev_trig = trig;
  }
  for (size_t i = 1; i < n; ++i) {
    f.speed[i] = f.distance[i] / f.duration[i];
  }
  f.duration[0] = f.duration[1];
  f.distance[0] = f.distance[1];
  f.speed[0] = f.speed[1];
  f.bearing[0] = f.bearing[1];

  for (size_t i = 1; i < n; ++i) {
    f.acceleration[i] = (f.speed[i] - f.speed[i - 1]) / f.duration[i];
  }
  if (options.wrap_bearing_difference) {
    // Wrapping may call fmod; its own loop keeps the pure loops clean.
    for (size_t i = 1; i < n; ++i) {
      f.bearing_rate[i] =
          geo::BearingDifferenceDeg(f.bearing[i - 1], f.bearing[i]) /
          f.duration[i];
    }
  } else {
    for (size_t i = 1; i < n; ++i) {
      f.bearing_rate[i] = (f.bearing[i] - f.bearing[i - 1]) / f.duration[i];
    }
  }
  f.acceleration[0] = f.acceleration[1];
  f.bearing_rate[0] = f.bearing_rate[1];

  for (size_t i = 1; i < n; ++i) {
    f.jerk[i] = (f.acceleration[i] - f.acceleration[i - 1]) / f.duration[i];
  }
  for (size_t i = 1; i < n; ++i) {
    f.bearing_rate_rate[i] =
        (f.bearing_rate[i] - f.bearing_rate[i - 1]) / f.duration[i];
  }
  f.jerk[0] = f.jerk[1];
  f.bearing_rate_rate[0] = f.bearing_rate_rate[1];

  return f;
}

std::span<const std::string_view> ChannelNames() {
  static constexpr std::array<std::string_view, kNumFeatureChannels> kNames = {
      "distance", "speed",        "acceleration",     "jerk",
      "bearing",  "bearing_rate", "bearing_rate_rate"};
  return kNames;
}

std::span<const double> ChannelValues(const PointFeatures& features,
                                      int channel) {
  switch (channel) {
    case 0:
      return features.distance;
    case 1:
      return features.speed;
    case 2:
      return features.acceleration;
    case 3:
      return features.jerk;
    case 4:
      return features.bearing;
    case 5:
      return features.bearing_rate;
    case 6:
      return features.bearing_rate_rate;
    default:
      break;
  }
  TRAJKIT_CHECK(false) << "channel index out of range:" << channel;
  return features.speed;  // Unreachable.
}

}  // namespace trajkit::traj
