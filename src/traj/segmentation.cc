#include "traj/segmentation.h"

#include <array>

namespace trajkit::traj {

std::vector<Segment> SegmentTrajectory(const Trajectory& trajectory,
                                       const SegmentationOptions& options) {
  std::vector<Segment> segments;
  Segment current;
  bool has_current = false;
  double last_timestamp = 0.0;

  auto flush = [&]() {
    if (has_current &&
        static_cast<int>(current.points.size()) >= options.min_points &&
        (!options.drop_unlabeled || current.mode != Mode::kUnknown)) {
      segments.push_back(std::move(current));
    }
    current = Segment{};
    has_current = false;
  };

  for (const TrajectoryPoint& point : trajectory.points) {
    if (has_current && point.timestamp < last_timestamp) {
      continue;  // Drop out-of-order fix.
    }
    const int64_t day = DayIndex(point.timestamp);
    bool boundary = false;
    if (has_current) {
      if (point.mode != current.mode) boundary = true;
      if (options.split_on_day && day != current.day) boundary = true;
      if (options.max_gap_seconds > 0.0 &&
          point.timestamp - last_timestamp > options.max_gap_seconds) {
        boundary = true;
      }
    }
    if (boundary) flush();
    if (!has_current) {
      current.user_id = trajectory.user_id;
      current.day = day;
      current.mode = point.mode;
      has_current = true;
    }
    current.points.push_back(point);
    last_timestamp = point.timestamp;
  }
  flush();
  return segments;
}

std::vector<Segment> SegmentCorpus(const std::vector<Trajectory>& corpus,
                                   const SegmentationOptions& options) {
  std::vector<Segment> all;
  for (const Trajectory& trajectory : corpus) {
    std::vector<Segment> segments = SegmentTrajectory(trajectory, options);
    for (Segment& s : segments) all.push_back(std::move(s));
  }
  return all;
}

std::vector<Segment> SegmentTrajectoryByWindows(
    const Trajectory& trajectory,
    const WindowSegmentationOptions& options) {
  std::vector<Segment> segments;
  if (trajectory.points.empty() || options.window_seconds <= 0.0) {
    return segments;
  }
  Segment current;
  double window_start = trajectory.points.front().timestamp;
  double last_timestamp = window_start;

  auto flush = [&]() {
    if (static_cast<int>(current.points.size()) < options.min_points) {
      current = Segment{};
      return;
    }
    // Majority vote over modes.
    std::array<size_t, kNumModes> counts{};
    for (const TrajectoryPoint& p : current.points) {
      ++counts[static_cast<size_t>(p.mode)];
    }
    size_t best = 0;
    for (size_t m = 1; m < counts.size(); ++m) {
      if (counts[m] > counts[best]) best = m;
    }
    const double minority =
        1.0 - static_cast<double>(counts[best]) /
                  static_cast<double>(current.points.size());
    const Mode majority = static_cast<Mode>(best);
    if (minority <= options.max_minority_fraction &&
        (!options.drop_unlabeled || majority != Mode::kUnknown)) {
      current.mode = majority;
      current.day = DayIndex(current.points.front().timestamp);
      segments.push_back(std::move(current));
    }
    current = Segment{};
  };

  for (const TrajectoryPoint& point : trajectory.points) {
    if (!current.points.empty() && point.timestamp < last_timestamp) {
      continue;  // Drop out-of-order fix.
    }
    if (!current.points.empty() &&
        point.timestamp - window_start >= options.window_seconds) {
      flush();
    }
    if (current.points.empty()) {
      current.user_id = trajectory.user_id;
      window_start = point.timestamp;
    }
    current.points.push_back(point);
    last_timestamp = point.timestamp;
  }
  flush();
  return segments;
}

std::vector<Segment> SegmentCorpusByWindows(
    const std::vector<Trajectory>& corpus,
    const WindowSegmentationOptions& options) {
  std::vector<Segment> all;
  for (const Trajectory& trajectory : corpus) {
    std::vector<Segment> segments =
        SegmentTrajectoryByWindows(trajectory, options);
    for (Segment& s : segments) all.push_back(std::move(s));
  }
  return all;
}

}  // namespace trajkit::traj
