#ifndef TRAJKIT_TRAJ_SEGMENTATION_H_
#define TRAJKIT_TRAJ_SEGMENTATION_H_

#include <vector>

#include "traj/types.h"

namespace trajkit::traj {

/// Controls step 1 of the paper's framework.
struct SegmentationOptions {
  /// Sub-trajectories with fewer points are discarded ("Sub trajectories
  /// with less than ten trajectory points were discarded", §3.2).
  int min_points = 10;
  /// Start a new segment when the (UTC) day changes. A new segment always
  /// starts when the annotated mode changes.
  bool split_on_day = true;
  /// Start a new segment when the gap between consecutive fixes exceeds
  /// this many seconds; <= 0 disables gap splitting. Signal-loss handling.
  double max_gap_seconds = 0.0;
  /// Drop segments whose mode is kUnknown (unlabelled data is useless for
  /// supervised training).
  bool drop_unlabeled = true;
};

/// Splits one raw trajectory into maximal runs of (same day, same mode)
/// points, per the options. Points must be time-ordered; out-of-order points
/// are dropped (with the preceding point as reference), mirroring the
/// dataset-cleaning behaviour of the paper's TrajLib implementation.
std::vector<Segment> SegmentTrajectory(const Trajectory& trajectory,
                                       const SegmentationOptions& options);

/// Segments a whole corpus (all users).
std::vector<Segment> SegmentCorpus(const std::vector<Trajectory>& corpus,
                                   const SegmentationOptions& options);

/// Fixed-duration windowing, the alternative segmentation used by several
/// of the compared works (e.g. Dabiri & Heaslip cut fixed-size segments).
struct WindowSegmentationOptions {
  /// Window length in seconds.
  double window_seconds = 180.0;
  /// Windows with fewer points are discarded.
  int min_points = 10;
  /// Label = majority mode of the window's points; when this fraction of
  /// points disagrees with the majority, the window is dropped as mixed.
  double max_minority_fraction = 0.2;
  /// Drop windows whose majority mode is kUnknown.
  bool drop_unlabeled = true;
};

/// Cuts one trajectory into consecutive fixed-duration windows.
std::vector<Segment> SegmentTrajectoryByWindows(
    const Trajectory& trajectory, const WindowSegmentationOptions& options);

/// Windows a whole corpus.
std::vector<Segment> SegmentCorpusByWindows(
    const std::vector<Trajectory>& corpus,
    const WindowSegmentationOptions& options);

}  // namespace trajkit::traj

#endif  // TRAJKIT_TRAJ_SEGMENTATION_H_
