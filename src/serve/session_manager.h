#ifndef TRAJKIT_SERVE_SESSION_MANAGER_H_
#define TRAJKIT_SERVE_SESSION_MANAGER_H_

#include <cstdint>
#include <list>
#include <map>
#include <string_view>
#include <vector>

#include "geo/geodesy.h"
#include "serve/streaming_features.h"
#include "traj/segmentation.h"
#include "traj/types.h"

namespace trajkit::serve {

/// Configuration of the per-user streaming sessions. The segment-close
/// rules are the offline segmenter's own `traj::SegmentationOptions`, so
/// that a replayed stream closes exactly the segments the offline pipeline
/// cuts (a mode change always closes; live traffic carries kUnknown
/// throughout). The extra knobs (max-window, idle eviction, session cap)
/// bound memory for long-running service with millions of sessions.
struct SessionOptions {
  traj::SegmentationOptions segmentation;
  /// Max-window rule: force-close an open segment once it holds this many
  /// points, bounding the per-session buffers. 0 = unbounded (offline
  /// parity mode).
  size_t max_segment_points = 0;
  /// EvictIdle() closes sessions whose last fix is older than this many
  /// seconds; <= 0 disables idle eviction.
  double idle_after_seconds = 1800.0;
  /// Hard cap on concurrently open sessions; beyond it the
  /// least-recently-updated session is flushed and evicted. 0 = unbounded.
  size_t max_sessions = 0;
  /// Retain the raw points of emitted segments (tests / debugging; off in
  /// production to keep closed segments small).
  bool keep_points = false;
  /// Forwarded to the streaming feature extractor.
  traj::PointFeatureOptions point_features;
};

/// Why a segment was closed.
enum class CloseReason {
  kModeChange,
  kDayBoundary,
  kTimeGap,
  kMaxWindow,
  kIdle,
  kSessionCap,
  kFlush,
};

/// Stable lower-case name of a CloseReason ("mode_change", ...).
std::string_view CloseReasonToString(CloseReason reason);

/// One finished sub-trajectory emitted by the session layer, carrying the
/// flushed 70-dim feature vector — the unit of work handed to prediction.
struct ClosedSegment {
  int64_t session_id = 0;
  int user_id = 0;
  int64_t day = 0;
  traj::Mode mode = traj::Mode::kUnknown;
  double start_time = 0.0;
  double end_time = 0.0;
  size_t num_points = 0;
  CloseReason reason = CloseReason::kFlush;
  /// Request trace id minted when the ServingPlane commits the segment and
  /// tracing is enabled (obs/request_trace.h); 0 otherwise. Replay
  /// propagates it into the PredictRequest so segment close and prediction
  /// share one trace.
  uint64_t trace_id = 0;
  /// Minimum bounding rectangle of the segment's kept fixes, tracked
  /// incrementally at ingest (store/trajectory_store.h indexes it).
  geo::BoundingBox bbox;
  /// The 70 trajectory features (bit-identical to the batch extractor).
  std::vector<double> features;
  /// Raw points; populated only when SessionOptions::keep_points.
  std::vector<traj::TrajectoryPoint> points;
};

/// Counters of one SessionManager's lifetime — or, as a ShardStep's delta
/// (serve/serving_plane.h), what one call added to them.
struct SessionManagerStats {
  size_t points_ingested = 0;
  size_t points_dropped_out_of_order = 0;
  size_t segments_emitted = 0;
  size_t segments_discarded_short = 0;
  size_t segments_discarded_unlabeled = 0;
  size_t sessions_evicted_idle = 0;
  size_t sessions_evicted_cap = 0;

  bool operator==(const SessionManagerStats&) const = default;
  SessionManagerStats& operator+=(const SessionManagerStats& other);
  SessionManagerStats& operator-=(const SessionManagerStats& other);
};

/// Per-user streaming sessions: points are ingested one at a time, open
/// segments are closed incrementally by the offline segmentation rules
/// (mode change / day boundary / time gap) plus the serving-only max-window
/// rule, and memory stays bounded via the idle-eviction policy and the
/// LRU session cap.
///
/// A pure state machine: its only outputs are the closed segments it
/// appends and its own stats(). It writes no metric, mints no trace id and
/// calls no observer — the ServingPlane's commit step publishes all of
/// that, in a canonical order, from the stats delta of each call. So a
/// manager may run ahead of what the rest of the process has seen.
/// Single-writer: callers serialize Ingest/EvictIdle/FlushAll (shard
/// across SessionManagers to scale writers).
class SessionManager {
 public:
  explicit SessionManager(SessionOptions options = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Ingests one fix for `session_id`. At most one boundary-closed segment
  /// plus one cap-evicted segment are appended to `closed`. Out-of-order
  /// fixes (timestamp before the session's last kept fix) are dropped,
  /// mirroring the offline cleaner.
  void Ingest(int64_t session_id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed);

  /// Closes and evicts every session idle longer than
  /// `idle_after_seconds` relative to `now`, appending the flushed
  /// segments (ascending session id — deterministic). No-op when idle
  /// eviction is disabled.
  void EvictIdle(double now, std::vector<ClosedSegment>* closed);

  /// Closes every open segment (ascending session id) and drops all
  /// sessions — end-of-stream / shutdown.
  void FlushAll(std::vector<ClosedSegment>* closed);

  size_t num_open_sessions() const { return sessions_.size(); }
  const SessionManagerStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  struct Session {
    StreamingFeatureExtractor extractor;
    std::vector<traj::TrajectoryPoint> points;  // keep_points only.
    geo::BoundingBox bbox;  // MBR of the open segment's kept fixes.
    int64_t day = 0;
    traj::Mode mode = traj::Mode::kUnknown;
    double start_time = 0.0;
    double last_time = 0.0;
    bool has_last = false;  // Any fix kept since the session was created.
    size_t count = 0;       // Points in the open segment (0 = none open).
    std::list<int64_t>::iterator lru;
  };

  /// Flushes the open segment of `session` (if any) as `reason`, applying
  /// the min-point and unlabeled filters, and resets it for the next one.
  void CloseSegment(int64_t session_id, Session* session, CloseReason reason,
                    std::vector<ClosedSegment>* closed);

  /// Closes `session_id`'s open segment as `reason` and erases the session
  /// (with eviction bookkeeping for kIdle / kSessionCap).
  void CloseSession(int64_t session_id, CloseReason reason,
                    std::vector<ClosedSegment>* closed);

  SessionOptions options_;
  SessionManagerStats stats_;
  /// Ordered map: deterministic iteration for eviction and flush.
  std::map<int64_t, Session> sessions_;
  /// Recency list, most recently updated first.
  std::list<int64_t> lru_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SESSION_MANAGER_H_
