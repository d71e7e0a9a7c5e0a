#include "serve/session_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace trajkit::serve {

std::string_view CloseReasonToString(CloseReason reason) {
  switch (reason) {
    case CloseReason::kModeChange:
      return "mode_change";
    case CloseReason::kDayBoundary:
      return "day_boundary";
    case CloseReason::kTimeGap:
      return "time_gap";
    case CloseReason::kMaxWindow:
      return "max_window";
    case CloseReason::kIdle:
      return "idle";
    case CloseReason::kSessionCap:
      return "session_cap";
    case CloseReason::kFlush:
      return "flush";
  }
  return "unknown";
}

SessionManagerStats& SessionManagerStats::operator+=(
    const SessionManagerStats& other) {
  points_ingested += other.points_ingested;
  points_dropped_out_of_order += other.points_dropped_out_of_order;
  segments_emitted += other.segments_emitted;
  segments_discarded_short += other.segments_discarded_short;
  segments_discarded_unlabeled += other.segments_discarded_unlabeled;
  sessions_evicted_idle += other.sessions_evicted_idle;
  sessions_evicted_cap += other.sessions_evicted_cap;
  return *this;
}

SessionManagerStats& SessionManagerStats::operator-=(
    const SessionManagerStats& other) {
  points_ingested -= other.points_ingested;
  points_dropped_out_of_order -= other.points_dropped_out_of_order;
  segments_emitted -= other.segments_emitted;
  segments_discarded_short -= other.segments_discarded_short;
  segments_discarded_unlabeled -= other.segments_discarded_unlabeled;
  sessions_evicted_idle -= other.sessions_evicted_idle;
  sessions_evicted_cap -= other.sessions_evicted_cap;
  return *this;
}

SessionManager::SessionManager(SessionOptions options) : options_(options) {}

void SessionManager::CloseSegment(int64_t session_id, Session* session,
                                  CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  if (session->count == 0) return;
  // Feature extraction needs two points even when the configured floor is
  // lower.
  const size_t min_points =
      std::max<size_t>(2, static_cast<size_t>(
                              std::max(options_.segmentation.min_points, 0)));
  if (session->count < min_points) {
    ++stats_.segments_discarded_short;
  } else if (options_.segmentation.drop_unlabeled &&
             session->mode == traj::Mode::kUnknown) {
    ++stats_.segments_discarded_unlabeled;
  } else {
    Result<std::vector<double>> features = session->extractor.Flush();
    TRAJKIT_CHECK(features.ok()) << features.status().ToString();
    ClosedSegment segment;
    segment.session_id = session_id;
    segment.user_id = static_cast<int>(session_id);
    segment.day = session->day;
    segment.mode = session->mode;
    segment.start_time = session->start_time;
    segment.end_time = session->last_time;
    segment.num_points = session->count;
    segment.reason = reason;
    segment.bbox = session->bbox;
    segment.features = std::move(features).value();
    if (options_.keep_points) segment.points = session->points;
    closed->push_back(std::move(segment));
    ++stats_.segments_emitted;
  }
  session->extractor.Reset();
  session->points.clear();
  session->bbox = geo::BoundingBox();
  session->count = 0;
}

void SessionManager::Ingest(int64_t session_id,
                            const traj::TrajectoryPoint& point,
                            std::vector<ClosedSegment>* closed) {
  ++stats_.points_ingested;
  auto [it, inserted] = sessions_.try_emplace(session_id);
  Session& session = it->second;
  if (inserted) {
    session.extractor = StreamingFeatureExtractor(options_.point_features);
    lru_.push_front(session_id);
    session.lru = lru_.begin();
  } else if (session.lru != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, session.lru);
  }

  // Same cleaning rule as the offline segmenter: a fix older than the last
  // kept fix of this session is dropped (even across a segment boundary).
  if (session.has_last && point.timestamp < session.last_time) {
    ++stats_.points_dropped_out_of_order;
    return;
  }

  const int64_t day = traj::DayIndex(point.timestamp);
  if (session.count > 0) {
    // Boundary checks in the offline segmenter's order; the first match
    // names the close reason.
    bool boundary = false;
    CloseReason reason = CloseReason::kFlush;
    if (point.mode != session.mode) {
      boundary = true;
      reason = CloseReason::kModeChange;
    } else if (options_.segmentation.split_on_day && day != session.day) {
      boundary = true;
      reason = CloseReason::kDayBoundary;
    } else if (options_.segmentation.max_gap_seconds > 0.0 &&
               point.timestamp - session.last_time >
                   options_.segmentation.max_gap_seconds) {
      boundary = true;
      reason = CloseReason::kTimeGap;
    }
    if (boundary) CloseSegment(session_id, &session, reason, closed);
  }

  if (session.count == 0) {
    session.day = day;
    session.mode = point.mode;
    session.start_time = point.timestamp;
  }
  session.extractor.Add(point);
  if (options_.keep_points) session.points.push_back(point);
  session.bbox.Extend(point.pos);
  ++session.count;
  session.last_time = point.timestamp;
  session.has_last = true;

  // Max-window rule: the serving-only bound on per-segment buffers.
  if (options_.max_segment_points > 0 &&
      session.count >= options_.max_segment_points) {
    CloseSegment(session_id, &session, CloseReason::kMaxWindow, closed);
  }

  // Session cap: evict the least-recently-updated session. The current
  // session was just moved to the front, so the victim is always another
  // one.
  if (options_.max_sessions > 0 && sessions_.size() > options_.max_sessions) {
    CloseSession(lru_.back(), CloseReason::kSessionCap, closed);
  }
}

void SessionManager::EvictIdle(double now,
                               std::vector<ClosedSegment>* closed) {
  if (options_.idle_after_seconds <= 0.0) return;
  std::vector<int64_t> idle;
  for (const auto& [session_id, session] : sessions_) {
    if (session.has_last &&
        now - session.last_time > options_.idle_after_seconds) {
      idle.push_back(session_id);
    }
  }
  for (int64_t session_id : idle) {
    CloseSession(session_id, CloseReason::kIdle, closed);
  }
}

void SessionManager::FlushAll(std::vector<ClosedSegment>* closed) {
  for (auto& [session_id, session] : sessions_) {
    CloseSegment(session_id, &session, CloseReason::kFlush, closed);
  }
  sessions_.clear();
  lru_.clear();
}

void SessionManager::CloseSession(int64_t session_id, CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  CloseSegment(session_id, &it->second, reason, closed);
  lru_.erase(it->second.lru);
  sessions_.erase(it);
  if (reason == CloseReason::kIdle) {
    ++stats_.sessions_evicted_idle;
  } else if (reason == CloseReason::kSessionCap) {
    ++stats_.sessions_evicted_cap;
  }
}

}  // namespace trajkit::serve
