#include "serve/serving_plane.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace trajkit::serve {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed hash so consecutive user ids
/// spread evenly instead of striping across shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The stats delta of a fix that only counted itself: no close, drop,
/// discard or eviction.
constexpr SessionManagerStats kOnePoint{.points_ingested = 1};

}  // namespace

/// One shard: its session manager, its predictor, and its series of every
/// serve.sessions.* metric — `{shard="i"}` series of one family each, so
/// a family total sums the shards and one event moves one atomic.
struct ServingPlane::Shard {
  Shard(const ModelRegistry* registry, const SessionOptions& session,
        const BatchPredictorOptions& batching, int index)
      : sessions(session),
        predictor(registry, batching),
        points(Counter("serve.sessions.points_ingested", index)),
        out_of_order(
            Counter("serve.sessions.points_dropped_out_of_order", index)),
        emitted(Counter("serve.sessions.segments_emitted", index)),
        discarded_short(
            Counter("serve.sessions.segments_discarded_short", index)),
        discarded_unlabeled(
            Counter("serve.sessions.segments_discarded_unlabeled", index)),
        evicted_idle(Counter("serve.sessions.evicted_idle", index)),
        evicted_cap(Counter("serve.sessions.evicted_cap", index)),
        active(obs::MetricsRegistry::Global().GetGauge(
            "serve.sessions.active", index)) {
    for (size_t r = 0; r < closed_by_reason.size(); ++r) {
      closed_by_reason[r] = &Counter(
          "serve.sessions.closed." +
              std::string(CloseReasonToString(static_cast<CloseReason>(r))),
          index);
    }
  }

  static obs::Counter& Counter(const std::string& name, int index) {
    return obs::MetricsRegistry::Global().GetCounter(name, index);
  }

  /// Publishes a step's counter increments, its closes by reason, and the
  /// shard's open-session count after it.
  void Publish(const SessionManagerStats& delta, size_t open_sessions,
               std::span<const ClosedSegment> closed) {
    if (delta.points_ingested > 0) points.Increment(delta.points_ingested);
    if (delta.points_dropped_out_of_order > 0) {
      out_of_order.Increment(delta.points_dropped_out_of_order);
    }
    if (delta.segments_emitted > 0) emitted.Increment(delta.segments_emitted);
    if (delta.segments_discarded_short > 0) {
      discarded_short.Increment(delta.segments_discarded_short);
    }
    if (delta.segments_discarded_unlabeled > 0) {
      discarded_unlabeled.Increment(delta.segments_discarded_unlabeled);
    }
    if (delta.sessions_evicted_idle > 0) {
      evicted_idle.Increment(delta.sessions_evicted_idle);
    }
    if (delta.sessions_evicted_cap > 0) {
      evicted_cap.Increment(delta.sessions_evicted_cap);
    }
    for (const ClosedSegment& segment : closed) {
      closed_by_reason[static_cast<size_t>(segment.reason)]->Increment();
    }
    active.Set(static_cast<double>(open_sessions));
  }

  SessionManager sessions;
  BatchPredictor predictor;
  obs::Counter& points;
  obs::Counter& out_of_order;
  obs::Counter& emitted;
  obs::Counter& discarded_short;
  obs::Counter& discarded_unlabeled;
  obs::Counter& evicted_idle;
  obs::Counter& evicted_cap;
  obs::Gauge& active;
  std::array<obs::Counter*, 7> closed_by_reason;
  /// Ingest's step, reused so the per-fix path keeps its buffers.
  ShardStep ingest_step;
};

ServingPlane::ServingPlane(const ModelRegistry* registry,
                           ServingPlaneOptions options) {
  const size_t shards = std::max<size_t>(1, options.shards);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    BatchPredictorOptions batching = options.batching;
    batching.shard = static_cast<int>(s);
    shards_.push_back(std::make_unique<Shard>(
        registry, options.session, batching, static_cast<int>(s)));
  }
}

ServingPlane::~ServingPlane() {
  for (auto& shard : shards_) shard->active.Set(0.0);
}

size_t ServingPlane::ShardOf(int64_t user_id) const {
  return static_cast<size_t>(Mix64(static_cast<uint64_t>(user_id)) %
                             shards_.size());
}

template <typename Call>
void ServingPlane::Step(size_t shard, ShardStep* step, Call call) {
  const SessionManager& sessions = shards_[shard]->sessions;
  step->shard = shard;
  step->closed.clear();
  const SessionManagerStats before = sessions.stats();
  call(&step->closed);
  step->delta = sessions.stats();
  step->delta -= before;
  step->open_sessions = sessions.num_open_sessions();
}

void ServingPlane::Ingest(int64_t user_id,
                          const traj::TrajectoryPoint& point,
                          std::vector<ClosedSegment>* closed) {
  ShardStep& step = shards_[ShardOf(user_id)]->ingest_step;
  if (!IngestStep(user_id, point, &step)) {
    CommitPoints(step.shard, 1);
    return;
  }
  Commit({&step, 1}, closed);
}

void ServingPlane::EvictIdle(double now,
                             std::vector<ClosedSegment>* closed) {
  std::vector<ShardStep> steps(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) EvictStep(s, now, &steps[s]);
  Commit(steps, closed);
}

void ServingPlane::FlushAll(std::vector<ClosedSegment>* closed) {
  std::vector<ShardStep> steps(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) FlushStep(s, &steps[s]);
  Commit(steps, closed);
}

bool ServingPlane::IngestStep(int64_t user_id,
                              const traj::TrajectoryPoint& point,
                              ShardStep* step) {
  const size_t shard = ShardOf(user_id);
  SessionManager& sessions = shards_[shard]->sessions;
  const size_t open_before = sessions.num_open_sessions();
  Step(shard, step, [&](std::vector<ClosedSegment>* closed) {
    sessions.Ingest(user_id, point, closed);
  });
  return step->delta != kOnePoint || step->open_sessions != open_before;
}

bool ServingPlane::EvictStep(size_t shard, double now, ShardStep* step) {
  Step(shard, step, [&](std::vector<ClosedSegment>* closed) {
    shards_[shard]->sessions.EvictIdle(now, closed);
  });
  return step->delta != SessionManagerStats{};
}

void ServingPlane::FlushStep(size_t shard, ShardStep* step) {
  Step(shard, step, [&](std::vector<ClosedSegment>* closed) {
    shards_[shard]->sessions.FlushAll(closed);
  });
}

void ServingPlane::Commit(std::span<ShardStep> steps,
                          std::vector<ClosedSegment>* closed) {
  const size_t first = closed->size();
  for (ShardStep& step : steps) {
    shards_[step.shard]->Publish(step.delta, step.open_sessions, step.closed);
    for (ClosedSegment& segment : step.closed) {
      closed->push_back(std::move(segment));
    }
    step.closed.clear();
  }
  // Steps of several shards: a user routes to exactly one shard, so
  // session ids are unique across them and ascending id is a total order.
  if (steps.size() > 1) {
    std::sort(closed->begin() + static_cast<ptrdiff_t>(first), closed->end(),
              [](const ClosedSegment& a, const ClosedSegment& b) {
                return a.session_id < b.session_id;
              });
  }
  Announce(closed, first);
}

void ServingPlane::Announce(std::vector<ClosedSegment>* closed,
                            size_t first) {
  // Trace ids are minted here, on the committing thread in commit order,
  // so ids — and with them the head-sampling decision — do not depend on
  // which thread ran the step or how far ahead it ran.
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  for (size_t i = first; i < closed->size(); ++i) {
    ClosedSegment& segment = (*closed)[i];
    if (tracer.enabled()) {
      segment.trace_id = tracer.Mint();
      tracer.RecordInstant(segment.trace_id, "segment_close",
                           obs::TracePhase::kSession, tracer.NowNs(),
                           static_cast<uint64_t>(segment.reason));
    }
    if (closed_sink_) closed_sink_(segment);
  }
}

void ServingPlane::CommitPoints(size_t shard, size_t points) {
  shards_[shard]->points.Increment(points);
}

std::future<Result<Prediction>> ServingPlane::Submit(int64_t user_id,
                                                     PredictRequest request) {
  return shards_[ShardOf(user_id)]->predictor.Submit(std::move(request));
}

void ServingPlane::FlushPredictors() {
  for (auto& shard : shards_) shard->predictor.Flush();
}

SessionManager& ServingPlane::sessions(size_t shard) {
  return shards_[shard]->sessions;
}

BatchPredictor& ServingPlane::predictor(size_t shard) {
  return shards_[shard]->predictor;
}

size_t ServingPlane::num_open_sessions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sessions.num_open_sessions();
  }
  return total;
}

SessionManagerStats ServingPlane::session_stats() const {
  SessionManagerStats total;
  for (const auto& shard : shards_) total += shard->sessions.stats();
  return total;
}

BatchPredictor::Counters ServingPlane::predictor_counters() const {
  BatchPredictor::Counters total;
  for (const auto& shard : shards_) {
    const BatchPredictor::Counters counters = shard->predictor.counters();
    total.requests += counters.requests;
    total.batches += counters.batches;
    total.max_batch = std::max(total.max_batch, counters.max_batch);
    total.shed += counters.shed;
    total.deadline_exceeded += counters.deadline_exceeded;
    total.degraded += counters.degraded;
    total.unavailable += counters.unavailable;
  }
  return total;
}

}  // namespace trajkit::serve
