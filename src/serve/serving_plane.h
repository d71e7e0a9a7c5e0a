#ifndef TRAJKIT_SERVE_SERVING_PLANE_H_
#define TRAJKIT_SERVE_SERVING_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"

namespace trajkit::serve {

/// Configuration of a sharded serving plane.
struct ServingPlaneOptions {
  /// Number of independent shards; clamped to >= 1.
  size_t shards = 1;
  /// Per-shard session-layer configuration. `session.max_sessions` is a
  /// PER-SHARD cap (the plane-wide ceiling is shards * max_sessions).
  SessionOptions session;
  /// Per-shard micro-batching / admission-control configuration.
  /// `batching.shard` is overwritten with the shard index;
  /// `batching.max_queue` is a per-shard watermark. A configured
  /// `batching.fault_injector` is shared by every shard (its fault draws
  /// are mutex-guarded).
  BatchPredictorOptions batching;
};

/// What one shard step changed that is visible outside its shard: the
/// session counters it added to, the shard's open-session count after it,
/// and the segments it closed (in close order; ascending session id for an
/// eviction). A shard step produces it; ServingPlane::Commit publishes it.
struct ShardStep {
  size_t shard = 0;
  SessionManagerStats delta;
  size_t open_sessions = 0;
  std::vector<ClosedSegment> closed;
};

/// N independent serving shards — shard-per-core scaling of the ingest
/// path. Requests are routed by hash(user_id) % shards; each shard owns
/// its session map, streaming-extractor state, micro-batch queue, deadline
/// sweeper, and admission-control watermarks, so writers on different
/// shards never contend. Predictions fan in through the single versioned
/// ModelRegistry: every shard snapshots the same registry per batch, so a
/// hot swap stays atomic across shards.
///
/// Every session-layer call is split in two:
///  - a *shard step* (IngestStep, EvictStep) advances one shard's
///    SessionManager and returns a ShardStep. It touches nothing outside
///    that shard, so steps of different shards may run on different
///    threads, and ahead of what the rest of the process has seen;
///  - the *commit* (Commit, CommitPoints) makes a step visible: it
///    publishes the serve.sessions.* series of the step's shard, mints
///    each closed segment's trace id, and calls the closed sink. One
///    thread commits, in one canonical order.
/// Ingest/EvictIdle/FlushAll are a step (of every shard, for the latter
/// two) followed at once by its commit — the serial API. ReplayCorpus
/// runs the steps on ingest workers and commits on its driver thread in
/// (point sequence, phase, session id) order, the order the serial API
/// produces.
///
/// Determinism contract (the CI shard-determinism matrix pins it): replay
/// output is byte-identical at any shard and thread count. Three
/// properties carry the argument:
///  - Routing is a pure function of user_id, so a user's stream always
///    lands on one shard in arrival order; per-session segmentation state
///    never crosses shards and close decisions are shard-count-invariant.
///  - A commit of several shards' steps (EvictIdle/FlushAll) merges their
///    closes into globally ascending session-id order — the exact order
///    one unsharded manager produces, which keeps trace-id mint order,
///    sink order, and submit order identical.
///  - A prediction is bit-identical whatever micro-batch (and therefore
///    shard queue) it lands in, per the BatchPredictor contract.
///
/// Thread safety: each shard is single-writer for its steps (and so for
/// Ingest/EvictIdle/FlushAll). Ingest on different shards may run on
/// different threads concurrently: its commit touches only its shard's
/// series, the tracer, and the closed sink (which must then tolerate
/// concurrent calls). Other commits come from one thread at a time.
/// Submit is safe from any thread.
class ServingPlane {
 public:
  /// `registry` must outlive the plane.
  ServingPlane(const ModelRegistry* registry, ServingPlaneOptions options);
  /// Zeroes the shards' active-session series, so a later plane with
  /// fewer shards does not count this one's sessions.
  ~ServingPlane();

  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// The shard `user_id` routes to: splitmix64(user_id) % shards. Stable
  /// for the lifetime of the plane — resubmits and retries of the same
  /// user always land on the same shard.
  size_t ShardOf(int64_t user_id) const;

  /// Ingests one fix for `user_id` on its shard (session id = user id) and
  /// commits it.
  void Ingest(int64_t user_id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed);

  /// Closes idle sessions across all shards and commits them, interleaved
  /// in globally ascending session-id order.
  void EvictIdle(double now, std::vector<ClosedSegment>* closed);

  /// Closes every open segment across all shards in globally ascending
  /// session-id order, drops all sessions, and commits.
  void FlushAll(std::vector<ClosedSegment>* closed);

  /// Shard step: ingests one fix on `user_id`'s shard, overwriting `*step`.
  /// Returns false when the step's only effect is one more
  /// points_ingested — nothing a commit would publish besides the count.
  bool IngestStep(int64_t user_id, const traj::TrajectoryPoint& point,
                  ShardStep* step);

  /// Shard step: closes `shard`'s sessions idle at `now` (ascending session
  /// id), overwriting `*step`. Returns false when nothing changed.
  bool EvictStep(size_t shard, double now, ShardStep* step);

  /// Commit: publishes `steps` — each of a different shard, all at one
  /// position of the canonical order — and appends their closed segments
  /// to `closed` in ascending session-id order (a single step keeps its
  /// own close order), each with its trace id minted and passed to the
  /// closed sink.
  void Commit(std::span<ShardStep> steps, std::vector<ClosedSegment>* closed);

  /// Commit of `points` fixes ingested on `shard` whose steps had no other
  /// effect: publishes serve.sessions.points_ingested. Steps committed
  /// this way must carry delta.points_ingested == 0.
  void CommitPoints(size_t shard, size_t points);

  /// Submits one request to `user_id`'s shard.
  std::future<Result<Prediction>> Submit(int64_t user_id,
                                         PredictRequest request);

  /// Drains every shard's pending queue on the calling thread.
  void FlushPredictors();

  /// Installs the observer Commit calls for every closed segment, on the
  /// committing thread and in commit order.
  void set_closed_sink(std::function<void(const ClosedSegment&)> sink) {
    closed_sink_ = std::move(sink);
  }

  SessionManager& sessions(size_t shard);
  BatchPredictor& predictor(size_t shard);

  /// Open sessions across all shards.
  size_t num_open_sessions() const;

  /// Session-layer counters summed across shards.
  SessionManagerStats session_stats() const;

  /// Predictor counters summed across shards (max_batch is the max).
  BatchPredictor::Counters predictor_counters() const;

 private:
  struct Shard;

  /// Runs `call(&step->closed)` on shard `shard`'s session manager as one
  /// shard step, overwriting `*step`.
  template <typename Call>
  void Step(size_t shard, ShardStep* step, Call call);

  /// Closes every open segment of `shard`, overwriting `*step`.
  void FlushStep(size_t shard, ShardStep* step);

  /// Mints the trace id of each segment in closed[first..] and passes it
  /// to the closed sink, in order.
  void Announce(std::vector<ClosedSegment>* closed, size_t first);

  /// unique_ptr: shards are immovable (mutexes, threads) and the vector
  /// is sized once in the constructor.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(const ClosedSegment&)> closed_sink_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SERVING_PLANE_H_
