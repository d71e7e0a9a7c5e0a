// Tests for the sharded serving plane (src/serve/serving_plane.h): routing
// stability, byte-identical replay output across shard counts, per-shard
// LRU caps, the globally ascending cross-shard close order, shard-labeled
// metric series, the races CI reruns under TSan — parallel ingest across
// shards and model hot swaps under sharded predict — and ReplayCorpus's
// concurrent ingest against its serial path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/batch_predictor.h"
#include "serve/continuous_training.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/statusz.h"
#include "synthgeo/generator.h"
#include "traj/types.h"

namespace trajkit::serve {
namespace {

// Same corpus/forest recipe as serve_test's ReplayFixture; built once per
// binary (forest training dominates runtime).
struct ShardFixture {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  ml::Dataset dataset;
  std::vector<int> offline_predictions;
  size_t offline_correct = 0;
  ServingModel model;

  static const ShardFixture& Get() {
    static const ShardFixture* fixture = new ShardFixture();
    return *fixture;
  }

 private:
  ShardFixture() {
    synthgeo::GeneratorOptions generator_options;
    generator_options.num_users = 4;
    generator_options.days_per_user = 2;
    generator_options.seed = 19;
    synthgeo::GeoLifeLikeGenerator generator(generator_options);
    corpus = generator.Generate();
    const core::Pipeline pipeline;
    dataset = std::move(pipeline.BuildDataset(corpus, labels)).value();
    ml::RandomForestParams params;
    params.n_estimators = 15;
    ml::RandomForest forest(params);
    TRAJKIT_CHECK(forest.Fit(dataset).ok());
    offline_predictions = forest.Predict(dataset.features());
    for (size_t i = 0; i < offline_predictions.size(); ++i) {
      if (offline_predictions[i] == dataset.labels()[i]) ++offline_correct;
    }
    model = std::move(MakeServingModel("v1", std::move(forest),
                                       traj::kNumTrajectoryFeatures))
                .value();
  }
};

// A plausible labelled walk for `user_id`: monotone timestamps, small
// steps, kWalk throughout (never split by mode/day inside the stream).
std::vector<traj::TrajectoryPoint> WalkPoints(int64_t user_id, size_t n,
                                              double start = 1.2e9) {
  Rng rng(static_cast<uint64_t>(user_id) * 7919u + 1);
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  double t = start;
  double lat = 39.9 + 0.001 * static_cast<double>(user_id % 97);
  double lon = 116.3;
  for (size_t i = 0; i < n; ++i) {
    traj::TrajectoryPoint point;
    point.pos = {lat, lon};
    point.timestamp = t;
    point.mode = traj::Mode::kWalk;
    points.push_back(point);
    t += rng.Uniform(1.0, 20.0);
    lat += rng.Gaussian(0.0, 1e-4);
    lon += rng.Gaussian(0.0, 1e-4);
  }
  return points;
}

// Every series of counter family `name`, keyed by shard label (-1 is the
// unlabeled series).
std::map<int, uint64_t> SeriesOf(std::string_view name) {
  std::map<int, uint64_t> out;
  const obs::CounterFamily* family =
      obs::MetricsRegistry::Global().FindCounter(name);
  if (family == nullptr) return out;
  for (const auto& [shard, series] : family->series()) {
    out[shard] = series->value();
  }
  return out;
}

// --------------------------------------------------------------- Routing --

TEST(ShardRouterTest, SameUserAlwaysSameShardAndAllShardsReachable) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 8;
  ServingPlane plane(&registry, options);
  ASSERT_EQ(plane.num_shards(), 8u);

  std::set<size_t> hit;
  for (int64_t user = 0; user < 4096; ++user) {
    const size_t shard = plane.ShardOf(user);
    ASSERT_LT(shard, 8u);
    // A resubmit / retry re-resolves the route; it must never move.
    EXPECT_EQ(plane.ShardOf(user), shard);
    EXPECT_EQ(plane.ShardOf(user), shard);
    hit.insert(shard);
  }
  // splitmix64 over 4096 consecutive ids must reach every shard.
  EXPECT_EQ(hit.size(), 8u);
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToShardZero) {
  ModelRegistry registry;
  ServingPlane plane(&registry, ServingPlaneOptions{});
  ASSERT_EQ(plane.num_shards(), 1u);
  for (int64_t user = -5; user < 100; ++user) {
    EXPECT_EQ(plane.ShardOf(user), 0u);
  }
}

// ---------------------------------------------------- Replay determinism --

TEST(ShardReplayTest, OneShardMatchesOfflinePipeline) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlane plane(&registry, ServingPlaneOptions{});
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->segments_evaluated, fixture.dataset.num_samples());
  EXPECT_EQ(report->correct, fixture.offline_correct);
}

TEST(ShardReplayTest, ReplayIsByteIdenticalAcrossShardCounts) {
  const ShardFixture& fixture = ShardFixture::Get();

  struct Run {
    ReplayReport report;
    // Sink-observed close order: (session_id, start_time, reason).
    std::vector<std::tuple<int64_t, double, CloseReason>> closes;
  };
  const auto run = [&](size_t shards) {
    ModelRegistry registry;
    EXPECT_TRUE(registry.Publish(fixture.model).ok());
    ServingPlaneOptions options;
    options.shards = shards;
    // Exercise the cross-shard evict merge too, not just FlushAll.
    options.session.idle_after_seconds = 6.0 * 3600.0;
    ServingPlane plane(&registry, options);
    Run result;
    plane.set_closed_sink([&result](const ClosedSegment& segment) {
      result.closes.emplace_back(segment.session_id, segment.start_time,
                                 segment.reason);
    });
    ReplayOptions replay_options;
    replay_options.evict_every_points = 500;
    auto report =
        ReplayCorpus(fixture.corpus, fixture.labels, plane, replay_options);
    EXPECT_TRUE(report.ok());
    result.report = std::move(report).value();
    return result;
  };

  const Run one = run(1);
  ASSERT_GT(one.report.segments_evaluated, 0u);
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    const Run sharded = run(shards);
    // The full scored stream, element for element, in close order.
    EXPECT_EQ(sharded.report.y_true, one.report.y_true) << shards;
    EXPECT_EQ(sharded.report.y_pred, one.report.y_pred) << shards;
    EXPECT_EQ(sharded.report.points, one.report.points) << shards;
    EXPECT_EQ(sharded.report.segments_closed, one.report.segments_closed);
    EXPECT_EQ(sharded.report.segments_evaluated,
              one.report.segments_evaluated);
    EXPECT_EQ(sharded.report.correct, one.report.correct) << shards;
    // Session-layer counters summed across shards match one manager.
    EXPECT_EQ(sharded.report.session_stats.points_ingested,
              one.report.session_stats.points_ingested);
    EXPECT_EQ(sharded.report.session_stats.segments_emitted,
              one.report.session_stats.segments_emitted);
    EXPECT_EQ(sharded.report.session_stats.segments_discarded_short,
              one.report.session_stats.segments_discarded_short);
    EXPECT_EQ(sharded.report.session_stats.sessions_evicted_idle,
              one.report.session_stats.sessions_evicted_idle);
    // The sink saw the exact same segments in the exact same order.
    EXPECT_EQ(sharded.closes, one.closes) << shards;
  }
}

// ------------------------------------------------- Cross-shard close order --

TEST(ShardCloseOrderTest, FlushAllClosesInGloballyAscendingSessionIdOrder) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 4;
  options.session.segmentation.min_points = 2;
  ServingPlane plane(&registry, options);

  std::vector<ClosedSegment> closed;
  // Ingest users in a scrambled order; shard assignment scatters them
  // further. FlushAll must still close 0, 1, 2, ... like one manager.
  for (const int64_t user : {11, 3, 7, 0, 14, 5, 9, 1, 12, 8}) {
    for (const auto& point : WalkPoints(user, 6)) {
      plane.Ingest(user, point, &closed);
    }
  }
  ASSERT_TRUE(closed.empty());
  EXPECT_EQ(plane.num_open_sessions(), 10u);

  plane.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 10u);
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_LT(closed[i - 1].session_id, closed[i].session_id) << i;
  }
  EXPECT_EQ(plane.num_open_sessions(), 0u);
}

TEST(ShardCloseOrderTest, EvictIdleMergesAscendingAcrossShards) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 4;
  options.session.segmentation.min_points = 2;
  options.session.idle_after_seconds = 60.0;
  ServingPlane plane(&registry, options);

  std::vector<ClosedSegment> closed;
  for (int64_t user = 0; user < 12; ++user) {
    for (const auto& point : WalkPoints(user, 5)) {
      plane.Ingest(user, point, &closed);
    }
  }
  ASSERT_TRUE(closed.empty());

  plane.EvictIdle(1.2e9 + 1e6, &closed);  // Everything is long idle.
  ASSERT_EQ(closed.size(), 12u);
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].session_id, static_cast<int64_t>(i));
    EXPECT_EQ(closed[i].reason, CloseReason::kIdle);
  }
  EXPECT_EQ(plane.session_stats().sessions_evicted_idle, 12u);
}

// --------------------------------------------------------- Per-shard caps --

TEST(ShardSessionTest, LruSessionCapIsEnforcedPerShard) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 4;
  options.session.segmentation.min_points = 2;
  options.session.max_sessions = 2;  // Per shard: plane-wide ceiling 8.
  ServingPlane plane(&registry, options);

  std::vector<ClosedSegment> closed;
  for (int64_t user = 0; user < 64; ++user) {
    for (const auto& point : WalkPoints(user, 4)) {
      plane.Ingest(user, point, &closed);
    }
    for (size_t s = 0; s < plane.num_shards(); ++s) {
      ASSERT_LE(plane.sessions(s).num_open_sessions(), 2u) << "user " << user;
    }
  }
  EXPECT_LE(plane.num_open_sessions(), 8u);
  EXPECT_GT(plane.session_stats().sessions_evicted_cap, 0u);
  // Cap evictions flushed full segments on the way out.
  EXPECT_GT(closed.size(), 0u);
  for (const ClosedSegment& segment : closed) {
    EXPECT_EQ(segment.reason, CloseReason::kSessionCap);
  }
}

// --------------------------------------------------------- Metric series --

TEST(ShardMetricsTest, ShardSeriesMatchEachShardsOwnCounts) {
  const ShardFixture& fixture = ShardFixture::Get();
  constexpr int kShards = 4;
  // Other tests in this binary (and earlier planes with more shards) have
  // already fed these process-wide families: compare per-series deltas.
  const std::vector<std::string> families = {
      "serve.sessions.points_ingested", "serve.sessions.segments_emitted",
      "serve.sessions.evicted_idle",    "serve.sessions.evicted_cap",
      "serve.batch_predictor.requests", "serve.shed_total.queue_full",
      "serve.shed_total.preempted",     "serve.deadline_exceeded_total",
      "serve.degraded_total.previous_model",
      "serve.degraded_total.majority_class", "serve.unavailable_total"};
  std::map<std::string, std::map<int, uint64_t>> before;
  for (const std::string& name : families) before[name] = SeriesOf(name);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions options;
  options.shards = kShards;
  ServingPlane plane(&registry, options);
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
  ASSERT_TRUE(report.ok());

  std::map<std::string, std::map<int, uint64_t>> delta;
  for (const std::string& name : families) {
    for (const auto& [shard, value] : SeriesOf(name)) {
      delta[name][shard] = value - before[name][shard];
      // No phantom series: only this plane's shards moved.
      if (shard < 0 || shard >= kShards) {
        EXPECT_EQ(delta[name][shard], 0u) << name << " shard " << shard;
      }
    }
  }
  uint64_t points = 0;
  size_t shards_with_points = 0;
  for (int s = 0; s < kShards; ++s) {
    const SessionManagerStats& stats = plane.sessions(s).stats();
    EXPECT_EQ(delta["serve.sessions.points_ingested"][s],
              stats.points_ingested) << s;
    EXPECT_EQ(delta["serve.sessions.segments_emitted"][s],
              stats.segments_emitted) << s;
    EXPECT_EQ(delta["serve.sessions.evicted_idle"][s],
              stats.sessions_evicted_idle) << s;
    EXPECT_EQ(delta["serve.sessions.evicted_cap"][s],
              stats.sessions_evicted_cap) << s;
    const BatchPredictor::Counters counters = plane.predictor(s).counters();
    EXPECT_EQ(delta["serve.batch_predictor.requests"][s], counters.requests)
        << s;
    EXPECT_EQ(delta["serve.shed_total.queue_full"][s] +
                  delta["serve.shed_total.preempted"][s],
              counters.shed) << s;
    EXPECT_EQ(delta["serve.deadline_exceeded_total"][s],
              counters.deadline_exceeded) << s;
    EXPECT_EQ(delta["serve.degraded_total.previous_model"][s] +
                  delta["serve.degraded_total.majority_class"][s],
              counters.degraded) << s;
    EXPECT_EQ(delta["serve.unavailable_total"][s], counters.unavailable)
        << s;
    points += stats.points_ingested;
    if (stats.points_ingested > 0) ++shards_with_points;
  }
  EXPECT_EQ(points, report->points);
  // 4 users over 4 shards: the fixture spreads across at least 2.
  EXPECT_GE(shards_with_points, 2u);
}

// A 2-shard plane holding N requests: every predictor writes its own depth
// series, and the family total — what statusz's queue line reads — is N.
TEST(ShardMetricsTest, QueueDepthTotalCountsEveryShardsHeldRequests) {
  const ShardFixture& fixture = ShardFixture::Get();
  constexpr size_t kHeld = 10;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions options;
  options.shards = 2;
  options.batching.max_batch_size = 64;
  options.batching.max_delay_seconds = 30.0;  // Hold until flushed.
  ServingPlane plane(&registry, options);

  std::set<size_t> shards_used;
  std::vector<std::future<Result<Prediction>>> futures;
  for (size_t i = 0; i < kHeld; ++i) {
    const auto row = fixture.dataset.features().Row(i);
    const int64_t user = static_cast<int64_t>(i);
    shards_used.insert(plane.ShardOf(user));
    futures.push_back(
        plane.Submit(user, PredictRequest({row.begin(), row.end()})));
  }
  ASSERT_EQ(shards_used.size(), 2u);

  const obs::GaugeFamily* depth =
      obs::MetricsRegistry::Global().FindGauge(
          "serve.batch_predictor.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value(), static_cast<double>(kHeld));
  const std::string page = RenderStatusPage(obs::MetricsRegistry::Global(),
                                            obs::RequestTracer::Global());
  EXPECT_NE(page.find("queue\n  depth: " + std::to_string(kHeld) + "\n"),
            std::string::npos)
      << page;

  plane.FlushPredictors();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_DOUBLE_EQ(depth->value(), 0.0);
}

TEST(ShardMetricsTest, StatusPageRendersPerShardSection) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions options;
  options.shards = 2;
  ServingPlane plane(&registry, options);
  ASSERT_TRUE(
      ReplayCorpus(fixture.corpus, fixture.labels, plane).ok());
  const std::string page = RenderStatusPage(obs::MetricsRegistry::Global(),
                                            obs::RequestTracer::Global());
  EXPECT_NE(page.find("shards\n"), std::string::npos);
  EXPECT_NE(page.find("  shard 0: points="), std::string::npos);
  EXPECT_NE(page.find("  shard 1: points="), std::string::npos);
}

// ------------------------------------------------------------ Races (TSan) --

// One writer thread per shard ingests that shard's users concurrently —
// the shard-per-core contract says they never contend. Run under
// -DTRAJKIT_SANITIZE=thread via `ctest -L concurrency`; the assertions
// also pin that the parallel run produces exactly the serial segments.
TEST(ShardConcurrencyTest, ParallelIngestAcrossShardsMatchesSerial) {
  constexpr size_t kShards = 4;
  constexpr int64_t kUsers = 16;
  constexpr size_t kPointsPerUser = 40;

  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = kShards;
  options.session.segmentation.min_points = 2;

  std::vector<std::vector<traj::TrajectoryPoint>> streams;
  for (int64_t user = 0; user < kUsers; ++user) {
    streams.push_back(WalkPoints(user, kPointsPerUser));
  }

  // Key of one closed segment for cross-run comparison (features are
  // bit-identical when the per-user stream is identical).
  using Key = std::tuple<int64_t, double, size_t, std::vector<double>>;
  const auto keys = [](std::vector<ClosedSegment>& closed) {
    std::vector<Key> out;
    out.reserve(closed.size());
    for (ClosedSegment& segment : closed) {
      out.emplace_back(segment.session_id, segment.start_time,
                       segment.num_points, std::move(segment.features));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // Serial reference.
  std::vector<ClosedSegment> serial_closed;
  {
    ServingPlane plane(&registry, options);
    for (int64_t user = 0; user < kUsers; ++user) {
      for (const auto& point : streams[user]) {
        plane.Ingest(user, point, &serial_closed);
      }
    }
    plane.FlushAll(&serial_closed);
  }

  // Parallel: one writer per shard, each driving only its own users —
  // half of them through the plane's routing entry point (the documented
  // multi-writer path), half straight into the shard's manager.
  ServingPlane plane(&registry, options);
  std::vector<std::vector<ClosedSegment>> per_thread(kShards);
  std::vector<std::thread> writers;
  for (size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      for (int64_t user = 0; user < kUsers; ++user) {
        if (plane.ShardOf(user) != s) continue;
        for (const auto& point : streams[user]) {
          if (user % 2 == 0) {
            plane.Ingest(user, point, &per_thread[s]);
          } else {
            plane.sessions(s).Ingest(user, point, &per_thread[s]);
          }
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  std::vector<ClosedSegment> parallel_closed;
  for (auto& thread_closed : per_thread) {
    for (ClosedSegment& segment : thread_closed) {
      parallel_closed.push_back(std::move(segment));
    }
  }
  plane.FlushAll(&parallel_closed);

  EXPECT_EQ(keys(parallel_closed), keys(serial_closed));
}

// Hot swap under sharded predict: one writer flips the active model while
// readers submit across every shard. TSan-clean is the main assertion;
// labels must stay correct because v1 and v2 wrap the same forest.
TEST(ShardConcurrencyTest, HotSwapUnderShardedPredictStaysConsistent) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  auto v2 = fixture.model;
  v2.version = "v2";
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ASSERT_TRUE(registry.Register(std::move(v2)).ok());

  ServingPlaneOptions options;
  options.shards = 4;
  options.batching.max_batch_size = 1;  // Dispatch immediately.
  options.batching.max_delay_seconds = 0.05;
  ServingPlane plane(&registry, options);

  constexpr int kReaders = 3;
  constexpr int kIterationsPerReader = 50;
  std::atomic<int> readers_done{0};
  std::thread writer([&] {
    int i = 0;
    while (readers_done.load() < kReaders) {
      ASSERT_TRUE(registry.Publish(++i % 2 == 0 ? "v2" : "v1", serve::ModelRole::kActive).ok());
    }
  });

  const size_t num_rows = fixture.dataset.num_samples();
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      for (int i = 0; i < kIterationsPerReader; ++i) {
        const size_t r =
            (static_cast<size_t>(reader) * kIterationsPerReader +
             static_cast<size_t>(i)) %
            num_rows;
        const auto row = fixture.dataset.features().Row(r);
        // Spray across users (and therefore shards).
        auto future = plane.Submit(static_cast<int64_t>(i),
                                   PredictRequest({row.begin(), row.end()}));
        const auto result = future.get();
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
        EXPECT_TRUE(result.value().model_version == "v1" ||
                    result.value().model_version == "v2");
      }
      readers_done.fetch_add(1);
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
}

// ----------------------------------------------- Concurrent replay ingest --

/// Everything one replay makes visible, minus wall times.
struct ReplayRun {
  ReplayReport report;
  /// (session, start, reason, points, trace id, sampled) per closed
  /// segment, in the plane's closed-sink order.
  std::vector<std::tuple<int64_t, double, int, size_t, uint64_t, bool>> sink;
  /// (user, start, predicted class) in ReplayOptions::closed_sink order.
  std::vector<std::tuple<int, double, int>> scored;
  /// One line per tick: the tracked series, counters rebased to the run's
  /// start (earlier runs in this binary fed the same process-wide
  /// families).
  std::vector<std::string> series;
  std::vector<std::string> slo_log;
  ContinuousTrainer::Stats training;
};

constexpr size_t kEvictEveryPoints = 97;
constexpr size_t kMaxSessionsPerShard = 1;
/// More points than one of ReplayCorpus's 16,384-point chunks, so the
/// commit crosses a chunk boundary.
constexpr size_t kMinReplayPoints = 16384 + 1;

/// The fixture corpus twice — the copy's users renumbered and its days
/// moved past the original's, so it replays after it: about 29k points,
/// two of ReplayCorpus's chunks.
const std::vector<traj::Trajectory>& ReplayTestCorpus() {
  static const std::vector<traj::Trajectory>* corpus = [] {
    const std::vector<traj::Trajectory>& original = ShardFixture::Get().corpus;
    double last = 0.0;
    for (const traj::Trajectory& trajectory : original) {
      for (const traj::TrajectoryPoint& point : trajectory.points) {
        last = std::max(last, point.timestamp);
      }
    }
    const double shift = 86400.0 * (std::floor(last / 86400.0) + 1.0);
    auto* out = new std::vector<traj::Trajectory>(original);
    for (const traj::Trajectory& trajectory : original) {
      out->push_back(trajectory);
      out->back().user_id += 1000;
      for (traj::TrajectoryPoint& point : out->back().points) {
        point.timestamp += shift;
      }
    }
    return out;
  }();
  return *corpus;
}

ServingPlaneOptions ConcurrencyPlaneOptions(size_t shards) {
  ServingPlaneOptions options;
  options.shards = shards;
  options.session.max_sessions = kMaxSessionsPerShard;
  options.batching.max_batch_size = 16;
  options.batching.max_delay_seconds = 0.001;
  return options;
}

ReplayRun RunConcurrentReplay(size_t shards, int threads) {
  const ShardFixture& fixture = ShardFixture::Get();
  const int prior_threads = MaxThreads();
  SetMaxThreads(threads);
  obs::RequestTracerOptions tracing;
  tracing.enabled = true;
  tracing.sample_every = 3;
  obs::RequestTracer::Global().Configure(tracing);

  ModelRegistry registry;
  TRAJKIT_CHECK(registry.Publish(fixture.model).ok());
  ContinuousTrainingOptions ct;
  ct.step_every = 8;
  ct.refit_every = 16;
  ct.min_fit_samples = 16;
  ct.forest.n_estimators = 10;
  ct.promotion.min_samples = 8;
  ct.promotion.min_accuracy_delta = -1.0;
  ContinuousTrainer trainer(&registry, fixture.labels, ct);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const std::vector<std::string> counters = {
      "serve.sessions.points_ingested", "serve.sessions.segments_emitted",
      "serve.sessions.evicted_idle", "serve.sessions.evicted_cap",
      "serve.batch_predictor.requests"};
  std::map<std::string, uint64_t> baseline;
  for (const std::string& name : counters) {
    const obs::CounterFamily* family = metrics.FindCounter(name);
    baseline[name] = family == nullptr ? 0 : family->value();
  }
  obs::TimeSeriesStore store(metrics);
  for (const std::string& name : counters) store.TrackCounter(name);
  std::vector<obs::SloSpec> specs;
  std::string error;
  TRAJKIT_CHECK(obs::ParseSloSpecs(
      "cap:type=ratio,bad=serve.sessions.evicted_cap,"
      "total=serve.sessions.segments_emitted,budget=0.05,fast=2,slow=4",
      &specs, &error))
      << error;
  obs::SloEngine slo(&store, &metrics, specs);

  ReplayRun run;
  {
    ServingPlaneOptions plane_options = ConcurrencyPlaneOptions(shards);
    plane_options.batching.shadow_evaluator = &trainer.evaluator();
    ServingPlane plane(&registry, plane_options);
    plane.set_closed_sink([&run](const ClosedSegment& segment) {
      run.sink.emplace_back(segment.session_id, segment.start_time,
                            static_cast<int>(segment.reason),
                            segment.num_points, segment.trace_id,
                            obs::RequestTracer::Global().Sampled(
                                segment.trace_id));
    });
    ReplayOptions options;
    options.trainer = &trainer;
    options.evict_every_points = kEvictEveryPoints;
    options.tick_every_segments = 8;
    uint64_t tick_index = 0;
    options.tick = [&] {
      store.Tick(static_cast<double>(tick_index));
      slo.Evaluate(tick_index);
      ++tick_index;
      std::string line;
      for (const std::string& name : counters) {
        line += name + "=" +
                std::to_string(metrics.FindCounter(name)->value() -
                               baseline[name]) +
                " ";
      }
      line += "active=" +
              std::to_string(metrics.FindGauge("serve.sessions.active")
                                 ->value());
      run.series.push_back(line);
    };
    options.closed_sink = [&run](const ClosedSegment& segment,
                                 int predicted_class) {
      run.scored.emplace_back(segment.user_id, segment.start_time,
                              predicted_class);
    };
    Result<ReplayReport> report =
        ReplayCorpus(ReplayTestCorpus(), fixture.labels, plane, options);
    TRAJKIT_CHECK(report.ok()) << report.status().ToString();
    run.report = std::move(report).value();
  }
  run.slo_log = slo.transition_log();
  run.training = trainer.stats();
  obs::RequestTracer::Global().Reset();
  SetMaxThreads(prior_threads);
  return run;
}

void ExpectSameReplay(const ReplayRun& a, const ReplayRun& b) {
  const ReplayReport& x = a.report;
  const ReplayReport& y = b.report;
  EXPECT_EQ(x.points, y.points);
  EXPECT_EQ(x.segments_closed, y.segments_closed);
  EXPECT_EQ(x.segments_evaluated, y.segments_evaluated);
  EXPECT_EQ(x.segments_outside_label_set, y.segments_outside_label_set);
  EXPECT_EQ(x.correct, y.correct);
  EXPECT_EQ(x.deadline_exceeded, y.deadline_exceeded);
  EXPECT_EQ(x.shed, y.shed);
  EXPECT_EQ(x.degraded, y.degraded);
  EXPECT_EQ(x.retries, y.retries);
  EXPECT_EQ(x.y_true, y.y_true);
  EXPECT_EQ(x.y_pred, y.y_pred);
  EXPECT_TRUE(x.session_stats == y.session_stats);
  EXPECT_EQ(a.sink, b.sink);
  EXPECT_EQ(a.scored, b.scored);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.slo_log, b.slo_log);
  EXPECT_EQ(a.training.steps, b.training.steps);
  EXPECT_EQ(a.training.refits_completed, b.training.refits_completed);
  EXPECT_EQ(a.training.shadows_installed, b.training.shadows_installed);
  EXPECT_EQ(a.training.promotions, b.training.promotions);
}

// The serial plane API's close order for the same corpus and eviction
// cadence: what the replay's commit order must reproduce.
std::vector<std::tuple<int64_t, double, int, size_t>> SerialCloseOrder(
    size_t shards) {
  const std::vector<traj::Trajectory>& corpus = ReplayTestCorpus();
  ModelRegistry registry;
  ServingPlane plane(&registry, ConcurrencyPlaneOptions(shards));
  std::vector<std::pair<double, std::pair<size_t, size_t>>> order;
  for (size_t t = 0; t < corpus.size(); ++t) {
    for (size_t p = 0; p < corpus[t].points.size(); ++p) {
      order.push_back({corpus[t].points[p].timestamp, {t, p}});
    }
  }
  // (timestamp, trajectory, point): ReplayCorpus's merge order.
  std::stable_sort(order.begin(), order.end());
  std::vector<ClosedSegment> closed;
  size_t points = 0;
  for (const auto& [timestamp, at] : order) {
    const traj::Trajectory& trajectory = corpus[at.first];
    plane.Ingest(trajectory.user_id, trajectory.points[at.second], &closed);
    if (++points % kEvictEveryPoints == 0) plane.EvictIdle(timestamp, &closed);
  }
  plane.FlushAll(&closed);
  std::vector<std::tuple<int64_t, double, int, size_t>> out;
  for (const ClosedSegment& segment : closed) {
    out.emplace_back(segment.session_id, segment.start_time,
                     static_cast<int>(segment.reason), segment.num_points);
  }
  return out;
}

// ReplayCorpus runs each chunk's shard steps on min(shards, threads)
// ingest workers ahead of the driver's commit; with one worker the same
// steps run inline. Every output — report, sink order, tick-sampled
// series, SLO log, trace ids — must not tell the two apart, with every
// barrier kind live: telemetry ticks, trainer steps, idle evictions, and
// LRU cap evictions.
TEST(ReplayConcurrencyTest, ConcurrentIngestMatchesInlineIngest) {
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(shards);
    const ReplayRun inline_run = RunConcurrentReplay(shards, /*threads=*/1);
    const ReplayRun concurrent = RunConcurrentReplay(shards, /*threads=*/4);
    ExpectSameReplay(inline_run, concurrent);

    // Every barrier kind fired and the commit crossed a chunk boundary,
    // so the comparison covers them.
    EXPECT_GE(inline_run.report.points, kMinReplayPoints);
    // Every point is published once, the chunk's tail included: the final
    // tick's first series is points_ingested.
    const std::string& last = inline_run.series.back();
    EXPECT_EQ(last.substr(0, last.find(' ')),
              "serve.sessions.points_ingested=" +
                  std::to_string(inline_run.report.points));
    EXPECT_GT(inline_run.series.size(), 2u);
    EXPECT_GT(inline_run.report.session_stats.sessions_evicted_idle, 0u);
    EXPECT_GE(inline_run.training.shadows_installed, 1u);
    if (shards == 2) {
      EXPECT_GT(inline_run.report.session_stats.sessions_evicted_cap, 0u);
    }
    // Trace ids are minted at commit: 1..n in sink order.
    for (size_t i = 0; i < concurrent.sink.size(); ++i) {
      EXPECT_EQ(std::get<4>(concurrent.sink[i]), i + 1);
    }
    // The commit order is the serial plane API's close order.
    const auto serial = SerialCloseOrder(shards);
    ASSERT_EQ(serial.size(), concurrent.sink.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      const auto& [session, start, reason, points, trace, sampled] =
          concurrent.sink[i];
      EXPECT_EQ(serial[i], std::make_tuple(session, start, reason, points))
          << i;
    }
  }
}

}  // namespace
}  // namespace trajkit::serve
