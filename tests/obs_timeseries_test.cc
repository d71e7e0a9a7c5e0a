// Tests of the live telemetry plane (src/obs/timeseries.h, src/obs/slo.h):
// ring-buffer sampling semantics, reset-aware windowed deltas/quantiles,
// byte-stable JSON, the --slo_spec grammar, and the multi-window burn-rate
// breach/recover state machine. Thread-count independence of tick-sampled
// series (the determinism contract serve-replay relies on) is exercised
// with a barrier-synchronized 1-vs-8-thread run.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace trajkit::obs {

/// Registry counters are monotone in-process, so the reset-handling code
/// (a cumulative sample that *decreases* means the source restarted) can
/// only be reached with synthetic samples; this peer injects them.
class TimeSeriesStoreTestPeer {
 public:
  static void SetCounterSamples(TimeSeriesStore& store, const std::string& name,
                                const std::vector<double>& samples) {
    store.ticks_.clear();
    for (size_t i = 0; i < samples.size(); ++i) {
      store.ticks_.push_back(static_cast<double>(i));
    }
    TimeSeriesStore::Series& series = store.series_.at(name);
    series.samples.assign(samples.begin(), samples.end());
  }

  static void SetHistogramSamples(
      TimeSeriesStore& store, const std::string& name,
      const std::vector<double>& bounds,
      const std::vector<std::vector<uint64_t>>& bucket_samples) {
    store.ticks_.clear();
    TimeSeriesStore::Series& series = store.series_.at(name);
    series.bounds = bounds;
    series.hist.clear();
    for (size_t i = 0; i < bucket_samples.size(); ++i) {
      store.ticks_.push_back(static_cast<double>(i));
      TimeSeriesStore::HistSample sample;
      sample.buckets = bucket_samples[i];
      for (const uint64_t b : sample.buckets) sample.count += b;
      series.hist.push_back(std::move(sample));
    }
  }
};

namespace {

HistogramOptions Bounds(std::vector<double> bounds) {
  HistogramOptions options;
  options.bucket_bounds = std::move(bounds);
  return options;
}

TEST(QuantileFromBucketDeltasTest, InterpolatesWithinBuckets) {
  const std::vector<double> bounds = {1.0, 2.0, 5.0};
  // 2 observations in (0,1], 1 in (1,2], 1 in (2,5], 1 overflow.
  const std::vector<uint64_t> deltas = {2, 1, 1, 1};
  // p50: rank 2.5 of 5 lands in the (1,2] bucket, halfway past its 2
  // predecessors: 1 + 0.5 * 1 = 1.5.
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas(bounds, deltas, 0.5), 1.5);
  // p0 pins to the first non-empty bucket's lower edge (0 by convention).
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas(bounds, deltas, 0.0), 0.0);
  // p100 lands in the overflow bucket, which clamps to the last bound.
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas(bounds, deltas, 1.0), 5.0);
  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas(bounds, deltas, 2.0), 5.0);
}

TEST(QuantileFromBucketDeltasTest, EmptyAndOverflowOnly) {
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas({1.0, 2.0}, {0, 0, 0}, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas({}, {}, 0.5), 0.0);
  // All mass in the overflow bucket clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(QuantileFromBucketDeltas({1.0, 2.0}, {0, 0, 4}, 0.5), 2.0);
}

TEST(TimeSeriesStoreTest, EmptyWindowsAndUnknownSeriesReadAsZero) {
  MetricsRegistry registry;
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  store.TrackHistogram("h");
  // No ticks at all: a window has no endpoints.
  EXPECT_DOUBLE_EQ(store.Delta("c"), 0.0);
  EXPECT_DOUBLE_EQ(store.Rate("c"), 0.0);
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.99), 0.0);
  WindowedHistogram wh;
  EXPECT_FALSE(store.WindowedHistogramDeltas("h", 0, &wh));
  // One tick: still no interval.
  registry.GetCounter("c").Increment(7);
  store.Tick(0.0);
  EXPECT_EQ(store.tick_count(), 1u);
  EXPECT_DOUBLE_EQ(store.Delta("c"), 0.0);
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.99), 0.0);
  // Unknown series never create anything.
  EXPECT_DOUBLE_EQ(store.Delta("missing"), 0.0);
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("missing", 0.5), 0.0);
  EXPECT_TRUE(store.RecentSamples("missing").empty());
  EXPECT_EQ(store.series_count(), 2u);
}

TEST(TimeSeriesStoreTest, CounterDeltaRateAndWindows) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  counter.Increment(10);
  store.Tick(0.0);
  counter.Increment(4);
  store.Tick(2.0);
  counter.Increment(6);
  store.Tick(4.0);
  EXPECT_DOUBLE_EQ(store.Delta("c"), 10.0);      // whole ring: 10 -> 20
  EXPECT_DOUBLE_EQ(store.Delta("c", 1), 6.0);    // last interval only
  EXPECT_DOUBLE_EQ(store.Delta("c", 100), 10.0); // over-wide clamps
  EXPECT_DOUBLE_EQ(store.Rate("c"), 10.0 / 4.0);
  EXPECT_DOUBLE_EQ(store.Rate("c", 1), 6.0 / 2.0);
  const std::vector<double> samples = store.RecentSamples("c");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0], 10.0);
  EXPECT_DOUBLE_EQ(samples[2], 20.0);
  EXPECT_EQ(store.RecentSamples("c", 2).size(), 2u);
}

TEST(TimeSeriesStoreTest, GaugeDeltaIsNetChange) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("g");
  TimeSeriesStore store(registry);
  store.TrackGauge("g");
  gauge.Set(5.0);
  store.Tick(0.0);
  gauge.Set(9.0);
  store.Tick(1.0);
  gauge.Set(2.0);
  store.Tick(2.0);
  // Net change, NOT reset-aware: gauges may legitimately decrease.
  EXPECT_DOUBLE_EQ(store.Delta("g"), -3.0);
  EXPECT_DOUBLE_EQ(store.Delta("g", 1), -7.0);
}

TEST(TimeSeriesStoreTest, LateTrackedSeriesBackfillsAndStaysAligned) {
  MetricsRegistry registry;
  TimeSeriesStore store(registry);
  store.Tick(0.0);
  store.Tick(1.0);
  registry.GetCounter("late").Increment(5);
  store.TrackCounter("late");
  store.Tick(2.0);
  const std::vector<double> samples = store.RecentSamples("late");
  ASSERT_EQ(samples.size(), 3u);  // zero-backfilled to the tick ring
  EXPECT_DOUBLE_EQ(samples[0], 0.0);
  EXPECT_DOUBLE_EQ(samples[1], 0.0);
  EXPECT_DOUBLE_EQ(samples[2], 5.0);
  // Rate maps sample indices onto tick timestamps 1:1.
  EXPECT_DOUBLE_EQ(store.Rate("late", 1), 5.0);
}

TEST(TimeSeriesStoreTest, CapacityEvictsOldestTick) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("c");
  TimeSeriesOptions options;
  options.capacity = 1;  // clamped to 2
  TimeSeriesStore store(registry, options);
  EXPECT_EQ(store.capacity(), 2u);
  store.TrackCounter("c");
  for (int i = 0; i < 5; ++i) {
    counter.Increment(1);
    store.Tick(static_cast<double>(i));
  }
  EXPECT_EQ(store.tick_count(), 2u);
  const std::vector<double> samples = store.RecentSamples("c");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0], 4.0);
  EXPECT_DOUBLE_EQ(samples[1], 5.0);
  EXPECT_DOUBLE_EQ(store.Delta("c"), 1.0);
}

TEST(TimeSeriesStoreTest, CounterWindowSpanningResetCountsPostResetOnly) {
  MetricsRegistry registry;
  registry.GetCounter("c");
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  // Samples 10 -> 14, then the process "restarts" (3), then 3 -> 5: the
  // increase is 4 + 3 + 2 = 9 — the pre-reset portion of the third
  // interval is unobservable, exactly Prometheus increase() semantics.
  TimeSeriesStoreTestPeer::SetCounterSamples(store, "c", {10, 14, 3, 5});
  EXPECT_DOUBLE_EQ(store.Delta("c"), 9.0);
  EXPECT_DOUBLE_EQ(store.Delta("c", 2), 5.0);  // 14 -> 3 -> 5
  EXPECT_DOUBLE_EQ(store.Rate("c"), 3.0);      // 9 over ticks 0..3
}

TEST(TimeSeriesStoreTest, WindowedQuantileSingleBucketWindow) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h", Bounds({1.0}));
  TimeSeriesStore store(registry);
  store.TrackHistogram("h");
  store.Tick(0.0);
  for (int i = 0; i < 4; ++i) h.Observe(0.5);
  store.Tick(1.0);
  // All 4 observations in the only finite bucket [0, 1]: p99 rank 3.96
  // interpolates to 0.99, p50 to 0.5.
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.99, 1), 0.99);
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.50, 1), 0.5);
  // A window with no observations reads 0 (ticks exist, deltas are 0).
  store.Tick(2.0);
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.99, 1), 0.0);
  // Non-histogram series refuse bucket-delta queries.
  store.TrackCounter("c");
  WindowedHistogram wh;
  EXPECT_FALSE(store.WindowedHistogramDeltas("c", 0, &wh));
}

TEST(TimeSeriesStoreTest, WindowedQuantileSpanningHistogramReset) {
  MetricsRegistry registry;
  registry.GetHistogram("h", Bounds({1.0, 2.0}));
  TimeSeriesStore store(registry);
  store.TrackHistogram("h");
  // Cumulative buckets per tick: +2 in (0,1], then a restart that has
  // already seen 1 observation in (1,2]. The window delta keeps the
  // pre-reset increment and the post-reset absolute value: {2, 1, 0}.
  TimeSeriesStoreTestPeer::SetHistogramSamples(
      store, "h", {1.0, 2.0}, {{0, 0, 0}, {2, 0, 0}, {0, 1, 0}});
  WindowedHistogram wh;
  ASSERT_TRUE(store.WindowedHistogramDeltas("h", 0, &wh));
  EXPECT_EQ(wh.count, 3u);
  ASSERT_EQ(wh.deltas.size(), 3u);
  EXPECT_EQ(wh.deltas[0], 2u);
  EXPECT_EQ(wh.deltas[1], 1u);
  // p50 rank 1.5 of 3 sits in the first bucket: 0 + 1.5/2 * 1 = 0.75.
  EXPECT_DOUBLE_EQ(store.WindowedQuantile("h", 0.5), 0.75);
}

TEST(TimeSeriesStoreTest, ToJsonIsByteStable) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("b.counter");
  Gauge& gauge = registry.GetGauge("a.gauge");
  Histogram& h = registry.GetHistogram("c.hist", Bounds({1.0}));
  TimeSeriesOptions options;
  options.capacity = 4;
  TimeSeriesStore store(registry, options);
  store.TrackCounter("b.counter");
  store.TrackGauge("a.gauge");
  store.TrackHistogram("c.hist");
  counter.Increment(2);
  gauge.Set(1.5);
  store.Tick(0.0);
  counter.Increment(3);
  h.Observe(0.5);
  store.Tick(1.0);
  const std::string expected =
      "{\"capacity\": 4, \"ticks\": [0, 1], \"series\": {"
      "\"a.gauge\": {\"kind\": \"gauge\", \"samples\": [1.5, 1.5]}, "
      "\"b.counter\": {\"kind\": \"counter\", \"samples\": [2, 5]}, "
      "\"c.hist\": {\"kind\": \"histogram\", \"count\": [0, 1], "
      "\"sum\": [0, 0.5], \"p50\": [0, 0.5], \"p99\": [0, 0.99]}}}";
  EXPECT_EQ(store.ToJson(), expected);
  EXPECT_EQ(store.ToJson(), expected);  // repeat export: byte-identical
}

TEST(TimeSeriesStoreTest, TickSampledSeriesAreThreadCountIndependent) {
  // The serve-replay determinism contract in miniature: ticks fire at
  // barriers (all workers joined), so the sampled rings depend only on
  // how much work happened between barriers, never on thread count.
  const auto run = [](int threads) {
    MetricsRegistry registry;
    Counter& counter = registry.GetCounter("work.done");
    Histogram& h = registry.GetHistogram("work.latency", Bounds({1.0, 2.0}));
    TimeSeriesStore store(registry);
    store.TrackCounter("work.done");
    store.TrackHistogram("work.latency");
    for (int barrier = 0; barrier < 3; ++barrier) {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&counter, &h, threads] {
          for (int i = 0; i < 2400 / threads; ++i) {
            counter.Increment();
            h.Observe(0.5);
          }
        });
      }
      for (std::thread& thread : pool) thread.join();
      store.Tick(static_cast<double>(barrier));
    }
    return store.ToJson();
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(SloSpecTest, ParsesFullGrammar) {
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "p99:type=latency,metric=serve.latency,ceiling_ms=50,budget=0.05,"
      "fast=4,slow=16,burn=2;"
      "shed:type=ratio,bad=a+b,total=c",
      &specs, &error))
      << error;
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "p99");
  EXPECT_EQ(specs[0].kind, SloSpec::Kind::kLatency);
  EXPECT_EQ(specs[0].metric, "serve.latency");
  EXPECT_DOUBLE_EQ(specs[0].ceiling_seconds, 0.05);
  EXPECT_DOUBLE_EQ(specs[0].budget, 0.05);
  EXPECT_EQ(specs[0].fast_window, 4u);
  EXPECT_EQ(specs[0].slow_window, 16u);
  EXPECT_DOUBLE_EQ(specs[0].burn_threshold, 2.0);
  EXPECT_EQ(specs[1].kind, SloSpec::Kind::kRatio);
  EXPECT_EQ(specs[1].bad, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(specs[1].total, (std::vector<std::string>{"c"}));
  // Defaults when unspecified.
  EXPECT_DOUBLE_EQ(specs[1].budget, 0.01);
  EXPECT_EQ(specs[1].fast_window, 8u);
  EXPECT_EQ(specs[1].slow_window, 64u);
  // Empty spec text parses to zero SLOs.
  ASSERT_TRUE(ParseSloSpecs("", &specs, &error));
  EXPECT_TRUE(specs.empty());
}

TEST(SloSpecTest, RejectsMalformedSpecsWithNamedToken) {
  std::vector<SloSpec> specs;
  std::string error;
  EXPECT_FALSE(ParseSloSpecs("type=ratio,bad=a,total=b", &specs, &error));
  EXPECT_NE(error.find("missing the <name>: prefix"), std::string::npos);
  EXPECT_FALSE(ParseSloSpecs("x:type=ratio,bad=a,total=b,zap=1", &specs,
                             &error));
  EXPECT_NE(error.find("unknown key \"zap\""), std::string::npos);
  EXPECT_FALSE(ParseSloSpecs("x:type=latency,ceiling_ms=50", &specs, &error));
  EXPECT_NE(error.find("requires metric="), std::string::npos);
  EXPECT_FALSE(ParseSloSpecs("x:type=latency,metric=m", &specs, &error));
  EXPECT_NE(error.find("requires ceiling_ms="), std::string::npos);
  EXPECT_FALSE(ParseSloSpecs("x:type=ratio,bad=a", &specs, &error));
  EXPECT_NE(error.find("requires bad= and total="), std::string::npos);
  EXPECT_FALSE(ParseSloSpecs("x:bad=a,total=b", &specs, &error));
  EXPECT_NE(error.find("missing type"), std::string::npos);
  EXPECT_FALSE(
      ParseSloSpecs("x:type=ratio,bad=a,total=b,budget=nope", &specs, &error));
  EXPECT_NE(error.find("invalid value for \"budget\""), std::string::npos);
  EXPECT_FALSE(
      ParseSloSpecs("x:type=ratio,bad=a,total=b,budget=0", &specs, &error));
  EXPECT_FALSE(ParseSloSpecs("x:type=ratio,bad=a,total=b,fast=9,slow=4",
                             &specs, &error));
  EXPECT_NE(error.find("fast window exceeds slow window"), std::string::npos);
  // Windows are integer tick counts in [1, INT_MAX]: 1e30 used to be an
  // undefined double -> size_t conversion.
  for (const char* window :
       {"fast=1e30", "slow=1e30", "fast=0", "fast=-1", "fast=2.5",
        "slow=2147483648", "slow=18446744073709551616", "fast=nan"}) {
    EXPECT_FALSE(ParseSloSpecs(
        std::string("x:type=ratio,bad=a,total=b,") + window, &specs, &error))
        << window;
    EXPECT_NE(error.find("invalid value for"), std::string::npos) << error;
  }
  ASSERT_TRUE(ParseSloSpecs(
      "x:type=ratio,bad=a,total=b,fast=2147483647,slow=2147483647", &specs,
      &error))
      << error;
  EXPECT_EQ(specs[0].slow_window, 2147483647u);
  for (const char* value :
       {"budget=nan", "burn=inf", "ceiling_ms=nan", "ceiling_ms=inf"}) {
    EXPECT_FALSE(ParseSloSpecs(
        std::string("x:type=latency,metric=m,ceiling_ms=5,") + value, &specs,
        &error))
        << value;
  }
}

TEST(SloEngineTest, RatioBreachAndRecoverTransitions) {
  MetricsRegistry registry;
  Counter& bad = registry.GetCounter("bad");
  Counter& total = registry.GetCounter("total");
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "shed:type=ratio,bad=bad,total=total,budget=0.5,fast=2,slow=4",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  // Construction tracked the referenced counters and materialized the
  // slo.* metrics at their zero state.
  EXPECT_EQ(store.series_count(), 2u);
  ASSERT_NE(registry.FindCounter("slo.shed.breaches"), nullptr);
  EXPECT_DOUBLE_EQ(registry.FindGauge("slo.shed.budget_remaining")->value(),
                   1.0);
  EXPECT_TRUE(engine.healthy());

  const auto step = [&](uint64_t tick, uint64_t good_requests,
                        uint64_t bad_requests) {
    total.Increment(good_requests + bad_requests);
    bad.Increment(bad_requests);
    store.Tick(static_cast<double>(tick));
    engine.Evaluate(tick);
  };
  step(0, 100, 0);
  step(1, 100, 0);
  EXPECT_TRUE(engine.healthy());
  // Bad fraction 0.5 over both windows: burn = 0.5/0.5 = 1.0 >= 1 in the
  // fast AND slow window -> breach.
  step(2, 0, 100);
  EXPECT_FALSE(engine.healthy());
  std::vector<SloState> states = engine.states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_TRUE(states[0].breached);
  EXPECT_EQ(states[0].transitions, 1u);
  EXPECT_DOUBLE_EQ(states[0].burn_fast, 1.0);
  EXPECT_DOUBLE_EQ(states[0].burn_slow, 1.0);
  EXPECT_DOUBLE_EQ(states[0].budget_remaining, 0.0);
  EXPECT_EQ(registry.FindCounter("slo.shed.breaches")->value(), 1u);
  EXPECT_DOUBLE_EQ(registry.FindGauge("slo.shed.breached")->value(), 1.0);
  // Still breaching: no second transition, breaches counter unchanged.
  step(3, 0, 100);
  EXPECT_FALSE(engine.healthy());
  EXPECT_EQ(engine.states()[0].transitions, 1u);
  EXPECT_EQ(registry.FindCounter("slo.shed.breaches")->value(), 1u);
  // Good traffic: the fast window drains first; breach clears as soon as
  // one of the two windows drops below the threshold.
  step(4, 100, 0);
  step(5, 100, 0);
  EXPECT_TRUE(engine.healthy());
  states = engine.states();
  EXPECT_FALSE(states[0].breached);
  EXPECT_EQ(states[0].transitions, 2u);
  EXPECT_DOUBLE_EQ(registry.FindGauge("slo.shed.breached")->value(), 0.0);
  const std::vector<std::string> log = engine.transition_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0],
            "tick=2 slo=shed ok->breach burn_fast=1 burn_slow=1");
  EXPECT_EQ(log[1].find("tick=5 slo=shed breach->ok"), 0u) << log[1];
}

TEST(SloEngineTest, LatencyObjectiveUsesBucketResolutionCeiling) {
  MetricsRegistry registry;
  Histogram& latency =
      registry.GetHistogram("lat", Bounds({0.01, 0.05, 0.1}));
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "p99:type=latency,metric=lat,ceiling_ms=50,budget=0.25,fast=1,slow=1",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  store.Tick(0.0);
  engine.Evaluate(0);
  EXPECT_TRUE(engine.healthy());
  // 3 good (<= 50ms ceiling), 1 bad: fraction 0.25 = budget -> burn 1.0.
  for (int i = 0; i < 3; ++i) latency.Observe(0.02);
  latency.Observe(0.2);
  store.Tick(1.0);
  engine.Evaluate(1);
  EXPECT_FALSE(engine.healthy());
  EXPECT_DOUBLE_EQ(engine.states()[0].burn_fast, 1.0);
  // A clean window recovers (fast=slow=1: only the last interval counts).
  for (int i = 0; i < 4; ++i) latency.Observe(0.02);
  store.Tick(2.0);
  engine.Evaluate(2);
  EXPECT_TRUE(engine.healthy());
  EXPECT_EQ(engine.states()[0].transitions, 2u);
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(WriteMetricsArtifactsTest, WritesAllRequestedArtifacts) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(3);
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  store.Tick(0.0);
  const std::string dir = ::testing::TempDir();
  MetricsArtifactOptions options;
  options.metrics_json = dir + "/artifacts_test_metrics.json";
  options.metrics_prom = dir + "/artifacts_test_metrics.prom";
  options.timeseries_json = dir + "/artifacts_test_timeseries.json";
  options.timeseries = &store;
  ASSERT_TRUE(WriteMetricsArtifacts(options, registry));
  EXPECT_EQ(ReadFileOrDie(options.metrics_json), registry.ToJson());
  EXPECT_EQ(ReadFileOrDie(options.metrics_prom),
            registry.ToPrometheusText("trajkit_"));
  EXPECT_EQ(ReadFileOrDie(options.timeseries_json), store.ToJson());
  std::remove(options.metrics_json.c_str());
  std::remove(options.metrics_prom.c_str());
  std::remove(options.timeseries_json.c_str());
}

TEST(WriteMetricsArtifactsTest, TimeseriesPathWithoutStoreFailsLoudly) {
  MetricsRegistry registry;
  MetricsArtifactOptions options;
  options.timeseries_json =
      ::testing::TempDir() + "/artifacts_test_orphan.json";
  EXPECT_FALSE(WriteMetricsArtifacts(options, registry));
  // Empty options are a successful no-op.
  EXPECT_TRUE(WriteMetricsArtifacts({}, registry));
}

}  // namespace
}  // namespace trajkit::obs
