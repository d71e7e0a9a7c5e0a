// Microbenchmarks (E5) for the feature pipeline — the paper's §3.2 claims
// the point-feature computation "was written in a vectorized manner ...
// faster than other online available versions"; these benchmarks measure
// the columnar kernels' throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "micro_main.h"
#include "common/rng.h"
#include "geo/geodesy.h"
#include "stats/descriptive.h"
#include "synthgeo/generator.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

std::vector<traj::TrajectoryPoint> RandomWalkPoints(size_t n,
                                                    uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  geo::LatLon pos{39.9, 116.4};
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({pos, t, traj::Mode::kWalk});
    pos = geo::Destination(pos, rng.Uniform(0.0, 360.0),
                           rng.Uniform(0.5, 5.0));
    t += rng.Uniform(1.0, 3.0);
  }
  return points;
}

void BM_Haversine(benchmark::State& state) {
  const geo::LatLon a{39.9042, 116.4074};
  const geo::LatLon b{39.9142, 116.4174};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::HaversineMeters(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_InitialBearing(benchmark::State& state) {
  const geo::LatLon a{39.9042, 116.4074};
  const geo::LatLon b{39.9142, 116.4174};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::InitialBearingDeg(a, b));
  }
}
BENCHMARK(BM_InitialBearing);

void BM_PointFeatureKernels(benchmark::State& state) {
  const auto points = RandomWalkPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::ComputePointFeatures(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PointFeatureKernels)->Range(64, 65536);

void BM_TrajectoryFeatureExtraction(benchmark::State& state) {
  traj::Segment segment;
  segment.mode = traj::Mode::kWalk;
  segment.points = RandomWalkPoints(static_cast<size_t>(state.range(0)));
  const traj::TrajectoryFeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(segment));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectoryFeatureExtraction)->Range(64, 16384);

void BM_Percentiles(benchmark::State& state) {
  // A pool of distinct arrays, cycled: sorting one array over and over lets
  // the branch predictor learn its comparisons, which made n = 512 look
  // five times cheaper than on fresh data.
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t pool = std::clamp<size_t>((size_t{1} << 20) / n, 4, 256);
  Rng rng(5);
  std::vector<std::vector<double>> arrays(pool, std::vector<double>(n));
  for (auto& values : arrays) {
    for (auto& v : values) v = rng.Gaussian(0.0, 10.0);
  }
  const std::vector<double> ps = {10.0, 25.0, 50.0, 75.0, 90.0};
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::Percentiles(arrays[next], ps));
    next = next + 1 == pool ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Arg(32) is the serving max window, Arg(540) about the replay's mean
// segment; they sit on either side of stats::kMinSelectSize.
BENCHMARK(BM_Percentiles)->Range(64, 65536)->Arg(32)->Arg(540);

void BM_Segmentation(benchmark::State& state) {
  synthgeo::GeneratorOptions options;
  options.num_users = 4;
  options.days_per_user = 2;
  options.seed = 11;
  synthgeo::GeoLifeLikeGenerator generator(options);
  const auto corpus = generator.Generate();
  size_t total_points = 0;
  for (const auto& trajectory : corpus) {
    total_points += trajectory.points.size();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traj::SegmentCorpus(corpus, traj::SegmentationOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(total_points));
}
BENCHMARK(BM_Segmentation);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synthgeo::GeneratorOptions options;
    options.num_users = static_cast<int>(state.range(0));
    options.days_per_user = 1;
    options.seed = 13;
    synthgeo::GeoLifeLikeGenerator generator(options);
    benchmark::DoNotOptimize(generator.Generate());
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(1)->Arg(4);

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) {
  return trajkit::bench::MicrobenchMain(argc, argv);
}
