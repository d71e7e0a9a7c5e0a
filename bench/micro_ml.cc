// Microbenchmarks for the ML substrate: tree/forest training and
// prediction throughput on trajectory-feature-shaped data (70 columns),
// plus the flat-vs-pointer forest inference comparison and the point
// feature kernels. With --timing_json=<path> a fixed gate workload runs
// after the google-benchmarks and emits the phase timings consumed by
// tools/check_bench.py (the micro_ml artifact in BENCH_baseline.json).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "micro_main.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/flat_forest.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "traj/point_features.h"
#include "traj/trajectory_features.h"

namespace trajkit::ml {
namespace {

Dataset SyntheticFeatures(size_t samples, size_t features, int classes,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  rows.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const int y = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(classes)));
    std::vector<double> row(features);
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Gaussian(0.0, 1.0);
    }
    // A handful of informative columns.
    row[0] += 1.5 * y;
    row[1] += 0.8 * (y % 2);
    row[2] -= 0.6 * y;
    rows.push_back(std::move(row));
    labels.push_back(y);
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows), std::move(labels),
                                   {}, {}, std::move(class_names)))
      .value();
}

void BM_DecisionTreeFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(
      static_cast<size_t>(state.range(0)), 70, 5, 1);
  for (auto _ : state) {
    DecisionTree tree;
    benchmark::DoNotOptimize(tree.Fit(ds));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeFit)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 2);
  for (auto _ : state) {
    RandomForestParams params;
    params.n_estimators = static_cast<int>(state.range(0));
    RandomForest forest(params);
    benchmark::DoNotOptimize(forest.Fit(ds));
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(10)->Arg(50);

void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(2048, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_RandomForestPredict);

// Same fitted forest, compiled flat form (SoA pool, cohort descent).
void BM_FlatForestPredict(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(2048, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  (void)forest.CompileFlat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_FlatForestPredict);

// Single-row (serving-shaped) predicts, pointer walk vs compiled form:
// Arg(0) = pointer, Arg(1) = flat.
void BM_ForestPredictSingleRow(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  if (state.range(0) == 1) (void)forest.CompileFlat();
  size_t r = 0;
  for (auto _ : state) {
    const std::span<const double> row = ds.features().Row(r);
    ml::Matrix one(1, row.size());
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(forest.Predict(one));
    r = (r + 1) % ds.num_samples();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredictSingleRow)->Arg(0)->Arg(1);

void BM_GradientBoostingFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 4);
  for (auto _ : state) {
    GradientBoostingParams params;
    params.n_rounds = static_cast<int>(state.range(0));
    GradientBoosting gbdt(params);
    benchmark::DoNotOptimize(gbdt.Fit(ds));
  }
}
BENCHMARK(BM_GradientBoostingFit)->Arg(10)->Arg(30);

/// Fixed-size gate workload behind --timing_json: flat vs pointer forest
/// inference (batched and single-row) plus the point-feature kernels, as
/// wall-clock phases tools/check_bench.py tracks against BENCH_baseline.json.
/// The CI leg runs it with --threads=1 and a benchmark filter matching
/// nothing, so the phases are the entire measured work.
int RunTimingGate(const trajkit::HarnessOptions& harness) {
  using trajkit::Stopwatch;
  constexpr size_t kRows = 2048;
  constexpr int kBatchReps = 3;
  // The flat batch is several times faster, so it gets more reps to keep
  // its measured phase comfortably above scheduler noise.
  constexpr int kFlatBatchReps = 10;

  const Dataset ds = SyntheticFeatures(kRows, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest pointer(params);
  if (!pointer.Fit(ds).ok()) return 1;
  RandomForest flat = pointer;
  if (!flat.CompileFlat().ok()) return 1;

  // The comparison is only meaningful if both forms answer identically.
  if (pointer.Predict(ds.features()) != flat.Predict(ds.features())) {
    std::fprintf(stderr,
                 "micro_ml: flat forest diverged from the pointer walk\n");
    return 1;
  }

  // main() owns the metric-artifact dumps; this emitter only writes timings.
  trajkit::HarnessOptions timing_only = harness;
  timing_only.metrics_json.clear();
  timing_only.metrics_prom.clear();
  timing_only.timeseries_json.clear();
  trajkit::bench::TimingJson timing("micro_ml", timing_only);
  Stopwatch watch;
  for (int i = 0; i < kBatchReps; ++i) {
    benchmark::DoNotOptimize(pointer.Predict(ds.features()));
  }
  timing.Record("predict_pointer_batch_s",
                watch.ElapsedSeconds() / kBatchReps);
  watch.Reset();
  for (int i = 0; i < kFlatBatchReps; ++i) {
    benchmark::DoNotOptimize(flat.Predict(ds.features()));
  }
  timing.Record("predict_flat_batch_s",
                watch.ElapsedSeconds() / kFlatBatchReps);

  ml::Matrix one(1, ds.num_features());
  watch.Reset();
  for (size_t r = 0; r < kRows; ++r) {
    const std::span<const double> row = ds.features().Row(r);
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(pointer.Predict(one));
  }
  timing.RecordLap("predict_pointer_single_s", watch);
  for (size_t r = 0; r < kRows; ++r) {
    const std::span<const double> row = ds.features().Row(r);
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(flat.Predict(one));
  }
  timing.RecordLap("predict_flat_single_s", watch);

  // Point-feature kernels: 64 synthetic segments of 1024 fixes through the
  // full 70-feature extraction (columnar channel loops + shared-sort
  // percentiles).
  trajkit::Rng rng(11);
  std::vector<std::vector<trajkit::traj::TrajectoryPoint>> segments(64);
  for (auto& segment : segments) {
    double lat = 39.9, lon = 116.3, ts = 0.0;
    segment.resize(1024);
    for (auto& point : segment) {
      lat += rng.Gaussian(0.0, 1e-4);
      lon += rng.Gaussian(0.0, 1e-4);
      ts += 1.0 + rng.Uniform(0.0, 2.0);
      point.pos = {lat, lon};
      point.timestamp = ts;
    }
  }
  const trajkit::traj::TrajectoryFeatureExtractor extractor;
  watch.Reset();
  for (const auto& segment : segments) {
    const trajkit::traj::PointFeatures features =
        trajkit::traj::ComputePointFeatures(segment);
    benchmark::DoNotOptimize(extractor.ExtractFromPointFeatures(features));
  }
  timing.RecordLap("point_features_s", watch);
  return timing.Write() ? 0 : 1;
}

}  // namespace
}  // namespace trajkit::ml

int main(int argc, char** argv) {
  return trajkit::bench::MicrobenchMain(
      argc, argv, [](const trajkit::HarnessOptions& harness) {
        return harness.timing_json.empty()
                   ? 0
                   : trajkit::ml::RunTimingGate(harness);
      });
}
