#include "serving.h"

#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace perfbench {

using namespace trajkit;

Status PublishServedModel(uint64_t seed, bool tiny,
                          serve::ModelRegistry* registry) {
  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = tiny ? 4 : 30;
  generator_options.days_per_user = tiny ? 2 : 4;
  generator_options.seed = TrainingSeed(seed);
  synthgeo::GeoLifeLikeGenerator generator(generator_options);
  const core::Pipeline pipeline;
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      pipeline.BuildDataset(generator.Generate(), core::LabelSet::Dabiri()));
  ml::RandomForestParams params;
  params.n_estimators = 50;
  params.seed = 42;
  ml::RandomForest forest(params);
  TRAJKIT_RETURN_IF_ERROR(forest.Fit(dataset));
  TRAJKIT_ASSIGN_OR_RETURN(
      serve::ServingModel model,
      serve::MakeServingModel("bench-v1", std::move(forest),
                              traj::kNumTrajectoryFeatures));
  return registry->Publish(std::move(model));
}

serve::ServingPlaneOptions PlaneOptions(size_t max_window) {
  serve::ServingPlaneOptions options;
  options.shards = kShards;
  options.session.max_segment_points = max_window;
  return options;
}

Telemetry::Telemetry() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  series_ = std::make_unique<obs::TimeSeriesStore>(registry);
  series_->TrackCounter("serve.sessions.points_ingested");
  series_->TrackCounter("serve.sessions.segments_emitted");
  series_->TrackCounter("serve.batch_predictor.requests");
  series_->TrackCounter("serve.shed_total.queue_full");
  series_->TrackCounter("serve.shed_total.preempted");
  series_->TrackCounter("serve.deadline_exceeded_total");
  series_->TrackHistogram("serve.batch_predictor.latency_seconds");
  std::vector<obs::SloSpec> specs;
  std::string error;
  // The objectives of the `trajkit statusz` demo; the spec is a constant,
  // so a parse failure is a bug in this file.
  if (!obs::ParseSloSpecs(
          "latency_p99:type=latency,"
          "metric=serve.batch_predictor.latency_seconds,ceiling_ms=50,"
          "budget=0.05,fast=4,slow=16;"
          "shed:type=ratio,bad=serve.shed_total.queue_full+"
          "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
          "budget=0.02,fast=4,slow=16",
          &specs, &error)) {
    std::abort();
  }
  slo_ = std::make_unique<obs::SloEngine>(series_.get(), &registry,
                                          std::move(specs));
}

void Telemetry::Tick() {
  series_->Tick(static_cast<double>(ticks_));
  slo_->Evaluate(ticks_);
  ++ticks_;
}

}  // namespace perfbench
