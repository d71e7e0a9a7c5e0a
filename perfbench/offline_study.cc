// Workload offline_study: the paper's study on an in-memory corpus, with a
// pool of 4 threads and no serving plane.
//
// One timed iteration builds the Dabiri label set with
// core::Pipeline::BuildDataset, scores a 50-tree random forest by 5-fold
// cross-validation under the user-oriented and the random scheme (Fig. 4,
// RF row), and ends with the importance-ordered top-k curve (Fig. 3a) up
// to k = 20. Set-up generates the corpus and computes the same study on
// one thread: the fold accuracies and the curve must be bit-identical to
// it at any thread count.

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "common/parallel.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/crossval.h"
#include "ml/feature_selection.h"
#include "ml/metrics.h"
#include "ml/normalize.h"
#include "ml/random_forest.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"

namespace perfbench {
namespace {

using namespace trajkit;

constexpr int kStudyThreads = 4;
constexpr int kFolds = 5;
constexpr uint64_t kFoldSeed = 17;
constexpr int kCurveFeatures = 20;

ml::RandomForestParams ForestParams(int trees, uint64_t seed) {
  ml::RandomForestParams params;
  params.n_estimators = trees;
  params.seed = seed;
  return params;
}

/// Fig. 3's evaluator: a 15-tree forest scored by 3-fold user-oriented CV.
ml::SubsetEvaluator CurveEvaluator() {
  return [](const ml::Dataset& subset) {
    const ml::RandomForest forest(ForestParams(15, kFoldSeed));
    const auto folds = core::MakeFolds(core::CvScheme::kUserOriented, subset,
                                       3, kFoldSeed);
    const auto cv = ml::CrossValidate(forest, subset, folds);
    return cv.ok() ? cv->MeanAccuracy() : -1.0;
  };
}

/// The study's outputs, compared bit for bit against the 1-thread
/// reference.
struct Outputs {
  std::vector<double> user_accuracy;
  std::vector<double> random_accuracy;
  std::vector<ml::SelectionStep> curve;
};

struct Iteration {
  Outputs outputs;
  double wall_s = 0.0;
  /// From the start until the user-oriented CV returned its predictions.
  double user_cv_done_s = 0.0;
};

/// The plain iteration, through the library's public calls.
Status PlainIteration(const std::vector<traj::Trajectory>& corpus,
                      Iteration* it) {
  const Clock::time_point start = Clock::now();
  const core::Pipeline pipeline;
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      pipeline.BuildDataset(corpus, core::LabelSet::Dabiri()));
  const ml::RandomForest forest(ForestParams(50, 42));
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::CrossValidationResult user_cv,
      ml::CrossValidate(forest, dataset,
                        core::MakeFolds(core::CvScheme::kUserOriented, dataset,
                                        kFolds, kFoldSeed)));
  it->user_cv_done_s = SecondsSince(start);
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::CrossValidationResult random_cv,
      ml::CrossValidate(forest, dataset,
                        core::MakeFolds(core::CvScheme::kRandom, dataset,
                                        kFolds, kFoldSeed)));
  ml::RandomForest ranker(ForestParams(50, 23));
  TRAJKIT_RETURN_IF_ERROR(ranker.Fit(dataset));
  TRAJKIT_ASSIGN_OR_RETURN(
      it->outputs.curve,
      ml::IncrementalRankingSelection(dataset, CurveEvaluator(),
                                      ranker.ImportanceRanking(),
                                      kCurveFeatures));
  it->outputs.user_accuracy = user_cv.fold_accuracy;
  it->outputs.random_accuracy = random_cv.fold_accuracy;
  it->wall_s = SecondsSince(start);
  return Status::Ok();
}

/// Per-layer measurements of the traced iteration.
struct Traced {
  double fit_phase_wall_s = 0.0;
  double fit_phase_cpu_s = 0.0;
  size_t folds = 0;
  bool rows_match = true;
};

/// One fold by hand, in EvaluateHoldout's steps, so Fit and Predict each
/// carry a span.
Result<double> TracedFold(const ml::Dataset& dataset,
                          const ml::FoldSplit& split, Tracer& tracer) {
  const int prep_id = tracer.Name("ml.fold_prep");
  const int fit_id = tracer.Name("ml.rf_fit");
  const int predict_id = tracer.Name("ml.rf_predict");
  const int score_id = tracer.Name("ml.score");
  tracer.Begin();
  ml::Dataset train = dataset.SelectSamples(split.train_indices);
  ml::Dataset test = dataset.SelectSamples(split.test_indices);
  ml::MinMaxScaler scaler;
  scaler.Fit(train.features());
  scaler.Transform(train.mutable_features());
  scaler.Transform(test.mutable_features());
  tracer.End(prep_id);
  ml::RandomForest forest(ForestParams(50, 42));
  tracer.Begin();
  const Status fit = forest.Fit(train);
  tracer.End(fit_id);
  TRAJKIT_RETURN_IF_ERROR(fit);
  tracer.Begin();
  const std::vector<int> predicted = forest.Predict(test.features());
  tracer.End(predict_id);
  Span span(tracer, score_id);
  return ml::Evaluate(test.labels(), predicted, dataset.num_classes())
      .accuracy;
}

/// The traced iteration: BuildDataset, then the same segments split into
/// SegmentCorpus, ComputePointFeatures and ExtractFromPointFeatures (on
/// the driver thread), then the folds one at a time, then the curve.
Status TracedIteration(const std::vector<traj::Trajectory>& corpus,
                       Tracer& tracer, Iteration* it, Traced* traced) {
  const int run_id = tracer.Name("bench.run");
  const int build_id = tracer.Name("core.build_dataset");
  const int segment_id = tracer.Name("traj.segment");
  const int point_id = tracer.Name("traj.point_features");
  const int stats_id = tracer.Name("traj.segment_stats");
  const int folds_id = tracer.Name("core.make_folds");
  const int rank_id = tracer.Name("ml.rank_fit");
  const int curve_id = tracer.Name("ml.importance_curve");

  const Clock::time_point start = Clock::now();
  tracer.Begin();
  const core::Pipeline pipeline;
  const core::LabelSet labels = core::LabelSet::Dabiri();
  tracer.Begin();
  Result<ml::Dataset> built = pipeline.BuildDataset(corpus, labels);
  tracer.End(build_id);
  TRAJKIT_RETURN_IF_ERROR(built.status());
  const ml::Dataset& dataset = built.value();

  tracer.Begin();
  const std::vector<traj::Segment> segments =
      traj::SegmentCorpus(corpus, pipeline.options().segmentation);
  tracer.End(segment_id);
  const traj::TrajectoryFeatureExtractor extractor(
      pipeline.options().point_features);
  size_t row = 0;
  for (const traj::Segment& segment : segments) {
    if (labels.ClassOf(segment.mode) < 0 || segment.points.size() < 2) {
      continue;
    }
    tracer.Begin();
    const traj::PointFeatures point_features =
        traj::ComputePointFeatures(segment.points,
                                   pipeline.options().point_features);
    tracer.End(point_id);
    tracer.Begin();
    const std::vector<double> features =
        extractor.ExtractFromPointFeatures(point_features);
    tracer.End(stats_id);
    const std::span<const double> expected =
        row < dataset.num_samples() ? dataset.features().Row(row)
                                    : std::span<const double>();
    traced->rows_match = traced->rows_match &&
                         std::equal(features.begin(), features.end(),
                                    expected.begin(), expected.end());
    ++row;
  }
  traced->rows_match = traced->rows_match && row == dataset.num_samples();

  const Clock::time_point fit_start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  for (const core::CvScheme scheme :
       {core::CvScheme::kUserOriented, core::CvScheme::kRandom}) {
    tracer.Begin();
    const std::vector<ml::FoldSplit> folds =
        core::MakeFolds(scheme, dataset, kFolds, kFoldSeed);
    tracer.End(folds_id);
    std::vector<double>& accuracy = scheme == core::CvScheme::kRandom
                                        ? it->outputs.random_accuracy
                                        : it->outputs.user_accuracy;
    for (const ml::FoldSplit& split : folds) {
      TRAJKIT_ASSIGN_OR_RETURN(const double fold_accuracy,
                               TracedFold(dataset, split, tracer));
      accuracy.push_back(fold_accuracy);
      ++traced->folds;
    }
    if (scheme == core::CvScheme::kUserOriented) {
      it->user_cv_done_s = SecondsSince(start);
    }
  }
  traced->fit_phase_cpu_s = ProcessCpuSeconds() - cpu_start;
  traced->fit_phase_wall_s = SecondsSince(fit_start);

  ml::RandomForest ranker(ForestParams(50, 23));
  tracer.Begin();
  const Status ranked = ranker.Fit(dataset);
  tracer.End(rank_id);
  TRAJKIT_RETURN_IF_ERROR(ranked);
  tracer.Begin();
  Result<std::vector<ml::SelectionStep>> curve =
      ml::IncrementalRankingSelection(dataset, CurveEvaluator(),
                                      ranker.ImportanceRanking(),
                                      kCurveFeatures);
  tracer.End(curve_id);
  TRAJKIT_RETURN_IF_ERROR(curve.status());
  it->outputs.curve = std::move(curve).value();
  tracer.End(run_id);
  it->wall_s = SecondsSince(start);
  return Status::Ok();
}

bool SameCurve(const std::vector<ml::SelectionStep>& a,
               const std::vector<ml::SelectionStep>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].feature_index != b[i].feature_index || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

/// Counts every fold and curve point as an attempt; one that differs from
/// the 1-thread reference fails.
void Check(const Outputs& reference, const Outputs& got, Report* report) {
  const auto check_folds = [&](const std::vector<double>& want,
                               const std::vector<double>& have,
                               const char* scheme) {
    for (size_t f = 0; f < want.size(); ++f) {
      const bool same = f < have.size() && have[f] == want[f];
      report->Attempt(same);
      if (!same) {
        report->Mismatch(std::string("offline_study: ") + scheme + " fold " +
                         std::to_string(f) +
                         " accuracy differs from the 1-thread reference");
      }
    }
  };
  check_folds(reference.user_accuracy, got.user_accuracy, "user-oriented");
  check_folds(reference.random_accuracy, got.random_accuracy, "random");
  const bool same_curve = SameCurve(reference.curve, got.curve);
  report->Attempt(same_curve, reference.curve.size());
  if (!same_curve) {
    report->Mismatch("offline_study: the top-k curve differs from the "
                     "1-thread reference");
  }
}

}  // namespace

int RunOfflineStudy(const Options& options, Report* report) {
  std::vector<traj::Trajectory> corpus;
  Outputs reference;
  Status status = Status::Ok();
  const double setup_s = MedianSetupSeconds(3, [&] {
    if (!status.ok()) return;
    corpus = {};  // A repeated set-up starts from nothing.
    corpus = MakeCorpus(options.seed, options.tiny);
    SetMaxThreads(1);
    Iteration it;
    status = PlainIteration(corpus, &it);
    reference = std::move(it.outputs);
  });
  SetMaxThreads(kStudyThreads);
  if (!status.ok()) {
    std::fprintf(stderr, "offline_study set-up: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  size_t points = 0;
  for (const traj::Trajectory& t : corpus) points += t.points.size();

  ResetPeakRss();
  std::vector<double> walls, rates, user_cv_done;
  Iteration plain;
  const Clock::time_point begin = Clock::now();
  do {
    Iteration it;
    if (Status s = PlainIteration(corpus, &it); !s.ok()) {
      std::fprintf(stderr, "offline_study: %s\n", s.ToString().c_str());
      return 1;
    }
    Check(reference, it.outputs, report);
    walls.push_back(it.wall_s);
    rates.push_back(static_cast<double>(points) / it.wall_s);
    user_cv_done.push_back(1e3 * it.user_cv_done_s);
    plain = std::move(it);
  } while (!options.trace && SecondsSince(begin) < options.seconds);

  if (!options.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("wall_s", Median(walls), "s");
    report->Add("points_per_s", Median(rates), "points/s");
    // Batch mode: every segment closes when segmentation runs at the start
    // and gets its prediction when the user-oriented CV returns, so every
    // percentile is the same time.
    report->Add("close_to_predict_ms_p50", Median(user_cv_done), "ms");
    report->Add("close_to_predict_ms_p90", Median(user_cv_done), "ms");
    // A batch sets its own rate: what it sustains is its throughput.
    report->Add("sustainable_points_per_s", Median(rates), "points/s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  Tracer tracer(true);
  Iteration it;
  Traced traced;
  if (Status s = TracedIteration(corpus, tracer, &it, &traced); !s.ok()) {
    std::fprintf(stderr, "offline_study traced: %s\n", s.ToString().c_str());
    return 1;
  }
  Check(reference, it.outputs, report);
  if (!traced.rows_match) {
    report->Mismatch("offline_study: the split pass's feature rows differ "
                     "from BuildDataset's");
  }
  tracer.WriteChromeTrace(options.work_dir + "/trace_offline_study.json");
  AddLedger(tracer, it.wall_s, report);
  report->Add("bench.trace_overhead", it.wall_s / plain.wall_s, "ratio");
  const auto total = [&tracer](const char* name) {
    return tracer.totals(tracer.Name(name)).total_s;
  };
  report->Add("bench.close_to_predict_ms_p99", 1e3 * it.user_cv_done_s,
              "ms");
  report->Add("core.build_dataset_s", total("core.build_dataset"), "s");
  report->Add("traj.segment_s", total("traj.segment"), "s");
  report->Add("traj.point_features_s", total("traj.point_features"), "s");
  report->Add("traj.segment_stats_s", total("traj.segment_stats"), "s");
  report->Add("ml.rf_fit_s", total("ml.rf_fit"), "s");
  report->Add("ml.rf_predict_s", total("ml.rf_predict"), "s");
  report->Add("ml.folds", static_cast<double>(traced.folds), "count");
  report->Add("ml.importance_curve_s", total("ml.importance_curve"), "s");
  report->Add("common.pool_busy_share",
              traced.fit_phase_cpu_s /
                  (traced.fit_phase_wall_s * kStudyThreads),
              "ratio");
  return 0;
}

}  // namespace perfbench
