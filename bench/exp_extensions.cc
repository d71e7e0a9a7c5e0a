// Experiment E7 (extension) — evaluates the library features that go
// beyond the paper, in the paper's own evaluation frame:
//   1. segmentation strategy: the paper's (user, day, mode) runs vs
//      fixed-duration windows (the scheme of Dabiri & Heaslip), which
//      needs no test-time annotations;
//   2. the 70-statistic feature set vs 70 + 8 Zheng-style segment
//      features (heading-change / stop / velocity-change rates — the
//      "tailored features" the paper's §5 names as future work);
//   3. the extended classifier roster (six paper families + k-NN +
//      logistic regression) under random and user-oriented CV.
//
// Flags: --users --days --seed --folds --scale --threads=N
//        --timing_json=<path>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/factory.h"
#include "synthgeo/generator.h"

namespace trajkit {
namespace {

double CvAccuracy(const ml::Classifier& model, const ml::Dataset& dataset,
                  core::CvScheme scheme, int folds, uint64_t seed) {
  const auto cv_folds = core::MakeFolds(scheme, dataset, folds, seed);
  const auto cv = ml::CrossValidate(model, dataset, cv_folds);
  return cv.ok() ? cv->MeanAccuracy() : 0.0;
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 5, 2);
  const double scale = flags.GetDouble("scale", 0.5, 0.0);
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(flags, bench::kCorpusDefaults);
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf("=== Extensions: segmentation, features, classifiers ===\n\n");
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_extensions", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  synthgeo::GeoLifeLikeGenerator generator(corpus_options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  timing.RecordLap("corpus_generate", phase_timer);
  const core::LabelSet labels = core::LabelSet::Dabiri();

  // ---- 1. Segmentation strategy ---------------------------------------
  std::printf("--- segmentation strategy (RF, random + user CV) ---\n");
  {
    TablePrinter table({"strategy", "segments", "random_acc", "user_acc"});
    struct Strategy {
      const char* name;
      core::PipelineOptions options;
    };
    std::vector<Strategy> strategies;
    strategies.push_back({"user_day_mode", core::PipelineOptions{}});
    for (double window_s : {120.0, 300.0, 600.0}) {
      core::PipelineOptions options;
      options.strategy = core::SegmentationStrategy::kFixedWindows;
      options.windows.window_seconds = window_s;
      strategies.push_back(
          {window_s == 120.0   ? "windows_120s"
           : window_s == 300.0 ? "windows_300s"
                               : "windows_600s",
           options});
    }
    for (const Strategy& strategy : strategies) {
      const core::Pipeline pipeline(strategy.options);
      const auto dataset = pipeline.BuildDataset(corpus, labels);
      if (!dataset.ok()) continue;
      const auto rf = bench::DieOnError(
          ml::MakeClassifier("random_forest", {.seed = 1, .scale = scale}),
          "factory");
      table.AddRow(
          {strategy.name, StrPrintf("%zu", dataset->num_samples()),
           StrPrintf("%.4f", CvAccuracy(*rf, dataset.value(),
                                        core::CvScheme::kRandom, folds, 5)),
           StrPrintf("%.4f",
                     CvAccuracy(*rf, dataset.value(),
                                core::CvScheme::kUserOriented, folds, 5))});
    }
    table.Print();
    std::printf("(fixed windows avoid the paper's test-time annotation "
                "assumption at some accuracy cost)\n");
  }

  // ---- 2. Extended features -------------------------------------------
  std::printf("\n--- 70 statistics vs 70+8 Zheng features ---\n");
  {
    TablePrinter table({"feature_set", "features", "random_acc",
                        "user_acc"});
    for (bool extended : {false, true}) {
      core::PipelineOptions options;
      options.include_extended_features = extended;
      const core::Pipeline pipeline(options);
      const auto dataset = bench::DieOnError(
          pipeline.BuildDataset(corpus, labels), "pipeline");
      const auto rf = bench::DieOnError(
          ml::MakeClassifier("random_forest", {.seed = 2, .scale = scale}),
          "factory");
      table.AddRow(
          {extended ? "70+8 extended" : "70 statistics",
           StrPrintf("%zu", dataset.num_features()),
           StrPrintf("%.4f", CvAccuracy(*rf, dataset,
                                        core::CvScheme::kRandom, folds, 7)),
           StrPrintf("%.4f",
                     CvAccuracy(*rf, dataset,
                                core::CvScheme::kUserOriented, folds, 7))});
    }
    table.Print();
  }

  // ---- 3. Four evaluation schemes (incl. temporal, §5 future work) ----
  std::printf("\n--- evaluation schemes (RF) ---\n");
  {
    const core::Pipeline pipeline;
    const auto dataset = bench::DieOnError(
        pipeline.BuildDataset(corpus, labels), "pipeline");
    TablePrinter table({"scheme", "accuracy", "weighted_f1"});
    for (core::CvScheme scheme :
         {core::CvScheme::kRandom, core::CvScheme::kStratified,
          core::CvScheme::kUserOriented, core::CvScheme::kTemporal}) {
      const auto rf = bench::DieOnError(
          ml::MakeClassifier("random_forest", {.seed = 9, .scale = scale}),
          "factory");
      const auto cv_folds = core::MakeFolds(scheme, dataset, folds, 13);
      const auto cv = bench::DieOnError(
          ml::CrossValidate(*rf, dataset, cv_folds), "CV");
      table.AddRow({std::string(core::CvSchemeToString(scheme)),
                    StrPrintf("%.4f", cv.MeanAccuracy()),
                    StrPrintf("%.4f", cv.MeanWeightedF1())});
    }
    table.Print();
    std::printf("(temporal folds train strictly on earlier days — the "
                "deployment-faithful holdout of §5's future work)\n");
  }

  // ---- 4. Extended classifier roster ----------------------------------
  std::printf("\n--- extended roster (random vs user CV) ---\n");
  {
    const core::Pipeline pipeline;
    const auto dataset = bench::DieOnError(
        pipeline.BuildDataset(corpus, labels), "pipeline");
    TablePrinter table({"classifier", "random_acc", "user_acc", "gap"});
    for (const std::string& name : ml::ExtendedClassifierNames()) {
      const auto model = bench::DieOnError(
          ml::MakeClassifier(name, {.seed = 3, .scale = scale}), "factory");
      const double random_acc = CvAccuracy(
          *model, dataset, core::CvScheme::kRandom, folds, 11);
      const double user_acc = CvAccuracy(
          *model, dataset, core::CvScheme::kUserOriented, folds, 11);
      table.AddRow({name, StrPrintf("%.4f", random_acc),
                    StrPrintf("%.4f", user_acc),
                    StrPrintf("%+.4f", random_acc - user_acc)});
    }
    table.Print();
  }

  timing.RecordLap("extensions", phase_timer);
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("\ntotal time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
