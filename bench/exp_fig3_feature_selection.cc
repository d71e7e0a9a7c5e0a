// Experiment E2 — reproduces Figure 3 of the paper:
//   (a) accuracy of a random forest while appending features in
//       random-forest importance order ("information theoretical" method);
//   (b) accuracy while appending features chosen by greedy forward wrapper
//       search.
//
// Setting (§4.2): Endo et al. label set, user-oriented cross-validation.
// The paper's readout: the top-20 subset achieves the best accuracy, and
// speed_p90 is the most essential feature under both methods.
//
// Beyond the paper, the same curve can be produced for the *filter*
// branch of its §2 taxonomy (mutual information, chi-square, ANOVA F) via
// --method, completing the filter/wrapper/embedded comparison the related
// work discusses.
//
// Flags: --users --days --seed --folds --trees --max_features
//        --method=importance|wrapper|mi|chi2|anova|both|all
//        --out=<csv path> --threads=N --timing_json=<path>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/feature_selection.h"
#include "ml/filter_selection.h"
#include "ml/random_forest.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

// Cross-validated RF accuracy under user-oriented folds — the evaluator
// both selection methods maximize.
ml::SubsetEvaluator MakeEvaluator(int trees, int folds, uint64_t seed) {
  return [trees, folds, seed](const ml::Dataset& subset) {
    ml::RandomForestParams params;
    params.n_estimators = trees;
    params.seed = seed;
    const ml::RandomForest forest(params);
    const auto cv_folds =
        core::MakeFolds(core::CvScheme::kUserOriented, subset, folds, seed);
    const auto cv = ml::CrossValidate(forest, subset, cv_folds);
    return cv.ok() ? cv->MeanAccuracy() : 0.0;
  };
}

void PrintCurve(const char* title,
                const std::vector<ml::SelectionStep>& steps,
                const std::vector<std::string>& names, CsvTable* csv,
                const char* method) {
  std::printf("\n--- %s ---\n", title);
  TablePrinter table({"k", "appended_feature", "cv_accuracy"});
  size_t best_k = 0;
  double best = -1.0;
  for (size_t i = 0; i < steps.size(); ++i) {
    table.AddRow({StrPrintf("%zu", i + 1),
                  names[static_cast<size_t>(steps[i].feature_index)],
                  StrPrintf("%.4f", steps[i].score)});
    csv->rows.push_back(
        {method, StrPrintf("%zu", i + 1),
         names[static_cast<size_t>(steps[i].feature_index)],
         StrPrintf("%.6f", steps[i].score)});
    if (steps[i].score > best) {
      best = steps[i].score;
      best_k = i + 1;
    }
  }
  table.Print();
  std::printf("best prefix: k=%zu, accuracy=%.4f\n", best_k, best);
  std::printf("first feature appended: %s\n",
              names[static_cast<size_t>(steps[0].feature_index)].c_str());
}

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 3, 2);
  const int trees = flags.GetInt("trees", 15, 1);
  const int max_features = flags.GetInt("max_features", 30, 1);
  const std::string method = flags.GetString("method", "both");
  const std::string out_path =
      flags.GetString("out", "results/fig3_feature_selection.csv");
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(
          flags, {.num_users = 40, .days_per_user = 4});
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf(
      "=== Figure 3: feature selection (user-oriented CV, Endo labels) "
      "===\n");
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_fig3_feature_selection", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  const auto built = bench::DieOnError(
      core::BuildSyntheticDataset(corpus_options, core::PipelineOptions{},
                                  core::LabelSet::Endo()),
      "dataset build");
  std::printf("dataset: %zu segments x %zu features\n",
              built.dataset.num_samples(), built.dataset.num_features());
  timing.RecordLap("dataset_build", phase_timer);

  const auto& names = traj::TrajectoryFeatureExtractor::FeatureNames();
  const ml::SubsetEvaluator evaluator = MakeEvaluator(trees, folds, 17);
  CsvTable csv;
  csv.header = {"method", "k", "feature", "cv_accuracy"};

  if (method == "importance" || method == "both" || method == "all") {
    // (a) Rank all 70 features by random-forest impurity importance, then
    // evaluate prefixes of every length.
    ml::RandomForestParams params;
    params.n_estimators = 50;
    params.seed = 23;
    ml::RandomForest forest(params);
    const Status fit_status = forest.Fit(built.dataset);
    if (!fit_status.ok()) {
      std::fprintf(stderr, "importance forest fit failed: %s\n",
                   fit_status.ToString().c_str());
      return 1;
    }
    const std::vector<int> ranking = forest.ImportanceRanking();
    std::printf("\nRF importance ranking (top 10):\n");
    for (int i = 0; i < 10; ++i) {
      std::printf("  %2d. %-22s %.4f\n", i + 1,
                  names[static_cast<size_t>(ranking[static_cast<size_t>(i)])]
                      .c_str(),
                  forest.FeatureImportances()[static_cast<size_t>(
                      ranking[static_cast<size_t>(i)])]);
    }
    const auto steps = bench::DieOnError(
        ml::IncrementalRankingSelection(built.dataset, evaluator, ranking,
                                        70),
        "importance curve");
    PrintCurve("Fig 3(a): incremental by RF importance", steps, names, &csv,
               "importance");
    timing.RecordLap("importance_curve", phase_timer);
  }

  // Filter methods (extension): rank by a classifier-independent score,
  // then evaluate prefixes with the same evaluator.
  struct FilterMethod {
    const char* name;
    Result<std::vector<ml::FeatureScore>> scores;
  };
  std::vector<FilterMethod> filters;
  if (method == "mi" || method == "all") {
    filters.push_back({"mi", ml::MutualInformationScores(built.dataset)});
  }
  if (method == "chi2" || method == "all") {
    filters.push_back({"chi2", ml::ChiSquareScores(built.dataset)});
  }
  if (method == "anova" || method == "all") {
    filters.push_back({"anova", ml::AnovaFScores(built.dataset)});
  }
  for (FilterMethod& filter : filters) {
    if (!filter.scores.ok()) {
      std::fprintf(stderr, "%s scoring failed: %s\n", filter.name,
                   filter.scores.status().ToString().c_str());
      continue;
    }
    const std::vector<int> ranking =
        ml::RankingFromScores(filter.scores.value());
    const auto steps = bench::DieOnError(
        ml::IncrementalRankingSelection(built.dataset, evaluator, ranking,
                                        std::min(max_features, 70)),
        "filter curve");
    PrintCurve(StrPrintf("extension: incremental by %s filter score",
                         filter.name)
                   .c_str(),
               steps, names, &csv, filter.name);
  }

  if (method == "wrapper" || method == "both" || method == "all") {
    // (b) Greedy forward wrapper search.
    phase_timer.Reset();
    const auto steps = bench::DieOnError(
        ml::ForwardWrapperSelection(built.dataset, evaluator, max_features),
        "wrapper search");
    timing.RecordLap("wrapper_search", phase_timer);
    PrintCurve("Fig 3(b): forward wrapper search", steps, names, &csv,
               "wrapper");
    std::printf("\ntop-20 wrapper subset (the paper's selected subset):\n");
    const std::vector<int> top20 = ml::PrefixOfSize(
        steps, std::min<size_t>(20, steps.size()));
    for (size_t i = 0; i < top20.size(); ++i) {
      std::printf("  %2zu. %s\n", i + 1,
                  names[static_cast<size_t>(top20[i])].c_str());
    }
  }

  if (!out_path.empty()) {
    const Status status = WriteCsvFile(out_path, csv);
    if (status.ok()) {
      std::printf("\ncurves written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "csv write failed: %s\n",
                   status.ToString().c_str());
    }
  }

  std::printf(
      "\npaper reference: accuracy rises then plateaus; top-20 subset "
      "is best; speed_p90 is the most essential feature under both "
      "methods.\n");
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("total time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
