// Experiment E1 — reproduces Figure 2 of the paper: "Among the trained
// classifiers random forest achieved the highest mean accuracy."
//
// Setting (§4.1): Dabiri & Heaslip label set {walk, train, bus, bike,
// driving}, no noise removal, random cross-validation, six classifiers.
// Prints per-classifier fold accuracies (the data behind the box plot),
// the mean/std, and pairwise Wilcoxon signed-rank tests of random forest
// against every other classifier — the significance readouts quoted in
// §4.1.
//
// Flags: --users --days --seed --folds --repeats --scale
//        --threads=N --timing_json=<path>
//   --scale < 1 shrinks ensemble sizes / epochs for a faster smoke run.

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/factory.h"
#include "ml/stats_tests.h"

namespace trajkit {
namespace {

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 5, 2);
  const int repeats = flags.GetInt("repeats", 2, 1);
  const double scale = flags.GetDouble("scale", 1.0, 0.0);
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(flags, bench::kCorpusDefaults);
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf(
      "=== Figure 2: classifier selection (random CV, Dabiri labels) ===\n");
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_fig2_classifier_selection", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  const auto built = bench::DieOnError(
      core::BuildSyntheticDataset(corpus_options,
                                  core::PipelineOptions{},
                                  core::LabelSet::Dabiri()),
      "dataset build");
  timing.RecordLap("dataset_build", phase_timer);
  std::printf("corpus: %zu points, dataset: %zu segments x %zu features\n\n",
              built.corpus_summary.total_points, built.dataset.num_samples(),
              built.dataset.num_features());

  // Collect per-fold accuracies for each classifier (repeats × folds).
  std::map<std::string, std::vector<double>> fold_scores;
  TablePrinter table({"classifier", "mean_acc", "std_acc", "mean_wf1",
                      "fit+eval_s"});
  for (const std::string& name : ml::AllClassifierNames()) {
    Stopwatch timer;
    std::vector<double> scores;
    double wf1_sum = 0.0;
    int wf1_count = 0;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      const auto model = bench::DieOnError(
          ml::MakeClassifier(
              name, {.seed = 42 + static_cast<uint64_t>(repeat),
                     .scale = scale}),
          "classifier construction");
      const auto cv_folds =
          core::MakeFolds(core::CvScheme::kRandom, built.dataset, folds,
                          100 + static_cast<uint64_t>(repeat));
      const auto cv = bench::DieOnError(
          ml::CrossValidate(*model, built.dataset, cv_folds),
          "cross-validation");
      scores.insert(scores.end(), cv.fold_accuracy.begin(),
                    cv.fold_accuracy.end());
      wf1_sum += cv.MeanWeightedF1();
      ++wf1_count;
    }
    double mean = 0.0;
    for (double s : scores) mean += s;
    mean /= static_cast<double>(scores.size());
    double var = 0.0;
    for (double s : scores) var += (s - mean) * (s - mean);
    var /= static_cast<double>(scores.size());
    table.AddRow({name, StrPrintf("%.4f", mean),
                  StrPrintf("%.4f", std::sqrt(var)),
                  StrPrintf("%.4f", wf1_sum / wf1_count),
                  StrPrintf("%.1f", timer.ElapsedSeconds())});
    timing.Record("cv_" + name, timer.ElapsedSeconds());
    fold_scores[name] = std::move(scores);
  }
  table.Print();

  // Box-plot data: the per-fold accuracies behind Figure 2.
  std::printf("\nper-fold accuracies (box-plot data):\n");
  for (const auto& [name, scores] : fold_scores) {
    std::string line = name + ":";
    for (double s : scores) line += StrPrintf(" %.4f", s);
    std::printf("%s\n", line.c_str());
  }

  // Wilcoxon signed-rank: random forest vs every other classifier, paired
  // on folds (§4.1's significance statements).
  std::printf("\nWilcoxon signed-rank, random_forest vs. others "
              "(two-sided):\n");
  TablePrinter wilcoxon({"opponent", "W+", "p_value", "n", "significant"});
  const std::vector<double>& rf = fold_scores.at("random_forest");
  for (const auto& [name, scores] : fold_scores) {
    if (name == "random_forest") continue;
    const auto test = ml::WilcoxonSignedRank(rf, scores);
    if (!test.ok()) {
      wilcoxon.AddRow({name, "-", "-", "-", "-"});
      continue;
    }
    wilcoxon.AddRow({name, StrPrintf("%.1f", test->statistic),
                     StrPrintf("%.4f", test->p_value),
                     StrPrintf("%d", test->n_used),
                     test->p_value < 0.05 ? "yes" : "no"});
  }
  wilcoxon.Print();

  std::printf(
      "\npaper reference: RF mu=90.4%%, XGBoost mu=90.0%%; RF vs XGB and "
      "RF vs DT not significant; RF vs {SVM, NN, AdaBoost} significant.\n");
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("total time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
