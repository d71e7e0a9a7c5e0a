// Experiment E4 — reproduces Figure 4 of the paper: "The different cross
// validation results for user oriented cross-validation and random
// cross-validation."
//
// Setting (§4.4): identical classifiers and features under two CV schemes;
// only the fold construction differs. The paper's readout: random CV
// yields optimistic accuracy and F-score for every classifier.
//
// Flags: --users --days --seed --folds --scale --classifiers=a,b,c
//        --threads=N --timing_json=<path>

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
#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace trajkit {
namespace {

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 5, 2);
  const int repeats = flags.GetInt("repeats", 3, 1);
  const double scale = flags.GetDouble("scale", 1.0, 0.0);
  const std::string classifier_list = flags.GetString("classifiers", "");
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(flags, bench::kCorpusDefaults);
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf(
      "=== Figure 4: random vs user-oriented cross-validation ===\n\n");
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_fig4_cv_comparison", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  const auto built = bench::DieOnError(
      core::BuildSyntheticDataset(corpus_options,
                                  core::PipelineOptions{},
                                  core::LabelSet::Dabiri()),
      "dataset build");
  timing.RecordLap("dataset_build", phase_timer);
  std::printf("dataset: %zu segments, %zu users\n\n",
              built.dataset.num_samples(),
              built.dataset.DistinctGroups().size());

  std::vector<std::string> roster;
  if (classifier_list.empty()) {
    roster = ml::AllClassifierNames();
  } else {
    for (std::string_view name : SplitString(classifier_list, ',')) {
      roster.emplace_back(name);
    }
  }

  TablePrinter table({"classifier", "random_acc", "user_acc", "acc_gap",
                      "random_wf1", "user_wf1", "wf1_gap"});
  int optimistic = 0;
  // Per-classifier fold-accuracy series (folds aligned across classifiers
  // by the shared fold seeds) for the §4.4 correlation claim.
  std::vector<std::vector<double>> random_series;
  std::vector<std::vector<double>> user_series;
  for (const std::string& name : roster) {
    double random_acc = 0.0;
    double user_acc = 0.0;
    double random_wf1 = 0.0;
    double user_wf1 = 0.0;
    std::vector<double> random_folds_acc;
    std::vector<double> user_folds_acc;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      const uint64_t fold_seed = 7 + static_cast<uint64_t>(repeat);
      const auto model = bench::DieOnError(
          ml::MakeClassifier(name,
                             {.seed = 42 + static_cast<uint64_t>(repeat),
                              .scale = scale}),
          "classifier construction");
      const auto random_folds = core::MakeFolds(
          core::CvScheme::kRandom, built.dataset, folds, fold_seed);
      const auto user_folds = core::MakeFolds(
          core::CvScheme::kUserOriented, built.dataset, folds, fold_seed);
      const auto random_cv = bench::DieOnError(
          ml::CrossValidate(*model, built.dataset, random_folds),
          "random CV");
      const auto user_cv = bench::DieOnError(
          ml::CrossValidate(*model, built.dataset, user_folds), "user CV");
      random_acc += random_cv.MeanAccuracy() / repeats;
      user_acc += user_cv.MeanAccuracy() / repeats;
      random_wf1 += random_cv.MeanWeightedF1() / repeats;
      user_wf1 += user_cv.MeanWeightedF1() / repeats;
      random_folds_acc.insert(random_folds_acc.end(),
                              random_cv.fold_accuracy.begin(),
                              random_cv.fold_accuracy.end());
      user_folds_acc.insert(user_folds_acc.end(),
                            user_cv.fold_accuracy.begin(),
                            user_cv.fold_accuracy.end());
    }
    random_series.push_back(std::move(random_folds_acc));
    user_series.push_back(std::move(user_folds_acc));
    const double acc_gap = random_acc - user_acc;
    const double wf1_gap = random_wf1 - user_wf1;
    if (acc_gap > 0.0) ++optimistic;
    table.AddRow({name, StrPrintf("%.4f", random_acc),
                  StrPrintf("%.4f", user_acc),
                  StrPrintf("%+.4f", acc_gap),
                  StrPrintf("%.4f", random_wf1),
                  StrPrintf("%.4f", user_wf1),
                  StrPrintf("%+.4f", wf1_gap)});
  }
  table.Print();
  std::printf(
      "\n%d/%zu classifiers score higher under random CV.\n",
      optimistic, roster.size());

  // §4.4 closes with a consistency observation about the two schemes.
  // Two readings, both reported: (a) fold-score dispersion — user-oriented
  // folds vary far more because whole users differ in difficulty; (b) the
  // cross-classifier fold-score correlation — under user CV the folds'
  // difficulty is shared by all classifiers (hard users are hard for
  // everyone), under random CV fold noise is classifier-specific.
  auto dispersion = [](const std::vector<std::vector<double>>& series) {
    double total = 0.0;
    for (const std::vector<double>& s : series) {
      total += stats::StdDev(s);
    }
    return series.empty() ? 0.0
                          : total / static_cast<double>(series.size());
  };
  std::printf("mean fold-score std: random=%.4f  user_oriented=%.4f\n",
              dispersion(random_series), dispersion(user_series));
  const auto random_corr = stats::MeanPairwiseCorrelation(random_series);
  const auto user_corr = stats::MeanPairwiseCorrelation(user_series);
  if (random_corr.ok() && user_corr.ok()) {
    std::printf(
        "mean pairwise fold-score correlation across classifiers: "
        "random=%.3f  user_oriented=%.3f\n",
        random_corr.value(), user_corr.value());
  }
  std::printf(
      "paper reference: random CV is optimistic for every classifier on "
      "accuracy and F-score; user-oriented results are less stable "
      "fold-to-fold.\n");
  timing.RecordLap("cv_comparison", phase_timer);
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("total time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
