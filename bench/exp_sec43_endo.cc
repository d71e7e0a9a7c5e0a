// Experiment E3a — reproduces the first comparison of §4.3: against Endo
// et al. [4] ("Deep feature extraction from trajectories for
// transportation mode estimation").
//
// Setting: Endo label set; training and test users disjoint ("we divided
// the training and test dataset in a way that each user can appear only
// either in the training or test set"), ~80/20; top-20 features (best
// subset from §4.2, obtained here from RF importance); random forest with
// 50 estimators. The paper reports 69.50% vs. Endo's 67.9% with a
// one-sample Wilcoxon signed-rank test (p = 0.0431).
//
// Flags: --users --days --seed --repeats --trees --reference
//        --threads=N --timing_json=<path>

#include <cstdio>
#include <set>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/random_forest.h"
#include "ml/splits.h"
#include "ml/stats_tests.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int repeats = flags.GetInt("repeats", 7, 1);
  const int trees = flags.GetInt("trees", 50, 1);
  const double reference = flags.GetDouble("reference", 0.679);
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(flags, bench::kCorpusDefaults);
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf(
      "=== Section 4.3 (i): comparison with Endo et al. [4] ===\n"
      "disjoint-user 80/20 split, top-20 features, RF(%d)\n\n",
      trees);
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_sec43_endo", harness);
  Stopwatch total_timer;
  Stopwatch phase_timer;

  const auto built = bench::DieOnError(
      core::BuildSyntheticDataset(corpus_options,
                                  core::PipelineOptions{},
                                  core::LabelSet::Endo()),
      "dataset build");
  timing.RecordLap("dataset_build", phase_timer);
  std::printf("dataset: %zu segments, %d classes, %zu users\n",
              built.dataset.num_samples(), built.dataset.num_classes(),
              built.dataset.DistinctGroups().size());

  // Top-20 features by random-forest importance (the §4.2 best subset).
  ml::RandomForestParams rank_params;
  rank_params.n_estimators = trees;
  rank_params.seed = 11;
  ml::RandomForest ranker(rank_params);
  const Status fit_status = ranker.Fit(built.dataset);
  if (!fit_status.ok()) {
    std::fprintf(stderr, "ranking fit failed: %s\n",
                 fit_status.ToString().c_str());
    return 1;
  }
  std::vector<int> top20 = ranker.ImportanceRanking();
  top20.resize(20);
  const ml::Dataset dataset20 = built.dataset.SelectFeatures(top20);
  const auto& names = traj::TrajectoryFeatureExtractor::FeatureNames();
  std::printf("top-20 subset head: %s, %s, %s, ...\n\n",
              names[static_cast<size_t>(top20[0])].c_str(),
              names[static_cast<size_t>(top20[1])].c_str(),
              names[static_cast<size_t>(top20[2])].c_str());

  // Repeated disjoint-user holdouts.
  TablePrinter table({"repeat", "test_users", "test_segments", "accuracy",
                      "weighted_f1"});
  std::vector<double> accuracies;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    Rng rng(1000 + static_cast<uint64_t>(repeat));
    const ml::FoldSplit split =
        ml::GroupShuffleSplit(dataset20.groups(), 0.2, rng);
    ml::RandomForestParams params;
    params.n_estimators = trees;
    params.seed = 2000 + static_cast<uint64_t>(repeat);
    const ml::RandomForest forest(params);
    const auto holdout = bench::DieOnError(
        ml::EvaluateHoldout(forest, dataset20, split), "holdout");
    std::set<int> test_users;
    for (size_t i : split.test_indices) {
      test_users.insert(dataset20.groups()[i]);
    }
    table.AddRow({StrPrintf("%d", repeat + 1),
                  StrPrintf("%zu", test_users.size()),
                  StrPrintf("%zu", split.test_indices.size()),
                  StrPrintf("%.4f", holdout.accuracy),
                  StrPrintf("%.4f", holdout.weighted_f1)});
    accuracies.push_back(holdout.accuracy);
  }
  table.Print();

  double mean = 0.0;
  for (double a : accuracies) mean += a;
  mean /= static_cast<double>(accuracies.size());
  std::printf("\nmean accuracy over %d repeats: %.4f\n", repeats, mean);

  const auto test = ml::WilcoxonSignedRankOneSample(
      accuracies, reference, ml::Alternative::kGreater);
  if (test.ok()) {
    std::printf(
        "one-sample Wilcoxon vs reference %.3f (greater): W+=%.1f, "
        "p=%.4f%s\n",
        reference, test->statistic, test->p_value,
        test->exact ? " (exact)" : "");
  }
  std::printf(
      "\npaper reference: 69.50%% vs Endo's 67.9%%, p=0.0431 — ours should "
      "likewise exceed the reference.\n");
  timing.RecordLap("evaluation", phase_timer);
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("total time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
