// Experiment E8 (extension) — learning curves: how the headline numbers
// scale with the amount of data. Puts every other experiment's corpus-size
// defaults in context and shows where the paper-scale plateau begins.
// Sweeps the number of users (the unit that matters for user-oriented CV)
// at a fixed number of days.
//
// Flags: --days --seed --folds --scale --max_users --threads=N
//        --timing_json=<path>

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/factory.h"

namespace trajkit {
namespace {

int Run(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int folds = flags.GetInt("folds", 5, 2);
  const int max_users = flags.GetInt("max_users", 60, 1);
  const double scale = flags.GetDouble("scale", 1.0, 0.0);
  // The sweep sets the user count, so --users is not a flag here.
  synthgeo::GeneratorOptions generator_options =
      synthgeo::GeneratorOptionsFromFlags(
          flags, {.num_users = 0, .days_per_user = 4});
  const auto harness = bench::HarnessOptions::FromFlags(flags);
  flags.CheckOrExit();

  std::printf(
      "=== Learning curve: corpus size vs accuracy (RF, Dabiri labels) "
      "===\n\n");
  std::printf("threads: %d\n", harness.ApplyThreads());
  bench::TimingJson timing("exp_learning_curve", harness);
  Stopwatch total_timer;

  TablePrinter table({"users", "segments", "points", "random_acc",
                      "user_acc", "gap", "seconds"});
  for (int users : {10, 20, 30, 45, 60, 80}) {
    if (users > max_users) break;
    generator_options.num_users = users;
    Stopwatch timer;
    const auto built = bench::DieOnError(
        core::BuildSyntheticDataset(generator_options,
                                    core::PipelineOptions{},
                                    core::LabelSet::Dabiri()),
        "dataset build");
    const auto rf = bench::DieOnError(
        ml::MakeClassifier("random_forest", {.seed = 1, .scale = scale}),
        "factory");
    const auto random_folds = core::MakeFolds(core::CvScheme::kRandom,
                                              built.dataset, folds, 5);
    const auto user_folds = core::MakeFolds(
        core::CvScheme::kUserOriented, built.dataset, folds, 5);
    const auto random_cv = bench::DieOnError(
        ml::CrossValidate(*rf, built.dataset, random_folds), "random CV");
    const auto user_cv = bench::DieOnError(
        ml::CrossValidate(*rf, built.dataset, user_folds), "user CV");
    table.AddRow(
        {StrPrintf("%d", users),
         StrPrintf("%zu", built.dataset.num_samples()),
         StrPrintf("%zu", built.corpus_summary.total_points),
         StrPrintf("%.4f", random_cv.MeanAccuracy()),
         StrPrintf("%.4f", user_cv.MeanAccuracy()),
         StrPrintf("%+.4f",
                   random_cv.MeanAccuracy() - user_cv.MeanAccuracy()),
         StrPrintf("%.1f", timer.ElapsedSeconds())});
    timing.Record(StrPrintf("users_%d", users), timer.ElapsedSeconds());
  }
  table.Print();
  std::printf(
      "\nexpected shape: both curves rise with more users; the optimism "
      "gap persists at every size.\n");
  timing.Record("total", total_timer.ElapsedSeconds());
  timing.Write();
  std::printf("total time: %.1fs\n", total_timer.ElapsedSeconds());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
