// Tests for the core framework: label sets, the 8-step pipeline, and the
// experiment helpers.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit::core {
namespace {

using traj::Mode;

// ------------------------------------------------------------- LabelSet --

TEST(LabelSetTest, DabiriMergesDrivingAndTrain) {
  const LabelSet labels = LabelSet::Dabiri();
  EXPECT_EQ(labels.num_classes(), 5);
  EXPECT_EQ(labels.ClassOf(Mode::kCar), labels.ClassOf(Mode::kTaxi));
  EXPECT_EQ(labels.ClassOf(Mode::kTrain), labels.ClassOf(Mode::kSubway));
  EXPECT_NE(labels.ClassOf(Mode::kWalk), labels.ClassOf(Mode::kBike));
  EXPECT_EQ(labels.ClassOf(Mode::kAirplane), -1);
  EXPECT_EQ(labels.ClassOf(Mode::kUnknown), -1);
  EXPECT_EQ(labels.class_names()[3], "driving");
}

TEST(LabelSetTest, EndoKeepsSevenDistinct) {
  const LabelSet labels = LabelSet::Endo();
  EXPECT_EQ(labels.num_classes(), 7);
  std::set<int> classes;
  for (Mode mode : {Mode::kWalk, Mode::kBike, Mode::kBus, Mode::kCar,
                    Mode::kTaxi, Mode::kSubway, Mode::kTrain}) {
    const int cls = labels.ClassOf(mode);
    EXPECT_GE(cls, 0);
    EXPECT_TRUE(classes.insert(cls).second) << "duplicate class";
  }
  EXPECT_EQ(labels.ClassOf(Mode::kBoat), -1);
}

TEST(LabelSetTest, AllModesCoversEleven) {
  const LabelSet labels = LabelSet::AllModes();
  EXPECT_EQ(labels.num_classes(), 11);
  for (Mode mode : traj::AllLabeledModes()) {
    EXPECT_GE(labels.ClassOf(mode), 0);
  }
  EXPECT_EQ(labels.ClassOf(Mode::kUnknown), -1);
}

// -------------------------------------------------------------- Pipeline --

std::vector<traj::Trajectory> SmallCorpus(uint64_t seed = 3) {
  synthgeo::GeneratorOptions options;
  options.num_users = 8;
  options.days_per_user = 2;
  options.seed = seed;
  synthgeo::GeoLifeLikeGenerator generator(options);
  return generator.Generate();
}

TEST(PipelineTest, BuildsSeventyFeatureDataset) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_features(), 70u);
  EXPECT_GT(dataset->num_samples(), 20u);
  EXPECT_EQ(dataset->num_classes(), 5);
  EXPECT_EQ(dataset->feature_names(),
            traj::TrajectoryFeatureExtractor::FeatureNames());
  // Group ids are user ids.
  const auto groups = dataset->DistinctGroups();
  EXPECT_GT(groups.size(), 1u);
  for (int g : groups) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, 8);
  }
  const PipelineStats& stats = pipeline.stats();
  EXPECT_GE(stats.segments_total, stats.segments_in_label_set);
  EXPECT_EQ(stats.segments_in_label_set, dataset->num_samples());
}

TEST(PipelineTest, LabelSetFiltersClasses) {
  const Pipeline pipeline;
  const auto corpus = SmallCorpus(5);
  const auto dabiri = pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  const auto endo = pipeline.BuildDataset(corpus, LabelSet::Endo());
  ASSERT_TRUE(dabiri.ok());
  ASSERT_TRUE(endo.ok());
  // Endo keeps the same underlying modes (no boat/airplane/run/motorcycle
  // in either), so sample counts match; class counts differ.
  EXPECT_EQ(dabiri->num_classes(), 5);
  EXPECT_EQ(endo->num_classes(), 7);
}

TEST(PipelineTest, NoiseRemovalOptionRuns) {
  PipelineOptions options;
  options.remove_noise = true;
  const Pipeline pipeline(options);
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(7), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  EXPECT_GT(dataset->num_samples(), 10u);
}

TEST(PipelineTest, MinPointsControlsSegmentCount) {
  PipelineOptions strict;
  strict.segmentation.min_points = 200;
  PipelineOptions lax;
  lax.segmentation.min_points = 10;
  const auto corpus = SmallCorpus(9);
  const Pipeline strict_pipeline(strict);
  const Pipeline lax_pipeline(lax);
  const auto strict_ds =
      strict_pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  const auto lax_ds = lax_pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  ASSERT_TRUE(lax_ds.ok());
  if (strict_ds.ok()) {
    EXPECT_LT(strict_ds->num_samples(), lax_ds->num_samples());
  }
}

TEST(PipelineTest, EmptyLabelMatchFails) {
  // A corpus with only unknown labels yields an error.
  traj::Trajectory trajectory;
  trajectory.user_id = 0;
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 50; ++i) {
    trajectory.points.push_back({pos, i * 2.0, Mode::kUnknown});
    pos = geo::Destination(pos, 0.0, 3.0);
  }
  const Pipeline pipeline;
  EXPECT_FALSE(pipeline.BuildDataset({trajectory}, LabelSet::Dabiri()).ok());
}

TEST(PipelineTest, BuildDatasetTimesEachStageOnce) {
  // The stage timers write the process-wide registry, which other tests
  // in this binary also feed: compare observation counts as deltas.
  const std::vector<std::string> stages = {
      "span/pipeline", "span/pipeline/segment", "span/pipeline/noise",
      "span/pipeline/extract", "span/pipeline/assemble"};
  const auto counts = [&stages] {
    std::vector<uint64_t> out;
    for (const std::string& name : stages) {
      const obs::Histogram* histogram =
          obs::MetricsRegistry::Global().FindHistogram(name);
      out.push_back(histogram == nullptr ? 0 : histogram->count());
    }
    return out;
  };
  PipelineOptions options;
  options.remove_noise = true;
  const Pipeline pipeline(options);
  const std::vector<uint64_t> before = counts();
  ASSERT_TRUE(pipeline.BuildDataset(SmallCorpus(), LabelSet::Dabiri()).ok());
  const std::vector<uint64_t> after = counts();
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1u) << stages[i];
  }
}

// ----------------------------------------------------------- Experiments --

TEST(ExperimentsTest, CvSchemeParsing) {
  EXPECT_EQ(CvSchemeFromString("random").value(), CvScheme::kRandom);
  EXPECT_EQ(CvSchemeFromString("stratified").value(),
            CvScheme::kStratified);
  EXPECT_EQ(CvSchemeFromString("user").value(), CvScheme::kUserOriented);
  EXPECT_EQ(CvSchemeFromString("user_oriented").value(),
            CvScheme::kUserOriented);
  EXPECT_FALSE(CvSchemeFromString("chrono").ok());
  EXPECT_EQ(CvSchemeToString(CvScheme::kRandom), "random");
  EXPECT_EQ(CvSchemeToString(CvScheme::kUserOriented), "user_oriented");
}

TEST(ExperimentsTest, MakeFoldsAllSchemes) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(11), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  for (CvScheme scheme : {CvScheme::kRandom, CvScheme::kStratified,
                          CvScheme::kUserOriented}) {
    const auto folds = MakeFolds(scheme, dataset.value(), 3, 42);
    ASSERT_EQ(folds.size(), 3u) << CvSchemeToString(scheme);
    size_t total_test = 0;
    for (const auto& fold : folds) {
      EXPECT_FALSE(fold.train_indices.empty());
      EXPECT_FALSE(fold.test_indices.empty());
      total_test += fold.test_indices.size();
    }
    EXPECT_EQ(total_test, dataset->num_samples());
  }
}

TEST(ExperimentsTest, UserOrientedFoldsSeparateUsers) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(13), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  const auto folds =
      MakeFolds(CvScheme::kUserOriented, dataset.value(), 4, 42);
  for (const auto& fold : folds) {
    std::set<int> train_users;
    std::set<int> test_users;
    for (size_t i : fold.train_indices) {
      train_users.insert(dataset->groups()[i]);
    }
    for (size_t i : fold.test_indices) {
      test_users.insert(dataset->groups()[i]);
    }
    for (int u : test_users) {
      EXPECT_EQ(train_users.count(u), 0u);
    }
  }
}

TEST(ExperimentsTest, BuildSyntheticDatasetOneCall) {
  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = 6;
  generator_options.days_per_user = 2;
  generator_options.seed = 15;
  const auto result = BuildSyntheticDataset(generator_options,
                                            PipelineOptions{},
                                            LabelSet::Endo());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.num_features(), 70u);
  EXPECT_GT(result->corpus_summary.total_points, 0u);
  EXPECT_EQ(result->pipeline_stats.segments_in_label_set,
            result->dataset.num_samples());
}

}  // namespace
}  // namespace trajkit::core
