// Tests for the temporal evaluation machinery: Dataset timestamps,
// TemporalKFold, the core scheme plumbing, and time
// round-tripping through the dataset CSV format.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "ml/dataset_io.h"
#include "ml/splits.h"
#include "synthgeo/generator.h"

namespace trajkit::ml {
namespace {

// ------------------------------------------------------- Dataset::times --

Dataset TimedDataset(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    rows.push_back({rng.NextDouble(), rng.NextDouble()});
    labels.push_back(static_cast<int>(rng.NextBounded(2)));
    times.push_back(1000.0 * i + rng.Uniform(0.0, 500.0));
  }
  Dataset ds = std::move(Dataset::Create(Matrix::FromRows(rows),
                                         std::move(labels), {}, {},
                                         {"a", "b"}))
                   .value();
  EXPECT_TRUE(ds.SetTimes(std::move(times)).ok());
  return ds;
}

TEST(DatasetTimesTest, SetAndPropagateThroughSelection) {
  const Dataset ds = TimedDataset(20, 1);
  EXPECT_TRUE(ds.has_times());
  const std::vector<size_t> rows = {5, 2, 9};
  const Dataset sub = ds.SelectSamples(rows);
  ASSERT_TRUE(sub.has_times());
  EXPECT_DOUBLE_EQ(sub.times()[0], ds.times()[5]);
  EXPECT_DOUBLE_EQ(sub.times()[1], ds.times()[2]);
  const std::vector<int> cols = {1};
  EXPECT_TRUE(ds.SelectFeatures(cols).has_times());
}

TEST(DatasetTimesTest, LengthMismatchRejected) {
  Dataset ds = TimedDataset(5, 2);
  EXPECT_FALSE(ds.SetTimes({1.0, 2.0}).ok());
}

// -------------------------------------------------------- TemporalKFold --

TEST(TemporalKFoldTest, ForwardChainingProperties) {
  const Dataset ds = TimedDataset(60, 4);
  const auto folds = TemporalKFold(ds.times(), 4);
  ASSERT_EQ(folds.size(), 4u);
  size_t previous_train_size = 0;
  for (const FoldSplit& fold : folds) {
    EXPECT_FALSE(fold.train_indices.empty());
    EXPECT_FALSE(fold.test_indices.empty());
    // Training set grows monotonically (forward chaining).
    EXPECT_GE(fold.train_indices.size(), previous_train_size);
    previous_train_size = fold.train_indices.size();
    // Train strictly precedes test in time.
    double max_train = -1e300;
    double min_test = 1e300;
    for (size_t i : fold.train_indices) {
      max_train = std::max(max_train, ds.times()[i]);
    }
    for (size_t i : fold.test_indices) {
      min_test = std::min(min_test, ds.times()[i]);
    }
    EXPECT_LE(max_train, min_test);
  }
  // Later folds' test sets are disjoint and ordered.
  std::set<size_t> seen;
  for (const FoldSplit& fold : folds) {
    for (size_t i : fold.test_indices) {
      EXPECT_TRUE(seen.insert(i).second) << "index tested twice: " << i;
    }
  }
}

TEST(TemporalKFoldTest, SingleFoldIsHoldout) {
  const Dataset ds = TimedDataset(10, 5);
  const auto folds = TemporalKFold(ds.times(), 1);
  ASSERT_EQ(folds.size(), 1u);
  EXPECT_EQ(folds[0].train_indices.size() + folds[0].test_indices.size(),
            10u);
}

}  // namespace
}  // namespace trajkit::ml

namespace trajkit::core {
namespace {

TEST(TemporalSchemeTest, ParseAndName) {
  EXPECT_EQ(CvSchemeFromString("temporal").value(), CvScheme::kTemporal);
  EXPECT_EQ(CvSchemeToString(CvScheme::kTemporal), "temporal");
}

TEST(TemporalSchemeTest, PipelineDatasetCarriesTimesAndSplitsTemporally) {
  synthgeo::GeneratorOptions options;
  options.num_users = 8;
  options.days_per_user = 3;
  options.seed = 6;
  const auto built = BuildSyntheticDataset(options, PipelineOptions{},
                                           LabelSet::Dabiri());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->dataset.has_times());
  const auto folds =
      MakeFolds(CvScheme::kTemporal, built->dataset, 3, 42);
  ASSERT_EQ(folds.size(), 3u);
  for (const auto& fold : folds) {
    double max_train = -1e300;
    double min_test = 1e300;
    for (size_t i : fold.train_indices) {
      max_train = std::max(max_train, built->dataset.times()[i]);
    }
    for (size_t i : fold.test_indices) {
      min_test = std::min(min_test, built->dataset.times()[i]);
    }
    EXPECT_LE(max_train, min_test);
  }
}

TEST(TemporalSchemeTest, CsvRoundTripKeepsTimes) {
  synthgeo::GeneratorOptions options;
  options.num_users = 4;
  options.days_per_user = 1;
  options.seed = 7;
  const auto built = BuildSyntheticDataset(options, PipelineOptions{},
                                           LabelSet::Dabiri());
  ASSERT_TRUE(built.ok());
  const std::string csv = ml::DatasetToCsv(built->dataset);
  const auto restored = ml::DatasetFromCsv(csv);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->has_times());
  for (size_t i = 0; i < built->dataset.num_samples(); ++i) {
    EXPECT_DOUBLE_EQ(restored->times()[i], built->dataset.times()[i]);
  }
  // Feature columns exclude the __time column.
  EXPECT_EQ(restored->num_features(), built->dataset.num_features());
}

}  // namespace
}  // namespace trajkit::core
