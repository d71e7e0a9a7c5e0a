// Cross-cutting property suite: invariants that must hold across seeds,
// classifier families, and pipeline configurations. These are the
// behavioural contracts the experiment harnesses rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "ml/crossval.h"
#include "ml/decision_tree.h"
#include "ml/factory.h"
#include "ml/metrics.h"
#include "ml/normalize.h"
#include "synthgeo/generator.h"

namespace trajkit {
namespace {

ml::Dataset RandomProblem(uint64_t seed, int n = 150, int features = 5,
                          int classes = 3) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<int> groups;
  for (int i = 0; i < n; ++i) {
    const int y = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(classes)));
    std::vector<double> row(static_cast<size_t>(features));
    for (auto& v : row) v = rng.Gaussian(0.0, 1.0);
    row[0] += 1.8 * y;
    rows.push_back(std::move(row));
    labels.push_back(y);
    groups.push_back(i % 7);
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(ml::Dataset::Create(ml::Matrix::FromRows(rows),
                                       std::move(labels), std::move(groups),
                                       {}, std::move(class_names)))
      .value();
}

// ---- Per-family properties, swept over (family × seed) -----------------

class FamilyPropertyTest
    : public testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(FamilyPropertyTest, PredictionsInRangeAndDeterministic) {
  const auto [family, seed] = GetParam();
  const ml::Dataset ds = RandomProblem(seed);
  auto m1 = ml::MakeClassifier(family, {.seed = seed, .scale = 0.2});
  auto m2 = ml::MakeClassifier(family, {.seed = seed, .scale = 0.2});
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m1.value()->Fit(ds).ok());
  ASSERT_TRUE(m2.value()->Fit(ds).ok());
  const auto p1 = m1.value()->Predict(ds.features());
  const auto p2 = m2.value()->Predict(ds.features());
  EXPECT_EQ(p1, p2);
  for (int label : p1) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, ds.num_classes());
  }
}

TEST_P(FamilyPropertyTest, BeatsChanceOnSeparableData) {
  const auto [family, seed] = GetParam();
  const ml::Dataset ds = RandomProblem(seed + 50);
  auto model = ml::MakeClassifier(family, {.seed = 1, .scale = 0.25});
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model.value()->Fit(ds).ok());
  const double accuracy =
      ml::Accuracy(ds.labels(), model.value()->Predict(ds.features()));
  EXPECT_GT(accuracy, 1.2 / static_cast<double>(ds.num_classes()))
      << family;
}

TEST_P(FamilyPropertyTest, ProbaIsValidDistributionWhenAvailable) {
  const auto [family, seed] = GetParam();
  const ml::Dataset ds = RandomProblem(seed + 100);
  auto model = ml::MakeClassifier(family, {.seed = 2, .scale = 0.2});
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model.value()->Fit(ds).ok());
  const auto proba = model.value()->PredictProba(ds.features());
  if (!proba.ok()) return;  // SVM has no probability output.
  for (size_t r = 0; r < proba->rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < proba->cols(); ++c) {
      EXPECT_GE(proba->At(r, c), -1e-12);
      EXPECT_LE(proba->At(r, c), 1.0 + 1e-12);
      sum += proba->At(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, FamilyPropertyTest,
    testing::Combine(testing::Values("decision_tree", "random_forest",
                                     "xgboost", "adaboost", "svm",
                                     "neural_network", "knn",
                                     "logistic_regression"),
                     testing::Values(11u, 22u)));

// ---- Tree scale invariance ---------------------------------------------

class TreeInvarianceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(TreeInvarianceTest, PredictionsInvariantToPositiveAffineScaling) {
  // CART splits on order statistics; scaling any feature by a positive
  // affine map must not change predictions (when the transform is applied
  // to train and test alike).
  const ml::Dataset ds = RandomProblem(GetParam(), 120, 4);
  ml::DecisionTree original;
  ASSERT_TRUE(original.Fit(ds).ok());
  const auto baseline = original.Predict(ds.features());

  ml::Matrix scaled = ds.features();
  Rng rng(GetParam() + 7);
  std::vector<double> a(ds.num_features());
  std::vector<double> b(ds.num_features());
  for (size_t c = 0; c < ds.num_features(); ++c) {
    a[c] = rng.Uniform(0.1, 10.0);
    b[c] = rng.Uniform(-5.0, 5.0);
    for (size_t r = 0; r < scaled.rows(); ++r) {
      scaled(r, c) = a[c] * scaled(r, c) + b[c];
    }
  }
  auto scaled_ds = ml::Dataset::Create(
      scaled, ds.labels(), ds.groups(), ds.feature_names(),
      ds.class_names());
  ASSERT_TRUE(scaled_ds.ok());
  ml::DecisionTree transformed;
  ASSERT_TRUE(transformed.Fit(scaled_ds.value()).ok());
  EXPECT_EQ(transformed.Predict(scaled_ds->features()), baseline);
}

TEST_P(TreeInvarianceTest, MinMaxScalingDoesNotChangeTreePredictions) {
  const ml::Dataset ds = RandomProblem(GetParam() + 30, 100, 4);
  ml::DecisionTree raw_tree;
  ASSERT_TRUE(raw_tree.Fit(ds).ok());
  const auto baseline = raw_tree.Predict(ds.features());

  ml::Dataset scaled = ds;
  ml::MinMaxScaler scaler;
  scaler.FitTransform(scaled.mutable_features());
  ml::DecisionTree scaled_tree;
  ASSERT_TRUE(scaled_tree.Fit(scaled).ok());
  EXPECT_EQ(scaled_tree.Predict(scaled.features()), baseline);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeInvarianceTest,
                         testing::Values(1u, 2u, 3u, 4u));

// ---- Pipeline invariants -------------------------------------------------

class PipelinePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, EmittedFeaturesAreFiniteAndAligned) {
  synthgeo::GeneratorOptions options;
  options.num_users = 5;
  options.days_per_user = 1;
  options.seed = GetParam();
  const auto built = core::BuildSyntheticDataset(
      options, core::PipelineOptions{}, core::LabelSet::AllModes());
  ASSERT_TRUE(built.ok());
  const ml::Dataset& ds = built->dataset;
  EXPECT_EQ(ds.num_features(), 70u);
  EXPECT_EQ(ds.labels().size(), ds.num_samples());
  EXPECT_EQ(ds.groups().size(), ds.num_samples());
  EXPECT_EQ(ds.times().size(), ds.num_samples());
  for (size_t r = 0; r < ds.num_samples(); ++r) {
    for (size_t c = 0; c < ds.num_features(); ++c) {
      EXPECT_TRUE(std::isfinite(ds.features()(r, c)))
          << "non-finite feature " << ds.feature_names()[c] << " at row "
          << r;
    }
  }
  // Times are within the generated corpus window.
  for (double t : ds.times()) {
    EXPECT_GE(t, synthgeo::kCorpusBaseTime);
    EXPECT_LE(t, synthgeo::kCorpusBaseTime + 86400.0 * options.days_per_user);
  }
}

TEST_P(PipelinePropertyTest, DatasetBuildIsDeterministic) {
  synthgeo::GeneratorOptions options;
  options.num_users = 4;
  options.days_per_user = 1;
  options.seed = GetParam() + 500;
  const auto a = core::BuildSyntheticDataset(options, core::PipelineOptions{},
                                             core::LabelSet::Dabiri());
  const auto b = core::BuildSyntheticDataset(options, core::PipelineOptions{},
                                             core::LabelSet::Dabiri());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->dataset.num_samples(), b->dataset.num_samples());
  EXPECT_EQ(a->dataset.labels(), b->dataset.labels());
  for (size_t r = 0; r < a->dataset.num_samples(); ++r) {
    for (size_t c = 0; c < a->dataset.num_features(); ++c) {
      EXPECT_DOUBLE_EQ(a->dataset.features()(r, c),
                       b->dataset.features()(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         testing::Values(100u, 200u, 300u));

// ---- Cross-validation laws ----------------------------------------------

class CrossValLawTest : public testing::TestWithParam<uint64_t> {};

TEST_P(CrossValLawTest, PooledPredictionsCoverDatasetOnce) {
  const ml::Dataset ds = RandomProblem(GetParam() + 900, 90);
  const auto folds =
      core::MakeFolds(core::CvScheme::kStratified, ds, 3, GetParam());
  ml::DecisionTreeParams params;
  params.max_depth = 4;
  const ml::DecisionTree tree(params);
  const auto cv = ml::CrossValidate(tree, ds, folds);
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->pooled_true.size(), ds.num_samples());
  // Pooled true labels are a permutation of the dataset labels.
  std::vector<int> sorted_pooled = cv->pooled_true;
  std::vector<int> sorted_labels = ds.labels();
  std::sort(sorted_pooled.begin(), sorted_pooled.end());
  std::sort(sorted_labels.begin(), sorted_labels.end());
  EXPECT_EQ(sorted_pooled, sorted_labels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossValLawTest,
                         testing::Values(41u, 42u, 43u));

}  // namespace
}  // namespace trajkit
