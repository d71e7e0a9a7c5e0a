// Tests for cross-validation, feature selection, and the Wilcoxon tests.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/crossval.h"
#include "ml/decision_tree.h"
#include "ml/factory.h"
#include "ml/feature_selection.h"
#include "ml/random_forest.h"
#include "ml/stats_tests.h"

namespace trajkit::ml {
namespace {

// Three informative features (0, 2, 5) among 8; the rest pure noise.
Dataset MakeFeatureSelectionProblem(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<int> groups;
  for (int i = 0; i < n; ++i) {
    const int y = static_cast<int>(rng.NextBounded(3));
    std::vector<double> row(8);
    for (auto& v : row) v = rng.Gaussian(0.0, 1.0);
    row[0] += 2.0 * y;          // Strong signal.
    row[2] += 1.2 * (y == 1);   // Medium signal.
    row[5] += 0.9 * (y == 2);   // Weak signal.
    rows.push_back(std::move(row));
    labels.push_back(y);
    groups.push_back(i % 6);
  }
  return std::move(Dataset::Create(
             Matrix::FromRows(rows), std::move(labels), std::move(groups),
             {"s0", "n1", "s2", "n3", "n4", "s5", "n6", "n7"},
             {"a", "b", "c"}))
      .value();
}

// ------------------------------------------------------------- CrossVal --

TEST(CrossValidateTest, ProducesOneScorePerFold) {
  const Dataset ds = MakeFeatureSelectionProblem(120, 1);
  Rng rng(2);
  const auto folds = KFold(ds.num_samples(), 4, rng);
  DecisionTree tree;
  const auto result = CrossValidate(tree, ds, folds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->fold_accuracy.size(), 4u);
  EXPECT_EQ(result->pooled_true.size(), ds.num_samples());
  EXPECT_EQ(result->pooled_pred.size(), ds.num_samples());
  EXPECT_GT(result->MeanAccuracy(), 0.5);
  EXPECT_GE(result->StdAccuracy(), 0.0);
  EXPECT_GT(result->MeanWeightedF1(), 0.4);
  EXPECT_GT(result->MeanMacroF1(), 0.4);
}

TEST(CrossValidateTest, RejectsEmptyFolds) {
  const Dataset ds = MakeFeatureSelectionProblem(30, 3);
  DecisionTree tree;
  EXPECT_FALSE(CrossValidate(tree, ds, {}).ok());
}

TEST(CrossValidateTest, DeterministicGivenSeeds) {
  const Dataset ds = MakeFeatureSelectionProblem(100, 4);
  Rng rng1(5);
  Rng rng2(5);
  const auto folds1 = KFold(ds.num_samples(), 3, rng1);
  const auto folds2 = KFold(ds.num_samples(), 3, rng2);
  RandomForestParams params;
  params.n_estimators = 8;
  RandomForest forest(params);
  const auto r1 = CrossValidate(forest, ds, folds1);
  const auto r2 = CrossValidate(forest, ds, folds2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->fold_accuracy, r2->fold_accuracy);
}

TEST(EvaluateHoldoutTest, BasicSplit) {
  const Dataset ds = MakeFeatureSelectionProblem(100, 6);
  FoldSplit split;  // Every third sample tests.
  for (size_t i = 0; i < ds.num_samples(); ++i) {
    (i % 3 == 0 ? split.test_indices : split.train_indices).push_back(i);
  }
  DecisionTree tree;
  const auto result = EvaluateHoldout(tree, ds, split);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->y_true.size(), split.test_indices.size());
  EXPECT_GT(result->accuracy, 0.4);
}

TEST(EvaluateHoldoutTest, RejectsEmptySides) {
  const Dataset ds = MakeFeatureSelectionProblem(10, 8);
  DecisionTree tree;
  FoldSplit split;
  split.train_indices = {0, 1, 2};
  EXPECT_FALSE(EvaluateHoldout(tree, ds, split).ok());
}

TEST(CrossValidateTest, NormalizationOptionTogglesScaling) {
  // With a feature on a huge scale, the scale-sensitive SVM needs the
  // normalization path; this test just checks both paths run.
  const Dataset ds = MakeFeatureSelectionProblem(80, 9);
  Rng rng(10);
  const auto folds = KFold(ds.num_samples(), 3, rng);
  auto svm = MakeClassifier("svm", {.seed = 1, .scale = 0.3});
  ASSERT_TRUE(svm.ok());
  CrossValidationOptions with;
  with.minmax_normalize = true;
  CrossValidationOptions without;
  without.minmax_normalize = false;
  EXPECT_TRUE(CrossValidate(*svm.value(), ds, folds, with).ok());
  EXPECT_TRUE(CrossValidate(*svm.value(), ds, folds, without).ok());
}

// ---------------------------------------------------- Feature selection --

SubsetEvaluator FastTreeEvaluator(uint64_t seed) {
  return [seed](const Dataset& subset) {
    Rng rng(seed);
    const auto folds = KFold(subset.num_samples(), 3, rng);
    DecisionTreeParams params;
    params.max_depth = 6;
    DecisionTree tree(params);
    const auto result = CrossValidate(tree, subset, folds);
    return result.ok() ? result->MeanAccuracy() : 0.0;
  };
}

TEST(ForwardWrapperTest, FindsInformativeFeaturesFirst) {
  const Dataset ds = MakeFeatureSelectionProblem(240, 11);
  const auto steps =
      ForwardWrapperSelection(ds, FastTreeEvaluator(12), 4);
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 4u);
  // The strongest feature (0) is chosen first.
  EXPECT_EQ((*steps)[0].feature_index, 0);
  // The informative trio appears within the first four picks.
  std::set<int> picked;
  for (const auto& step : *steps) picked.insert(step.feature_index);
  EXPECT_TRUE(picked.count(0) == 1);
  EXPECT_TRUE(picked.count(2) == 1 || picked.count(5) == 1);
}

TEST(ForwardWrapperTest, NoDuplicateFeatures) {
  const Dataset ds = MakeFeatureSelectionProblem(120, 13);
  const auto steps = ForwardWrapperSelection(ds, FastTreeEvaluator(14), 6);
  ASSERT_TRUE(steps.ok());
  std::set<int> seen;
  for (const auto& step : *steps) {
    EXPECT_TRUE(seen.insert(step.feature_index).second);
  }
}

TEST(ForwardWrapperTest, BudgetZeroMeansAllFeatures) {
  const Dataset ds = MakeFeatureSelectionProblem(90, 15);
  const auto steps = ForwardWrapperSelection(ds, FastTreeEvaluator(16), 0);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(steps->size(), ds.num_features());
}

TEST(IncrementalRankingTest, EvaluatesPrefixes) {
  const Dataset ds = MakeFeatureSelectionProblem(150, 17);
  const std::vector<int> ranking = {0, 2, 5, 1, 3, 4, 6, 7};
  const auto steps =
      IncrementalRankingSelection(ds, FastTreeEvaluator(18), ranking, 5);
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 5u);
  for (size_t i = 0; i < steps->size(); ++i) {
    EXPECT_EQ((*steps)[i].feature_index, ranking[i]);
    EXPECT_GT((*steps)[i].score, 0.0);
  }
}

TEST(IncrementalRankingTest, RejectsBadRanking) {
  const Dataset ds = MakeFeatureSelectionProblem(50, 19);
  EXPECT_FALSE(
      IncrementalRankingSelection(ds, FastTreeEvaluator(20), {}, 2).ok());
  const std::vector<int> bad = {99};
  EXPECT_FALSE(
      IncrementalRankingSelection(ds, FastTreeEvaluator(21), bad, 1).ok());
}

TEST(SelectionPrefixTest, PrefixOfSize) {
  const std::vector<SelectionStep> steps = {
      {3, 0.6}, {1, 0.8}, {4, 0.75}, {2, 0.79}};
  EXPECT_EQ(PrefixOfSize(steps, 3), (std::vector<int>{3, 1, 4}));
  EXPECT_TRUE(PrefixOfSize(steps, 0).empty());
}

TEST(RankingSelectionTest, RfImportanceRankingFeedsSelection) {
  const Dataset ds = MakeFeatureSelectionProblem(300, 22);
  RandomForestParams params;
  params.n_estimators = 25;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(ds).ok());
  const std::vector<int> ranking = forest.ImportanceRanking();
  EXPECT_EQ(ranking.size(), 8u);
  EXPECT_EQ(ranking[0], 0);  // Strongest feature ranked first.
  const auto steps = IncrementalRankingSelection(
      ds, FastTreeEvaluator(23), ranking, 8);
  ASSERT_TRUE(steps.ok());
  // Accuracy with all informative features beats the 1-feature prefix...
  EXPECT_GE((*steps)[3].score + 0.05, (*steps)[0].score);
}

// -------------------------------------------------------------- Wilcoxon --

TEST(WilcoxonTest, RejectsBadInput) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  EXPECT_FALSE(WilcoxonSignedRank(x, y).ok());
  EXPECT_FALSE(WilcoxonSignedRank({}, {}).ok());
  // All-zero differences.
  EXPECT_FALSE(WilcoxonSignedRank(x, x).ok());
}

TEST(WilcoxonTest, ExactMatchesScipySmallSample) {
  // scipy.stats.wilcoxon(x, y, alternative='two-sided', mode='exact') on
  // d = [1, 2, 3, 4, 5] (all positive): W- = 0 → p = 2/2^5 = 0.0625.
  const std::vector<double> x = {2.0, 4.0, 6.0, 8.0, 10.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto result = WilcoxonSignedRank(x, y);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->statistic, 15.0);  // W+ = 1+2+3+4+5.
  EXPECT_NEAR(result->p_value, 0.0625, 1e-12);
}

TEST(WilcoxonTest, ExactMixedSigns) {
  // d = [1, -2, 3, -4, 5, 6]: |d| ranks are 1..6;
  // W+ = ranks of {1,3,5,6} = 1+3+5+6 = 15.
  // scipy.stats.wilcoxon gives p = 0.4375 (two-sided, exact).
  const std::vector<double> d = {1.0, -2.0, 3.0, -4.0, 5.0, 6.0};
  std::vector<double> x(d.size(), 0.0);
  for (size_t i = 0; i < d.size(); ++i) x[i] = d[i];
  const std::vector<double> zeros(d.size(), 0.0);
  const auto result = WilcoxonSignedRank(x, zeros);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_DOUBLE_EQ(result->statistic, 15.0);
  EXPECT_NEAR(result->p_value, 0.4375, 1e-9);
}

TEST(WilcoxonTest, ZerosDropped) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {1.0, 1.0, 2.0, 3.0};  // One zero diff.
  const auto result = WilcoxonSignedRank(x, y);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->n_used, 3);
}

TEST(WilcoxonTest, OneSidedGreaterSmallerThanTwoSidedWhenPositive) {
  const std::vector<double> x = {2.0, 3.5, 4.0, 5.0, 7.0, 8.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.5, 5.0, 6.0};
  const auto two = WilcoxonSignedRank(x, y, Alternative::kTwoSided);
  const auto greater = WilcoxonSignedRank(x, y, Alternative::kGreater);
  const auto less = WilcoxonSignedRank(x, y, Alternative::kLess);
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(greater.ok());
  ASSERT_TRUE(less.ok());
  EXPECT_LT(greater->p_value, two->p_value + 1e-12);
  EXPECT_GT(less->p_value, 0.5);
}

TEST(WilcoxonTest, OneSampleAgainstReference) {
  // Five accuracies all above 0.679 → smallest possible one-sided p for
  // n=5: 1/32.
  const std::vector<double> acc = {0.69, 0.70, 0.71, 0.695, 0.72};
  const auto result =
      WilcoxonSignedRankOneSample(acc, 0.679, Alternative::kGreater);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  EXPECT_NEAR(result->p_value, 1.0 / 32.0, 1e-12);
}

TEST(WilcoxonTest, NormalApproximationForLargeN) {
  Rng rng(42);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    const double base = rng.Gaussian(0.0, 1.0);
    x.push_back(base + 0.5);
    y.push_back(base);
  }
  const auto result = WilcoxonSignedRank(x, y);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_LT(result->p_value, 1e-6);  // Clear shift.
}

TEST(WilcoxonTest, TiesForceNormalApproximation) {
  const std::vector<double> x = {2.0, 2.0, 2.0, 2.0, 2.0, 2.0};
  const std::vector<double> y = {1.0, 1.0, 1.0, 1.0, 1.0, 3.0};
  const auto result = WilcoxonSignedRank(x, y);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_GT(result->p_value, 0.0);
  EXPECT_LE(result->p_value, 1.0);
}

TEST(WilcoxonTest, SymmetricDataGivesLargePValue) {
  const std::vector<double> x = {1.0, -1.0, 2.0, -2.0, 3.0, -3.0};
  const std::vector<double> zeros(x.size(), 0.0);
  const auto result = WilcoxonSignedRank(x, zeros);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.9);
}

TEST(StandardNormalCdfTest, KnownValues) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(StandardNormalCdf(-1.959963985), 0.025, 1e-6);
}

}  // namespace
}  // namespace trajkit::ml
