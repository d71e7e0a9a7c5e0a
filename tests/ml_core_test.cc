// Unit tests for the ml data plumbing: Matrix, Dataset, scalers, metrics.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.h"
#include "ml/matrix.h"
#include "ml/metrics.h"
#include "ml/normalize.h"

namespace trajkit::ml {
namespace {

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m.At(r, c), 0.0);
  }
}

TEST(MatrixTest, FromRowsAndAccess) {
  const Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  const auto row = m.Row(1);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
}

TEST(MatrixTest, EmptyFromRows) {
  const Matrix m = Matrix::FromRows({});
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ColumnExtraction) {
  const Matrix m = Matrix::FromRows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const std::vector<double> col = m.Column(1);
  EXPECT_EQ(col, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(MatrixTest, SelectRows) {
  const Matrix m = Matrix::FromRows({{1.0}, {2.0}, {3.0}});
  const std::vector<size_t> idx = {2, 0};
  const Matrix s = m.SelectRows(idx);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 1.0);
}

TEST(MatrixTest, SelectColumns) {
  const Matrix m = Matrix::FromRows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const std::vector<int> cols = {2, 0};
  const Matrix s = m.SelectColumns(cols);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_DOUBLE_EQ(s.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.At(1, 1), 4.0);
}

// --------------------------------------------------------------- Dataset --

Dataset SmallDataset() {
  auto ds = Dataset::Create(
      Matrix::FromRows({{0.0, 1.0}, {1.0, 0.0}, {2.0, 2.0}, {3.0, 1.0}}),
      {0, 1, 1, 0}, {10, 10, 20, 20}, {"fa", "fb"}, {"neg", "pos"});
  return std::move(ds).value();
}

TEST(DatasetTest, CreateValidates) {
  EXPECT_FALSE(Dataset::Create(Matrix::FromRows({{1.0}}), {0, 1}, {},
                               {}, {"a", "b"})
                   .ok());
  EXPECT_FALSE(Dataset::Create(Matrix::FromRows({{1.0}}), {5}, {},
                               {}, {"a", "b"})
                   .ok());
  EXPECT_FALSE(Dataset::Create(Matrix::FromRows({{1.0}}), {0}, {1, 2},
                               {}, {"a"})
                   .ok());
  EXPECT_FALSE(Dataset::Create(Matrix::FromRows({{1.0}}), {0}, {},
                               {"x", "y"}, {"a"})
                   .ok());
}

TEST(DatasetTest, AccessorsAndCounts) {
  const Dataset ds = SmallDataset();
  EXPECT_EQ(ds.num_samples(), 4u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.ClassCounts(), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(ds.DistinctGroups(), (std::vector<int>{10, 20}));
}

TEST(DatasetTest, DefaultGroupsAndNames) {
  auto ds = Dataset::Create(Matrix::FromRows({{1.0, 2.0}}), {0}, {}, {},
                            {"only"});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->groups(), (std::vector<int>{0}));
  EXPECT_EQ(ds->feature_names()[1], "f1");
}

TEST(DatasetTest, SelectSamplesKeepsAlignment) {
  const Dataset ds = SmallDataset();
  const std::vector<size_t> idx = {3, 1};
  const Dataset sub = ds.SelectSamples(idx);
  EXPECT_EQ(sub.num_samples(), 2u);
  EXPECT_EQ(sub.labels(), (std::vector<int>{0, 1}));
  EXPECT_EQ(sub.groups(), (std::vector<int>{20, 10}));
  EXPECT_DOUBLE_EQ(sub.features().At(0, 0), 3.0);
}

TEST(DatasetTest, SelectFeaturesKeepsNames) {
  const Dataset ds = SmallDataset();
  const std::vector<int> cols = {1};
  const Dataset sub = ds.SelectFeatures(cols);
  EXPECT_EQ(sub.num_features(), 1u);
  EXPECT_EQ(sub.feature_names(), (std::vector<std::string>{"fb"}));
  EXPECT_EQ(sub.labels(), ds.labels());
}

// --------------------------------------------------------------- Scalers --

TEST(MinMaxScalerTest, MapsToUnitInterval) {
  Matrix m = Matrix::FromRows({{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}});
  MinMaxScaler scaler;
  scaler.FitTransform(m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.0);
}

TEST(MinMaxScalerTest, ConstantColumnMapsToZero) {
  Matrix m = Matrix::FromRows({{7.0}, {7.0}});
  MinMaxScaler scaler;
  scaler.FitTransform(m);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(MinMaxScalerTest, TestDataUsesTrainRange) {
  Matrix train = Matrix::FromRows({{0.0}, {10.0}});
  Matrix test = Matrix::FromRows({{20.0}, {-10.0}});
  MinMaxScaler scaler;
  scaler.Fit(train);
  scaler.Transform(test);
  EXPECT_DOUBLE_EQ(test.At(0, 0), 2.0);   // Outside [0,1], not clamped.
  EXPECT_DOUBLE_EQ(test.At(1, 0), -1.0);
}

TEST(MinMaxScalerTest, PreservesOrderRelationship) {
  Matrix m = Matrix::FromRows({{3.0}, {1.0}, {2.0}});
  MinMaxScaler scaler;
  scaler.FitTransform(m);
  EXPECT_GT(m.At(0, 0), m.At(2, 0));
  EXPECT_GT(m.At(2, 0), m.At(1, 0));
}

// --------------------------------------------------------------- Metrics --

TEST(MetricsTest, AccuracyBasic) {
  const std::vector<int> y_true = {0, 1, 2, 1};
  const std::vector<int> y_pred = {0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(y_true, y_pred), 0.75);
}

TEST(MetricsTest, ConfusionMatrixCounts) {
  const std::vector<int> y_true = {0, 0, 1, 1, 1};
  const std::vector<int> y_pred = {0, 1, 1, 1, 0};
  const ConfusionMatrix cm(y_true, y_pred, 2);
  EXPECT_EQ(cm.Count(0, 0), 1u);
  EXPECT_EQ(cm.Count(0, 1), 1u);
  EXPECT_EQ(cm.Count(1, 1), 2u);
  EXPECT_EQ(cm.Count(1, 0), 1u);
  EXPECT_EQ(cm.TotalSamples(), 5u);
  EXPECT_EQ(cm.TruePositives(1), 2u);
  EXPECT_EQ(cm.FalsePositives(1), 1u);
  EXPECT_EQ(cm.FalseNegatives(1), 1u);
  EXPECT_EQ(cm.Support(1), 3u);
}

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<int> y = {0, 1, 2, 0, 1, 2};
  const ClassificationReport rep = Evaluate(y, y, 3);
  EXPECT_DOUBLE_EQ(rep.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(rep.macro_f1, 1.0);
  EXPECT_DOUBLE_EQ(rep.weighted_f1, 1.0);
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(rep.precision[static_cast<size_t>(c)], 1.0);
    EXPECT_DOUBLE_EQ(rep.recall[static_cast<size_t>(c)], 1.0);
  }
}

TEST(MetricsTest, KnownPrecisionRecallF1) {
  // Class 1: TP=2, FP=1, FN=1 → P=2/3, R=2/3, F1=2/3.
  const std::vector<int> y_true = {0, 0, 1, 1, 1};
  const std::vector<int> y_pred = {0, 1, 1, 1, 0};
  const ClassificationReport rep = Evaluate(y_true, y_pred, 2);
  EXPECT_NEAR(rep.precision[1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.recall[1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.f1[1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.accuracy, 0.6, 1e-12);
}

TEST(MetricsTest, ZeroSupportClassContributesZero) {
  // Class 2 never appears in y_true nor y_pred.
  const std::vector<int> y_true = {0, 1, 0, 1};
  const std::vector<int> y_pred = {0, 1, 0, 1};
  const ClassificationReport rep = Evaluate(y_true, y_pred, 3);
  EXPECT_DOUBLE_EQ(rep.precision[2], 0.0);
  EXPECT_DOUBLE_EQ(rep.recall[2], 0.0);
  EXPECT_EQ(rep.support[2], 0u);
  EXPECT_NEAR(rep.macro_f1, 2.0 / 3.0, 1e-12);  // (1+1+0)/3.
  EXPECT_DOUBLE_EQ(rep.weighted_f1, 1.0);       // Weighted by support.
}

TEST(MetricsTest, WeightedAveragesWeightBySupport) {
  // 3 samples of class 0 predicted right, 1 of class 1 predicted wrong.
  const std::vector<int> y_true = {0, 0, 0, 1};
  const std::vector<int> y_pred = {0, 0, 0, 0};
  const ClassificationReport rep = Evaluate(y_true, y_pred, 2);
  // Class 0: P=3/4, R=1, F1=6/7. Class 1: all 0.
  EXPECT_NEAR(rep.weighted_f1, 0.75 * (6.0 / 7.0), 1e-12);
  EXPECT_NEAR(rep.macro_f1, 0.5 * (6.0 / 7.0), 1e-12);
}

TEST(MetricsTest, ReportToStringContainsClassNames) {
  const std::vector<int> y = {0, 1};
  const ClassificationReport rep = Evaluate(y, y, 2);
  const std::string text = rep.ToString({"walk", "bus"});
  EXPECT_NE(text.find("walk"), std::string::npos);
  EXPECT_NE(text.find("bus"), std::string::npos);
  EXPECT_NE(text.find("accuracy"), std::string::npos);
}

TEST(MetricsTest, ConfusionToStringRenders) {
  const std::vector<int> y = {0, 1, 1};
  const ConfusionMatrix cm(y, y, 2);
  EXPECT_NE(cm.ToString({"a", "b"}).find("a"), std::string::npos);
}

}  // namespace
}  // namespace trajkit::ml
