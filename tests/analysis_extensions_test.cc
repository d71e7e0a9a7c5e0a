// Tests for correlation statistics.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "stats/correlation.h"

namespace trajkit {
namespace {

// ----------------------------------------------------------- Correlation --

TEST(CorrelationTest, PerfectPositiveAndNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> z = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(stats::PearsonCorrelation(x, y).value(), 1.0, 1e-12);
  EXPECT_NEAR(stats::PearsonCorrelation(x, z).value(), -1.0, 1e-12);
}

TEST(CorrelationTest, KnownValue) {
  // np.corrcoef([1,2,3,4,5],[2,1,4,3,5])[0,1] = 0.8
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {2.0, 1.0, 4.0, 3.0, 5.0};
  EXPECT_NEAR(stats::PearsonCorrelation(x, y).value(), 0.8, 1e-12);
}

TEST(CorrelationTest, IndependentSamplesNearZero) {
  Rng rng(1);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.NextGaussian());
    y.push_back(rng.NextGaussian());
  }
  EXPECT_NEAR(stats::PearsonCorrelation(x, y).value(), 0.0, 0.03);
}

TEST(CorrelationTest, InvalidInputsRejected) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> short_y = {1.0};
  EXPECT_FALSE(stats::PearsonCorrelation(x, short_y).ok());
  EXPECT_FALSE(stats::PearsonCorrelation({}, {}).ok());
  const std::vector<double> constant = {3.0, 3.0};
  EXPECT_FALSE(stats::PearsonCorrelation(x, constant).ok());
}

TEST(CorrelationTest, SpearmanInvariantToMonotoneTransform) {
  Rng rng(2);
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> y_cubed;
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Gaussian(0.0, 1.0);
    x.push_back(v);
    const double noise = v + rng.Gaussian(0.0, 0.3);
    y.push_back(noise);
    y_cubed.push_back(noise * noise * noise);  // Monotone transform.
  }
  const double rho1 = stats::SpearmanCorrelation(x, y).value();
  const double rho2 = stats::SpearmanCorrelation(x, y_cubed).value();
  EXPECT_NEAR(rho1, rho2, 1e-12);
  EXPECT_GT(rho1, 0.8);
}

TEST(CorrelationTest, SpearmanHandlesTies) {
  const std::vector<double> x = {1.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 3.0};
  const auto rho = stats::SpearmanCorrelation(x, y);
  ASSERT_TRUE(rho.ok());
  EXPECT_GT(rho.value(), 0.5);
  EXPECT_LE(rho.value(), 1.0);
}

TEST(CorrelationTest, MeanPairwise) {
  const std::vector<std::vector<double>> series = {
      {1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, {3.0, 2.0, 1.0}};
  // Pairs: (+1, -1, -1) → mean = -1/3.
  EXPECT_NEAR(stats::MeanPairwiseCorrelation(series).value(), -1.0 / 3.0,
              1e-12);
  const std::vector<std::vector<double>> single = {{1.0, 2.0}};
  EXPECT_FALSE(stats::MeanPairwiseCorrelation(single).ok());
}

}  // namespace
}  // namespace trajkit
