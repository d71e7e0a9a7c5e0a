// Unit and property tests for src/stats descriptive statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "stats/descriptive.h"

namespace trajkit::stats {
namespace {

TEST(DescriptiveTest, MinMaxMean) {
  const std::vector<double> v = {3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.75);
}

TEST(DescriptiveTest, SingleElement) {
  const std::vector<double> v = {5.0};
  EXPECT_DOUBLE_EQ(Min(v), 5.0);
  EXPECT_DOUBLE_EQ(Max(v), 5.0);
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 0.0);
  EXPECT_DOUBLE_EQ(Median(v), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 5.0);
}

TEST(DescriptiveTest, VarianceAndStdDevPopulation) {
  // numpy: np.var([1,2,3,4]) = 1.25, np.std = 1.1180...
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_NEAR(StdDev(v), 1.118033988749895, 1e-12);
}

TEST(DescriptiveTest, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(DescriptiveTest, PercentileMatchesNumpyLinearInterpolation) {
  // np.percentile([1,2,3,4], [10,25,50,75,90])
  //   = [1.3, 1.75, 2.5, 3.25, 3.7]
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(Percentile(v, 10.0), 1.3, 1e-12);
  EXPECT_NEAR(Percentile(v, 25.0), 1.75, 1e-12);
  EXPECT_NEAR(Percentile(v, 50.0), 2.5, 1e-12);
  EXPECT_NEAR(Percentile(v, 75.0), 3.25, 1e-12);
  EXPECT_NEAR(Percentile(v, 90.0), 3.7, 1e-12);
}

TEST(DescriptiveTest, PercentileEdges) {
  const std::vector<double> v = {5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 9.0);
}

TEST(DescriptiveTest, PercentileUnsortedInput) {
  const std::vector<double> v = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 5.0);
}

TEST(DescriptiveTest, PercentilesBatchMatchesSingle) {
  const std::vector<double> v = {2.0, 8.0, 4.0, 6.0, 0.0};
  const std::vector<double> ps = {10.0, 50.0, 90.0};
  const std::vector<double> batch = Percentiles(v, ps);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], Percentile(v, ps[i]));
  }
}

// ------------------------------------------- Selection vs. sorting --

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
const std::vector<double> kPaperPs = {10.0, 25.0, 50.0, 75.0, 90.0};

// The sort-then-interpolate definition, written out independently of the
// library: numpy's "linear" percentile over a fully sorted copy.
std::vector<double> SortedReference(std::vector<double> values,
                                    const std::vector<double>& ps) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  std::vector<double> out;
  for (const double p : ps) {
    if (n == 1) {
      out.push_back(values[0]);
      continue;
    }
    const double rank = (p / 100.0) * static_cast<double>(n - 1);
    const double lo_rank = std::floor(rank);
    const size_t lo = static_cast<size_t>(lo_rank);
    if (lo + 1 >= n) {
      out.push_back(values[n - 1]);
      continue;
    }
    const double frac = rank - lo_rank;
    out.push_back(values[lo] + frac * (values[lo + 1] - values[lo]));
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Percentiles and SummarizeInto on `values`, checked bit for bit against
// the sorted reference and against Min/Max/Mean/StdDev.
void ExpectMatchesReference(const std::vector<double>& values,
                            const std::vector<double>& ps) {
  const std::vector<double> expected = SortedReference(values, ps);
  EXPECT_TRUE(SameBits(Percentiles(values, ps), expected))
      << "n=" << values.size();
  std::vector<double> scratch;
  std::vector<double> out(ps.size());
  const Summary summary = SummarizeInto(values, ps, scratch, out);
  EXPECT_TRUE(SameBits(out, expected)) << "n=" << values.size();
  EXPECT_TRUE(SameBits(summary.min, Min(values)));
  EXPECT_TRUE(SameBits(summary.max, Max(values)));
  EXPECT_TRUE(SameBits(summary.mean, Mean(values)));
  EXPECT_TRUE(SameBits(summary.stddev, StdDev(values)));
}

// 0, 1, ..., n-1 in a seeded shuffled order: order statistic i is i.
std::vector<double> ShuffledRamp(size_t n, uint64_t seed) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  Rng rng(seed);
  rng.Shuffle(values);
  return values;
}

TEST(PercentileSelectionTest, OnePoint) {
  const std::vector<double> v = {5.0};
  EXPECT_EQ(Percentiles(v, kPaperPs),
            std::vector<double>(kPaperPs.size(), 5.0));
  std::vector<double> scratch;
  std::vector<double> out(kPaperPs.size());
  const Summary s = SummarizeInto(v, kPaperPs, scratch, out);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(PercentileSelectionTest, TwoPoints) {
  // rank = p/100: 0.25 -> 1 + 0.25 * 2 = 1.5, and so on.
  const std::vector<double> v = {3.0, 1.0};
  EXPECT_EQ(Percentiles(v, std::vector<double>{0, 25, 50, 75, 100}),
            (std::vector<double>{1.0, 1.5, 2.0, 2.5, 3.0}));
  EXPECT_DOUBLE_EQ(Percentile(v, 10.0), 1.2);
  EXPECT_DOUBLE_EQ(Percentile(v, 90.0), 2.8);
  ExpectMatchesReference(v, kPaperPs);
}

TEST(PercentileSelectionTest, AllTies) {
  for (const size_t n : {size_t{3}, kMinSelectSize, size_t{700}}) {
    const std::vector<double> v(n, 7.25);
    EXPECT_EQ(Percentiles(v, kPaperPs),
              std::vector<double>(kPaperPs.size(), 7.25));
    ExpectMatchesReference(v, kPaperPs);
  }
}

TEST(PercentileSelectionTest, AroundTheSelectThreshold) {
  // On the ramp 0..n-1 every percentile is its own rank (p/100) * (n-1).
  for (const size_t n :
       {kMinSelectSize - 1, kMinSelectSize, kMinSelectSize + 1}) {
    const std::vector<double> v = ShuffledRamp(n, n);
    const std::vector<double> got = Percentiles(v, kPaperPs);
    const double last = static_cast<double>(n - 1);
    ASSERT_EQ(got.size(), 5u);
    EXPECT_DOUBLE_EQ(got[0], 0.1 * last);
    EXPECT_EQ(got[1], 0.25 * last);
    EXPECT_EQ(got[2], 0.5 * last);
    EXPECT_EQ(got[3], 0.75 * last);
    EXPECT_DOUBLE_EQ(got[4], 0.9 * last);
    EXPECT_EQ(Percentile(v, 0.0), 0.0);
    EXPECT_EQ(Percentile(v, 100.0), last);
    ExpectMatchesReference(v, kPaperPs);
    ExpectMatchesReference(v, {0.0, 100.0, 33.3, 66.7});
  }
  // Even and odd n above the threshold: rank 99.5 and 100 for the median.
  EXPECT_EQ(Median(ShuffledRamp(200, 1)), 99.5);
  EXPECT_EQ(Median(ShuffledRamp(201, 1)), 100.0);
}

TEST(PercentileSelectionTest, Infinities) {
  // -inf, 0..197, +inf: the inner percentiles interpolate between finite
  // neighbours.
  std::vector<double> v = ShuffledRamp(198, 3);
  v.push_back(kInf);
  v.insert(v.begin() + 50, -kInf);
  // p = 0 interpolates from -inf with frac 0: -inf + 0 * inf is NaN. p =
  // 100 reads the last order statistic alone.
  EXPECT_TRUE(std::isnan(Percentile(v, 0.0)));
  EXPECT_EQ(Percentile(v, 100.0), kInf);
  EXPECT_EQ(Percentile(v, 50.0), 98.5);  // rank 99.5: 98 and 99.
  EXPECT_EQ(Percentile(v, 99.9), kInf);  // 197 + frac * inf.
  ExpectMatchesReference(v, kPaperPs);
  ExpectMatchesReference(v, {0.0, 0.1, 99.9, 100.0});
  // Only infinities: inf - inf is NaN, exactly as under the sort.
  ExpectMatchesReference(std::vector<double>(200, kInf), kPaperPs);
}

TEST(PercentileSelectionTest, NaNTakesTheSortPath) {
  for (const size_t at : {size_t{0}, size_t{77}, size_t{299}}) {
    std::vector<double> v = ShuffledRamp(300, at);
    v[at] = kNaN;
    ExpectMatchesReference(v, kPaperPs);
  }
  std::vector<double> v = ShuffledRamp(300, 9);
  v[10] = kNaN;
  v[200] = -kNaN;
  ExpectMatchesReference(v, kPaperPs);
}

TEST(PercentileSelectionTest, SignedZeroTakesTheSortPath) {
  // Half the values are zeros of both signs: several percentiles land on
  // a zero, and its sign must be the one the sort puts there.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 300; ++i) {
      v.push_back(i % 2 == 0 ? (rng.NextBounded(2) ? 0.0 : -0.0)
                             : rng.Uniform(-1.0, 1.0));
    }
    ExpectMatchesReference(v, kPaperPs);
    ExpectMatchesReference(v, {0.0, 49.0, 50.0, 51.0, 100.0});
  }
  EXPECT_TRUE(std::signbit(Percentile(std::vector<double>{-0.0}, 50.0)));
}

TEST(PercentileSelectionTest, SignedZeroMaximaKeepTheSortedSign) {
  // Interpolation turns a -0.0 order statistic into +0.0, but p = 100
  // returns the last one raw: with zeros of both signs as the maxima, its
  // sign is whichever zero the sort puts last.
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v;
    for (int i = 0; i < 300; ++i) {
      v.push_back(i % 10 == 0 ? (rng.NextBounded(2) ? 0.0 : -0.0)
                              : -rng.Uniform(0.5, 1.0));
    }
    ExpectMatchesReference(v, {50.0, 100.0});
  }
}

TEST(PercentileSelectionTest, MoreThanMaxSelectPercentilesSorts) {
  const std::vector<double> v = ShuffledRamp(500, 8);
  std::vector<double> ps;
  for (size_t i = 0; i <= kMaxSelectPercentiles; ++i) {
    ps.push_back(100.0 * static_cast<double>(i) /
                 static_cast<double>(kMaxSelectPercentiles));
  }
  ExpectMatchesReference(v, ps);
  ps.pop_back();
  ExpectMatchesReference(v, ps);
}

TEST(PercentileSelectionTest, SummaryKeepsMinMaxTieAndNaNRules) {
  // min_element keeps the first of equal minima, and never leaves or
  // takes a NaN: a leading NaN is the min and max, a later one is skipped.
  const std::vector<std::vector<double>> cases = {
      {0.0, -0.0, 1.0}, {-0.0, 0.0, -1.0, 2.0}, {kNaN, 1.0, -1.0},
      {1.0, kNaN, -1.0}, {kInf, -kInf, 0.0},    {-0.0, -0.0}};
  for (const std::vector<double>& v : cases) {
    ExpectMatchesReference(v, kPaperPs);
  }
}

// Seeded differential check: tie-heavy arrays around and far above the
// select threshold, with ±inf, NaN and -0.0 mixed in now and then, must
// give the sorted reference's bits.
TEST(PercentileSelectionTest, DifferentialAgainstSortedReference) {
  Rng rng(2026);
  for (int trial = 0; trial < 2500; ++trial) {
    size_t n;
    switch (trial % 4) {
      case 0:
        n = 1 + rng.NextBounded(2 * kMinSelectSize);
        break;
      case 1:
        n = kMinSelectSize - 2 + rng.NextBounded(5);
        break;
      default:
        n = 1 + rng.NextBounded(1500);
    }
    // Few distinct values make heavy ties.
    const uint64_t distinct = 1 + rng.NextBounded(trial % 3 == 0 ? 4 : 64);
    std::vector<double> v(n);
    for (double& x : v) {
      x = static_cast<double>(rng.NextBounded(distinct)) - 2.0;
    }
    const uint64_t extras = rng.NextBounded(8);
    for (uint64_t e = 0; e < extras; ++e) {
      const double special[] = {kInf, -kInf, kNaN, -0.0};
      v[rng.NextBounded(n)] = special[rng.NextBounded(4)];
    }
    std::vector<double> ps = kPaperPs;
    if (trial % 2 == 1) {
      ps.resize(1 + rng.NextBounded(kMaxSelectPercentiles + 2));
      for (double& p : ps) p = rng.Uniform(0.0, 100.0);
      // The ends read one order statistic raw, with no interpolation.
      if (rng.NextBounded(3) == 0) ps.front() = 100.0;
      if (rng.NextBounded(3) == 0) ps.back() = 0.0;
    }
    ExpectMatchesReference(v, ps);
    if (HasFailure()) {
      FAIL() << "trial " << trial << " n=" << n;
    }
  }
}

// Property suite: percentile order and bracketing on random data.
class StatsPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertyTest, PercentileIsMonotoneInP) {
  Rng rng(GetParam() + 99);
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.Gaussian(0.0, 5.0));
  double prev = Percentile(v, 0.0);
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = Percentile(v, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST_P(StatsPropertyTest, PercentileBracketedByMinMax) {
  Rng rng(GetParam() + 199);
  std::vector<double> v;
  for (int i = 0; i < 64; ++i) v.push_back(rng.Uniform(-10.0, 10.0));
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    const double value = Percentile(v, p);
    EXPECT_GE(value, Min(v));
    EXPECT_LE(value, Max(v));
  }
}

TEST_P(StatsPropertyTest, MedianEqualsP50) {
  Rng rng(GetParam() + 299);
  std::vector<double> v;
  for (int i = 0; i < 31; ++i) v.push_back(rng.Gaussian(1.0, 3.0));
  EXPECT_DOUBLE_EQ(Median(v), Percentile(v, 50.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertyTest,
                         testing::Values(10u, 20u, 30u, 40u, 50u));

}  // namespace
}  // namespace trajkit::stats
