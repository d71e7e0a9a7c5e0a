// Unit and property tests for cross-validation splitters.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "ml/splits.h"

namespace trajkit::ml {
namespace {

// Checks the fold laws: test sets partition [0, n); train = complement.
void ExpectValidFolds(const std::vector<FoldSplit>& folds, size_t n) {
  std::vector<int> seen(n, 0);
  for (const FoldSplit& fold : folds) {
    std::set<size_t> train(fold.train_indices.begin(),
                           fold.train_indices.end());
    std::set<size_t> test(fold.test_indices.begin(),
                          fold.test_indices.end());
    EXPECT_EQ(train.size(), fold.train_indices.size()) << "dup train idx";
    EXPECT_EQ(test.size(), fold.test_indices.size()) << "dup test idx";
    EXPECT_EQ(train.size() + test.size(), n);
    for (size_t i : fold.test_indices) {
      ASSERT_LT(i, n);
      EXPECT_EQ(train.count(i), 0u) << "index in both train and test";
      ++seen[i];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i], 1) << "index " << i << " not in exactly one test set";
  }
}

class KFoldPropertyTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KFoldPropertyTest, PartitionLawsHold) {
  const auto [n, k] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 100 + k));
  const auto folds = KFold(static_cast<size_t>(n), k, rng);
  ASSERT_EQ(folds.size(), static_cast<size_t>(k));
  ExpectValidFolds(folds, static_cast<size_t>(n));
  // Balanced: fold sizes differ by at most 1.
  size_t lo = folds[0].test_indices.size();
  size_t hi = lo;
  for (const auto& f : folds) {
    lo = std::min(lo, f.test_indices.size());
    hi = std::max(hi, f.test_indices.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, KFoldPropertyTest,
    testing::Combine(testing::Values(10, 23, 100, 501),
                     testing::Values(2, 3, 5, 10)));

TEST(KFoldTest, DeterministicGivenRngState) {
  Rng rng1(42);
  Rng rng2(42);
  const auto folds1 = KFold(50, 5, rng1);
  const auto folds2 = KFold(50, 5, rng2);
  for (size_t f = 0; f < folds1.size(); ++f) {
    EXPECT_EQ(folds1[f].test_indices, folds2[f].test_indices);
  }
}

TEST(StratifiedKFoldTest, PreservesClassMix) {
  // 80 of class 0, 20 of class 1.
  std::vector<int> labels(100, 0);
  for (int i = 80; i < 100; ++i) labels[static_cast<size_t>(i)] = 1;
  Rng rng(7);
  const auto folds = StratifiedKFold(labels, 5, rng);
  ExpectValidFolds(folds, labels.size());
  for (const FoldSplit& fold : folds) {
    int minority = 0;
    for (size_t i : fold.test_indices) {
      if (labels[i] == 1) ++minority;
    }
    EXPECT_EQ(minority, 4);  // Exactly 20% in each of 5 folds.
  }
}

TEST(StratifiedKFoldTest, WorksWithManySmallClasses) {
  std::vector<int> labels;
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 7; ++i) labels.push_back(c);
  }
  Rng rng(9);
  const auto folds = StratifiedKFold(labels, 3, rng);
  ExpectValidFolds(folds, labels.size());
}

TEST(GroupKFoldTest, UsersNeverStraddleTrainAndTest) {
  // 12 groups of varying sizes.
  std::vector<int> groups;
  Rng data_rng(3);
  for (int g = 0; g < 12; ++g) {
    const int size = 5 + static_cast<int>(data_rng.NextBounded(20));
    for (int i = 0; i < size; ++i) groups.push_back(g * 11);
  }
  Rng rng(5);
  const auto folds = GroupKFold(groups, 4, rng);
  ASSERT_EQ(folds.size(), 4u);
  ExpectValidFolds(folds, groups.size());
  for (const FoldSplit& fold : folds) {
    std::set<int> train_groups;
    std::set<int> test_groups;
    for (size_t i : fold.train_indices) train_groups.insert(groups[i]);
    for (size_t i : fold.test_indices) test_groups.insert(groups[i]);
    for (int g : test_groups) {
      EXPECT_EQ(train_groups.count(g), 0u)
          << "group " << g << " appears in train and test";
    }
  }
}

TEST(GroupKFoldTest, EachGroupTestedExactlyOnce) {
  std::vector<int> groups;
  for (int g = 0; g < 9; ++g) {
    for (int i = 0; i < 4; ++i) groups.push_back(g);
  }
  Rng rng(11);
  const auto folds = GroupKFold(groups, 3, rng);
  std::map<int, int> tested;
  for (const FoldSplit& fold : folds) {
    std::set<int> test_groups;
    for (size_t i : fold.test_indices) test_groups.insert(groups[i]);
    for (int g : test_groups) ++tested[g];
  }
  EXPECT_EQ(tested.size(), 9u);
  for (const auto& [g, count] : tested) {
    EXPECT_EQ(count, 1) << "group " << g;
  }
}

TEST(GroupKFoldTest, BalancesFoldSizes) {
  // One huge group and several small ones.
  std::vector<int> groups(100, 0);
  for (int g = 1; g <= 6; ++g) {
    for (int i = 0; i < 10; ++i) groups.push_back(g);
  }
  Rng rng(13);
  const auto folds = GroupKFold(groups, 2, rng);
  // The huge group should sit alone-ish; the small ones together.
  ExpectValidFolds(folds, groups.size());
  const size_t size0 = folds[0].test_indices.size();
  const size_t size1 = folds[1].test_indices.size();
  EXPECT_EQ(size0 + size1, groups.size());
  EXPECT_LE(std::max(size0, size1), 100u);
}

TEST(GroupShuffleSplitTest, DisjointUsersAndApproximateFraction) {
  std::vector<int> groups;
  Rng data_rng(23);
  for (int g = 0; g < 20; ++g) {
    const int size = 10 + static_cast<int>(data_rng.NextBounded(30));
    for (int i = 0; i < size; ++i) groups.push_back(g);
  }
  Rng rng(29);
  const FoldSplit split = GroupShuffleSplit(groups, 0.2, rng);
  std::set<int> train_groups;
  std::set<int> test_groups;
  for (size_t i : split.train_indices) train_groups.insert(groups[i]);
  for (size_t i : split.test_indices) test_groups.insert(groups[i]);
  for (int g : test_groups) EXPECT_EQ(train_groups.count(g), 0u);
  EXPECT_EQ(split.train_indices.size() + split.test_indices.size(),
            groups.size());
  const double fraction = static_cast<double>(split.test_indices.size()) /
                          static_cast<double>(groups.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.45);
}

TEST(GroupShuffleSplitTest, TwoGroupsMinimum) {
  const std::vector<int> groups = {1, 1, 1, 2, 2};
  Rng rng(31);
  const FoldSplit split = GroupShuffleSplit(groups, 0.4, rng);
  EXPECT_FALSE(split.train_indices.empty());
  EXPECT_FALSE(split.test_indices.empty());
}

}  // namespace
}  // namespace trajkit::ml
