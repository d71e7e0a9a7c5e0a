#include "ml/splits.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/check.h"

namespace trajkit::ml {

namespace {

// Converts per-fold test index sets into FoldSplits over [0, n).
std::vector<FoldSplit> FoldsFromTestSets(
    size_t num_samples, std::vector<std::vector<size_t>> test_sets) {
  std::vector<int> fold_of(num_samples, -1);
  for (size_t f = 0; f < test_sets.size(); ++f) {
    for (size_t idx : test_sets[f]) {
      fold_of[idx] = static_cast<int>(f);
    }
  }
  std::vector<FoldSplit> folds(test_sets.size());
  for (size_t f = 0; f < test_sets.size(); ++f) {
    folds[f].test_indices = std::move(test_sets[f]);
    std::sort(folds[f].test_indices.begin(), folds[f].test_indices.end());
  }
  for (size_t i = 0; i < num_samples; ++i) {
    for (size_t f = 0; f < folds.size(); ++f) {
      if (fold_of[i] != static_cast<int>(f)) {
        folds[f].train_indices.push_back(i);
      }
    }
  }
  return folds;
}

}  // namespace

std::vector<FoldSplit> KFold(size_t num_samples, int k, Rng& rng) {
  TRAJKIT_CHECK_GE(k, 2);
  TRAJKIT_CHECK_GE(num_samples, static_cast<size_t>(k));
  std::vector<size_t> order(num_samples);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  std::vector<std::vector<size_t>> test_sets(static_cast<size_t>(k));
  for (size_t i = 0; i < order.size(); ++i) {
    test_sets[i % static_cast<size_t>(k)].push_back(order[i]);
  }
  return FoldsFromTestSets(num_samples, std::move(test_sets));
}

std::vector<FoldSplit> StratifiedKFold(std::span<const int> labels, int k,
                                       Rng& rng) {
  TRAJKIT_CHECK_GE(k, 2);
  TRAJKIT_CHECK_GE(labels.size(), static_cast<size_t>(k));
  std::map<int, std::vector<size_t>> by_class;
  for (size_t i = 0; i < labels.size(); ++i) {
    by_class[labels[i]].push_back(i);
  }
  std::vector<std::vector<size_t>> test_sets(static_cast<size_t>(k));
  size_t offset = 0;  // Rotate fold assignment across classes for balance.
  for (auto& [label, indices] : by_class) {
    (void)label;
    rng.Shuffle(indices);
    for (size_t i = 0; i < indices.size(); ++i) {
      test_sets[(i + offset) % static_cast<size_t>(k)].push_back(indices[i]);
    }
    offset = (offset + indices.size()) % static_cast<size_t>(k);
  }
  return FoldsFromTestSets(labels.size(), std::move(test_sets));
}

std::vector<FoldSplit> GroupKFold(std::span<const int> groups, int k,
                                  Rng& rng) {
  TRAJKIT_CHECK_GE(k, 2);
  std::map<int, std::vector<size_t>> by_group;
  for (size_t i = 0; i < groups.size(); ++i) {
    by_group[groups[i]].push_back(i);
  }
  TRAJKIT_CHECK_GE(by_group.size(), static_cast<size_t>(k))
      << "GroupKFold needs at least k distinct groups";

  // Shuffle group ids, then assign each (largest remaining first) to the
  // currently smallest fold so fold sizes stay balanced.
  std::vector<int> group_ids;
  group_ids.reserve(by_group.size());
  for (const auto& [gid, _] : by_group) group_ids.push_back(gid);
  rng.Shuffle(group_ids);
  std::stable_sort(group_ids.begin(), group_ids.end(),
                   [&](int a, int b) {
                     return by_group[a].size() > by_group[b].size();
                   });

  std::vector<std::vector<size_t>> test_sets(static_cast<size_t>(k));
  std::vector<size_t> fold_sizes(static_cast<size_t>(k), 0);
  for (int gid : group_ids) {
    const size_t smallest =
        static_cast<size_t>(std::min_element(fold_sizes.begin(),
                                             fold_sizes.end()) -
                            fold_sizes.begin());
    const std::vector<size_t>& members = by_group[gid];
    test_sets[smallest].insert(test_sets[smallest].end(), members.begin(),
                               members.end());
    fold_sizes[smallest] += members.size();
  }
  return FoldsFromTestSets(groups.size(), std::move(test_sets));
}

FoldSplit GroupShuffleSplit(std::span<const int> groups, double test_fraction,
                            Rng& rng) {
  TRAJKIT_CHECK_GT(test_fraction, 0.0);
  TRAJKIT_CHECK_LT(test_fraction, 1.0);
  std::map<int, std::vector<size_t>> by_group;
  for (size_t i = 0; i < groups.size(); ++i) {
    by_group[groups[i]].push_back(i);
  }
  TRAJKIT_CHECK_GE(by_group.size(), 2u)
      << "GroupShuffleSplit needs at least 2 distinct groups";
  std::vector<int> group_ids;
  group_ids.reserve(by_group.size());
  for (const auto& [gid, _] : by_group) group_ids.push_back(gid);
  rng.Shuffle(group_ids);

  const size_t target =
      static_cast<size_t>(static_cast<double>(groups.size()) * test_fraction);
  FoldSplit split;
  size_t test_count = 0;
  for (int gid : group_ids) {
    const std::vector<size_t>& members = by_group[gid];
    // Always give test at least one group; stop once the target is reached.
    if (test_count == 0 || test_count + members.size() / 2 < target) {
      split.test_indices.insert(split.test_indices.end(), members.begin(),
                                members.end());
      test_count += members.size();
    } else {
      split.train_indices.insert(split.train_indices.end(), members.begin(),
                                 members.end());
    }
  }
  TRAJKIT_CHECK(!split.train_indices.empty())
      << "test fraction too large: every group landed in the test set";
  std::sort(split.test_indices.begin(), split.test_indices.end());
  std::sort(split.train_indices.begin(), split.train_indices.end());
  return split;
}

namespace {

std::vector<size_t> TimeOrder(std::span<const double> times) {
  std::vector<size_t> order(times.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return times[a] < times[b];
  });
  return order;
}

}  // namespace

std::vector<FoldSplit> TemporalKFold(std::span<const double> times, int k) {
  TRAJKIT_CHECK_GE(k, 1);
  TRAJKIT_CHECK_GE(times.size(), static_cast<size_t>(k) + 1);
  const std::vector<size_t> order = TimeOrder(times);
  const size_t n = times.size();
  const size_t blocks = static_cast<size_t>(k) + 1;
  std::vector<FoldSplit> folds;
  folds.reserve(static_cast<size_t>(k));
  for (int fold = 0; fold < k; ++fold) {
    // Block boundaries: block b covers [b*n/blocks, (b+1)*n/blocks).
    const size_t train_end =
        (static_cast<size_t>(fold) + 1) * n / blocks;
    const size_t test_end =
        (static_cast<size_t>(fold) + 2) * n / blocks;
    FoldSplit split;
    split.train_indices.assign(order.begin(),
                               order.begin() + static_cast<long>(train_end));
    split.test_indices.assign(order.begin() + static_cast<long>(train_end),
                              order.begin() + static_cast<long>(test_end));
    std::sort(split.train_indices.begin(), split.train_indices.end());
    std::sort(split.test_indices.begin(), split.test_indices.end());
    folds.push_back(std::move(split));
  }
  return folds;
}

}  // namespace trajkit::ml
