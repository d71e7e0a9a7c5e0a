#ifndef TRAJKIT_ML_SPLITS_H_
#define TRAJKIT_ML_SPLITS_H_

#include <span>
#include <vector>

#include "common/rng.h"

namespace trajkit::ml {

/// One cross-validation fold: row indices of the training and test sets.
struct FoldSplit {
  std::vector<size_t> train_indices;
  std::vector<size_t> test_indices;
};

/// Random ("conventional") k-fold: samples are shuffled and dealt into k
/// nearly equal folds. This is the scheme the paper calls random
/// cross-validation and shows to be optimistic.
std::vector<FoldSplit> KFold(size_t num_samples, int k, Rng& rng);

/// Stratified k-fold: per-class shuffling keeps each fold's class mix close
/// to the global mix. `labels` supplies the class of each sample.
std::vector<FoldSplit> StratifiedKFold(std::span<const int> labels, int k,
                                       Rng& rng);

/// User-oriented ("group") k-fold: each distinct group id (user) appears in
/// exactly one test fold, so train and test users are disjoint — the
/// evaluation scheme of Endo et al. [4] and §4.4. Groups are shuffled, then
/// dealt to folds greedily by size to balance sample counts.
/// Precondition: at least k distinct groups.
std::vector<FoldSplit> GroupKFold(std::span<const int> groups, int k,
                                  Rng& rng);

/// Single split with disjoint users: whole groups are assigned to test until
/// the test set holds approximately `test_fraction` of the samples (the
/// paper's §4.3 "approximately divided 80% of the data as training").
FoldSplit GroupShuffleSplit(std::span<const int> groups, double test_fraction,
                            Rng& rng);

/// Forward-chaining temporal k-fold (sklearn's TimeSeriesSplit): samples
/// are sorted by time and cut into k+1 contiguous blocks; fold i trains on
/// blocks [0, i] and tests on block i+1, so training data always precedes
/// test data. Precondition: at least k+1 samples.
std::vector<FoldSplit> TemporalKFold(std::span<const double> times, int k);

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_SPLITS_H_
