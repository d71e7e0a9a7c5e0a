#ifndef TRAJKIT_ML_FEATURE_SELECTION_H_
#define TRAJKIT_ML_FEATURE_SELECTION_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"

namespace trajkit::ml {

/// Scores a dataset restricted to a candidate feature subset; typically a
/// cross-validated accuracy. Higher is better. ForwardWrapperSelection
/// invokes the evaluator concurrently from several threads, so it must be
/// thread-safe: capture configuration by value and keep all mutable state
/// local to the call (the CV-accuracy evaluators in bench/ already do).
using SubsetEvaluator = std::function<double(const Dataset& subset)>;

/// One step of an incremental selection curve: after adding
/// `feature_index`, the subset of size (step position + 1) scores `score`.
struct SelectionStep {
  int feature_index = -1;
  double score = 0.0;
};

/// Greedy forward wrapper search (§4.2): starting from the empty set, at
/// each step evaluates every remaining feature appended to the current
/// subset and keeps the best-scoring one. Runs until `max_features`
/// features are selected (<= 0 means all). Cost: O(F · max_features)
/// evaluator calls.
Result<std::vector<SelectionStep>> ForwardWrapperSelection(
    const Dataset& dataset, const SubsetEvaluator& evaluator,
    int max_features = 0);

/// Incremental evaluation along a fixed ranking (§4.2's information
/// theoretical method): evaluates the prefix of `ranking` of every length
/// from 1 to max_features. Cost: O(max_features) evaluator calls.
Result<std::vector<SelectionStep>> IncrementalRankingSelection(
    const Dataset& dataset, const SubsetEvaluator& evaluator,
    std::span<const int> ranking, int max_features = 0);

/// Feature indices of the prefix of exactly `k` steps.
std::vector<int> PrefixOfSize(const std::vector<SelectionStep>& steps,
                              size_t k);

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_FEATURE_SELECTION_H_
