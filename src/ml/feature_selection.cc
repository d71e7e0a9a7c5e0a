#include "ml/feature_selection.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"

namespace trajkit::ml {

Result<std::vector<SelectionStep>> ForwardWrapperSelection(
    const Dataset& dataset, const SubsetEvaluator& evaluator,
    int max_features) {
  const int total = static_cast<int>(dataset.num_features());
  if (total == 0) {
    return Status::InvalidArgument("dataset has no features");
  }
  int budget = (max_features <= 0 || max_features > total) ? total
                                                           : max_features;
  std::vector<SelectionStep> steps;
  std::vector<int> selected;
  std::vector<bool> used(static_cast<size_t>(total), false);

  for (int step = 0; step < budget; ++step) {
    // All candidates of a round are independent evaluator calls; score them
    // concurrently (this turns the O(F^2) sequential fit count into O(F)
    // rounds of parallel fits), then reduce in ascending feature order so
    // the argmax tie-break matches the serial scan exactly.
    std::vector<int> open;
    open.reserve(static_cast<size_t>(total));
    for (int f = 0; f < total; ++f) {
      if (!used[static_cast<size_t>(f)]) open.push_back(f);
    }
    std::vector<double> scores(open.size(), 0.0);
    TRAJKIT_RETURN_IF_ERROR(ParallelFor(0, open.size(), 1, [&](size_t i) {
      std::vector<int> candidate = selected;
      candidate.push_back(open[i]);
      scores[i] = evaluator(dataset.SelectFeatures(candidate));
    }));
    int best_feature = -1;
    double best_score = -1.0;
    for (size_t i = 0; i < open.size(); ++i) {
      if (scores[i] > best_score) {
        best_score = scores[i];
        best_feature = open[i];
      }
    }
    TRAJKIT_CHECK_GE(best_feature, 0);
    used[static_cast<size_t>(best_feature)] = true;
    selected.push_back(best_feature);
    steps.push_back({best_feature, best_score});
  }
  return steps;
}

Result<std::vector<SelectionStep>> IncrementalRankingSelection(
    const Dataset& dataset, const SubsetEvaluator& evaluator,
    std::span<const int> ranking, int max_features) {
  if (ranking.empty()) {
    return Status::InvalidArgument("empty feature ranking");
  }
  for (int f : ranking) {
    if (f < 0 || f >= static_cast<int>(dataset.num_features())) {
      return Status::InvalidArgument("ranking contains invalid feature index");
    }
  }
  const int total = static_cast<int>(ranking.size());
  const int budget = (max_features <= 0 || max_features > total)
                         ? total
                         : max_features;
  std::vector<SelectionStep> steps;
  std::vector<int> prefix;
  for (int k = 0; k < budget; ++k) {
    prefix.push_back(ranking[static_cast<size_t>(k)]);
    const double score = evaluator(dataset.SelectFeatures(prefix));
    steps.push_back({ranking[static_cast<size_t>(k)], score});
  }
  return steps;
}

std::vector<int> PrefixOfSize(const std::vector<SelectionStep>& steps,
                              size_t k) {
  TRAJKIT_CHECK_LE(k, steps.size());
  std::vector<int> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) out.push_back(steps[i].feature_index);
  return out;
}

}  // namespace trajkit::ml
