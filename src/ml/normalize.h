#ifndef TRAJKIT_ML_NORMALIZE_H_
#define TRAJKIT_ML_NORMALIZE_H_

#include <vector>

#include "ml/matrix.h"

namespace trajkit::ml {

/// Min-Max normalization to [0, 1] per feature (step 7 of the framework;
/// the paper picks Min-Max because "this method preserves the relationship
/// between the values"). Fit on training data, then applied to train and
/// test with the training ranges — constant columns map to 0.
class MinMaxScaler {
 public:
  /// Learns per-column min and max. Precondition: non-empty matrix.
  void Fit(const Matrix& features);

  /// Maps each column through (x - min) / (max - min), clamping is NOT
  /// applied (test values outside the training range map outside [0, 1],
  /// as in scikit-learn). Precondition: Fit() called with matching width.
  void Transform(Matrix& features) const;

  /// Fit on and transform the same matrix.
  void FitTransform(Matrix& features);

  bool fitted() const { return !mins_.empty(); }
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_NORMALIZE_H_
