#include "ml/normalize.h"

#include <algorithm>

namespace trajkit::ml {

void MinMaxScaler::Fit(const Matrix& features) {
  TRAJKIT_CHECK(!features.empty());
  const size_t cols = features.cols();
  mins_.assign(cols, 0.0);
  maxs_.assign(cols, 0.0);
  for (size_t c = 0; c < cols; ++c) {
    double lo = features(0, c);
    double hi = features(0, c);
    for (size_t r = 1; r < features.rows(); ++r) {
      lo = std::min(lo, features(r, c));
      hi = std::max(hi, features(r, c));
    }
    mins_[c] = lo;
    maxs_[c] = hi;
  }
}

void MinMaxScaler::Transform(Matrix& features) const {
  TRAJKIT_CHECK(fitted());
  TRAJKIT_CHECK_EQ(features.cols(), mins_.size());
  for (size_t c = 0; c < features.cols(); ++c) {
    const double range = maxs_[c] - mins_[c];
    if (range <= 0.0) {
      for (size_t r = 0; r < features.rows(); ++r) features(r, c) = 0.0;
    } else {
      const double inv = 1.0 / range;
      for (size_t r = 0; r < features.rows(); ++r) {
        features(r, c) = (features(r, c) - mins_[c]) * inv;
      }
    }
  }
}

void MinMaxScaler::FitTransform(Matrix& features) {
  Fit(features);
  Transform(features);
}

}  // namespace trajkit::ml
