#ifndef TRAJKIT_STATS_DESCRIPTIVE_H_
#define TRAJKIT_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace trajkit::stats {

/// Minimum of a non-empty range. Precondition: !values.empty().
double Min(std::span<const double> values);

/// Maximum of a non-empty range. Precondition: !values.empty().
double Max(std::span<const double> values);

/// Arithmetic mean of a non-empty range.
double Mean(std::span<const double> values);

/// Population variance (ddof = 0, numpy default). Precondition: non-empty.
double Variance(std::span<const double> values);

/// Population standard deviation (ddof = 0). Precondition: non-empty.
double StdDev(std::span<const double> values);

/// Median via the percentile-50 definition. Precondition: non-empty.
double Median(std::span<const double> values);

/// Percentile with numpy's default "linear" interpolation:
/// rank = p/100 * (n-1); result interpolates between the two surrounding
/// order statistics. `p` in [0, 100]. Precondition: non-empty.
double Percentile(std::span<const double> values, double p);

/// Computes several percentiles; same values as Percentile for each p.
///
/// Only the order statistics the ps interpolate between are put in place:
/// the middle needed rank is selected with std::nth_element and the ranks
/// on either side of it recursively. The whole copy is sorted instead when
/// it has fewer than kMinSelectSize values, when more than
/// kMaxSelectPercentiles are asked for, or when it holds a NaN or a -0.0
/// (sort and select may order NaNs and ±0 ties differently). Without NaN
/// and -0.0, values that compare equal have equal bits, so either way the
/// results are bit-identical to sorting.
std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps);

/// Below this many values Percentiles sorts. On windows of real
/// point-feature channels, one std::sort of n values beats the cascade of
/// selections for the five paper percentiles up to about n = 140 and loses
/// above it (1.1 vs 1.7 us at n = 32, 30 vs 21 us at n = 540).
inline constexpr size_t kMinSelectSize = 144;

/// Percentiles selects for at most this many percentiles per call.
inline constexpr size_t kMaxSelectPercentiles = 8;

/// Min, Max, Mean and StdDev of one range.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Min, Max, Mean and StdDev of `values`, bit-identical to those functions
/// (same tie and NaN rules, same left-to-right sum), plus the Percentiles
/// of `ps` in `out`, in two passes: the copy into `scratch` (refilled each
/// call, so tight extraction loops pay no per-call allocation) also folds
/// the min, the max and the sum, and a second pass sums the squared
/// deviations from the mean. Precondition: non-empty,
/// out.size() == ps.size().
Summary SummarizeInto(std::span<const double> values,
                      std::span<const double> ps,
                      std::vector<double>& scratch, std::span<double> out);

}  // namespace trajkit::stats

#endif  // TRAJKIT_STATS_DESCRIPTIVE_H_
