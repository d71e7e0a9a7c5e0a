#include "stats/descriptive.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace trajkit::stats {

double Min(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double Max(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

double Mean(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) {
  TRAJKIT_CHECK(!values.empty());
  const double mu = Mean(values);
  double acc = 0.0;
  for (double v : values) {
    const double d = v - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  return std::sqrt(Variance(values));
}

double Median(std::span<const double> values) {
  return Percentile(values, 50.0);
}

namespace {

double PercentileOfSorted(std::span<const double> sorted, double p) {
  const size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double rank = (p / 100.0) * static_cast<double>(n - 1);
  const double lo_rank = std::floor(rank);
  const size_t lo = static_cast<size_t>(lo_rank);
  if (lo + 1 >= n) return sorted[n - 1];
  const double frac = rank - lo_rank;
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

// True for the values sort and select may place differently among equal
// keys: NaN, and -0.0 (which ties +0.0).
bool OrdersAmbiguously(double v) {
  return v != v || std::bit_cast<uint64_t>(v) == std::bit_cast<uint64_t>(-0.0);
}

// Puts every rank in `ranks` (ascending, distinct, each in
// [offset, offset + range.size())) at its sorted position within `range`,
// which holds exactly the values of those positions.
void SelectRanks(std::span<double> range, size_t offset,
                 std::span<const size_t> ranks) {
  if (ranks.empty()) return;
  const size_t mid = ranks.size() / 2;
  const size_t k = ranks[mid] - offset;
  // An end of the range needs one scan, not a partition.
  if (k + 1 == range.size()) {
    std::iter_swap(range.begin() + k,
                   std::max_element(range.begin(), range.end()));
  } else if (k == 0) {
    std::iter_swap(range.begin(),
                   std::min_element(range.begin(), range.end()));
  } else {
    std::nth_element(range.begin(), range.begin() + k, range.end());
  }
  SelectRanks(range.first(k), offset, ranks.first(mid));
  SelectRanks(range.subspan(k + 1), offset + k + 1, ranks.subspan(mid + 1));
}

// Fills `out` from `scratch`, a copy of the data. `ambiguous` says whether
// the copy holds a value OrdersAmbiguously flags.
void OrderStatisticsInto(std::vector<double>& scratch, bool ambiguous,
                         std::span<const double> ps, std::span<double> out) {
  TRAJKIT_CHECK_EQ(out.size(), ps.size());
  for (const double p : ps) {
    TRAJKIT_CHECK_GE(p, 0.0);
    TRAJKIT_CHECK_LE(p, 100.0);
  }
  const size_t n = scratch.size();
  if (ambiguous || n < kMinSelectSize || ps.size() > kMaxSelectPercentiles) {
    std::sort(scratch.begin(), scratch.end());
  } else {
    // The one or two ranks PercentileOfSorted reads for each p.
    std::array<size_t, 2 * kMaxSelectPercentiles> ranks;
    size_t num_ranks = 0;
    for (const double p : ps) {
      const double rank = (p / 100.0) * static_cast<double>(n - 1);
      const size_t lo = static_cast<size_t>(std::floor(rank));
      if (lo + 1 >= n) {
        ranks[num_ranks++] = n - 1;
      } else {
        ranks[num_ranks++] = lo;
        ranks[num_ranks++] = lo + 1;
      }
    }
    std::sort(ranks.begin(), ranks.begin() + num_ranks);
    num_ranks = static_cast<size_t>(
        std::unique(ranks.begin(), ranks.begin() + num_ranks) -
        ranks.begin());
    SelectRanks(scratch, 0, std::span(ranks).first(num_ranks));
  }
  for (size_t i = 0; i < ps.size(); ++i) {
    out[i] = PercentileOfSorted(scratch, ps[i]);
  }
}

// Percentiles of `values` into `out`, with `scratch` as the working copy.
void PercentilesInto(std::span<const double> values,
                     std::span<const double> ps,
                     std::vector<double>& scratch, std::span<double> out) {
  TRAJKIT_CHECK(!values.empty());
  scratch.assign(values.begin(), values.end());
  bool ambiguous = false;
  for (const double v : values) ambiguous |= OrdersAmbiguously(v);
  OrderStatisticsInto(scratch, ambiguous, ps, out);
}

}  // namespace

double Percentile(std::span<const double> values, double p) {
  double out;
  std::vector<double> scratch;
  PercentilesInto(values, std::span(&p, 1), scratch, std::span(&out, 1));
  return out;
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::span<const double> ps) {
  std::vector<double> out(ps.size());
  std::vector<double> scratch;
  PercentilesInto(values, ps, scratch, out);
  return out;
}

Summary SummarizeInto(std::span<const double> values,
                      std::span<const double> ps,
                      std::vector<double>& scratch, std::span<double> out) {
  TRAJKIT_CHECK(!values.empty());
  const size_t n = values.size();
  scratch.resize(n);
  double* copy = scratch.data();
  // Min and Max keep min_element/max_element's rules (the first of equal
  // extremes wins; a NaN is never taken over, nor replaced when first) and
  // the sum is Mean's, left to right from 0.0.
  double lo = values[0];
  double hi = values[0];
  double sum = 0.0;
  bool ambiguous = false;
  for (size_t i = 0; i < n; ++i) {
    const double v = values[i];
    copy[i] = v;
    if (v < lo) lo = v;
    if (hi < v) hi = v;
    sum += v;
    ambiguous |= OrdersAmbiguously(v);
  }
  Summary summary;
  summary.min = lo;
  summary.max = hi;
  summary.mean = sum / static_cast<double>(n);
  double acc = 0.0;
  for (const double v : values) {
    const double d = v - summary.mean;
    acc += d * d;
  }
  summary.stddev = std::sqrt(acc / static_cast<double>(n));
  OrderStatisticsInto(scratch, ambiguous, ps, out);
  return summary;
}

}  // namespace trajkit::stats
