#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace trajkit::obs {
namespace {

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendDoubleArray(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(values[i]);
  }
  out += ']';
}

void AppendU64Array(std::string& out, const std::vector<uint64_t>& values) {
  char buffer[32];
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(values[i]));
    out += buffer;
  }
  out += ']';
}

/// Reset-aware increase over consecutive cumulative samples: a decrease
/// means the source restarted from zero, so the post-reset value is the
/// increment (everything accumulated before the reset inside the same
/// interval is unobservable — the standard Prometheus `increase()`
/// semantics).
double IncreaseOverSamples(const std::deque<double>& samples, size_t first,
                           size_t last) {
  double total = 0.0;
  for (size_t i = first + 1; i <= last; ++i) {
    const double step = samples[i] - samples[i - 1];
    total += step >= 0 ? step : samples[i];
  }
  return total;
}

}  // namespace

double QuantileFromBucketDeltas(const std::vector<double>& bounds,
                                const std::vector<uint64_t>& deltas,
                                double q) {
  uint64_t total = 0;
  for (const uint64_t d : deltas) total += d;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < deltas.size(); ++b) {
    if (deltas[b] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += deltas[b];
    if (static_cast<double>(cumulative) < rank) continue;
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : bounds.back();
    if (upper <= lower) return upper;
    const double inside = (rank - static_cast<double>(before)) /
                          static_cast<double>(deltas[b]);
    return lower + (upper - lower) * std::clamp(inside, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

TimeSeriesStore::TimeSeriesStore(const MetricsRegistry& registry,
                                 TimeSeriesOptions options)
    : registry_(registry),
      options_{std::max<size_t>(options.capacity, 2)} {}

void TimeSeriesStore::Track(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it != series_.end()) return;
  Series series;
  series.kind = kind;
  // Backfill zeros for ticks that happened before tracking started, so
  // every ring stays in lockstep with the tick ring (index i of any
  // series was sampled at ticks_[i]).
  if (kind == Kind::kHistogram) {
    series.hist.resize(ticks_.size());
  } else {
    series.samples.resize(ticks_.size(), 0.0);
  }
  series_.emplace(std::string(name), std::move(series));
}

void TimeSeriesStore::TrackCounter(std::string_view name) {
  Track(name, Kind::kCounter);
}
void TimeSeriesStore::TrackGauge(std::string_view name) {
  Track(name, Kind::kGauge);
}
void TimeSeriesStore::TrackHistogram(std::string_view name) {
  Track(name, Kind::kHistogram);
}

void TimeSeriesStore::Tick(double timestamp) {
  std::lock_guard<std::mutex> lock(mu_);
  ticks_.push_back(timestamp);
  if (ticks_.size() > options_.capacity) ticks_.pop_front();
  for (auto& [name, series] : series_) {
    switch (series.kind) {
      case Kind::kCounter: {
        if (series.counter == nullptr) {
          series.counter = registry_.FindCounter(name);
        }
        const double v =
            series.counter != nullptr
                ? static_cast<double>(series.counter->value())
                : 0.0;
        series.samples.push_back(v);
        if (series.samples.size() > options_.capacity) {
          series.samples.pop_front();
        }
        break;
      }
      case Kind::kGauge: {
        if (series.gauge == nullptr) series.gauge = registry_.FindGauge(name);
        series.samples.push_back(
            series.gauge != nullptr ? series.gauge->value() : 0.0);
        if (series.samples.size() > options_.capacity) {
          series.samples.pop_front();
        }
        break;
      }
      case Kind::kHistogram: {
        if (series.histogram == nullptr) {
          series.histogram = registry_.FindHistogram(name);
        }
        HistSample sample;
        if (series.histogram != nullptr) {
          const HistogramSnapshot snapshot = series.histogram->snapshot();
          if (series.bounds.empty()) series.bounds = snapshot.bounds;
          sample.buckets = snapshot.buckets;
          sample.count = snapshot.count;
          sample.sum = snapshot.sum;
        }
        series.hist.push_back(std::move(sample));
        if (series.hist.size() > options_.capacity) series.hist.pop_front();
        break;
      }
    }
  }
}

size_t TimeSeriesStore::tick_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_.size();
}

size_t TimeSeriesStore::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::vector<std::pair<std::string, std::string>>
TimeSeriesStore::SeriesKinds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) {
    const char* kind = series.kind == Kind::kCounter  ? "counter"
                       : series.kind == Kind::kGauge ? "gauge"
                                                     : "histogram";
    out.emplace_back(name, kind);
  }
  return out;
}

const TimeSeriesStore::Series* TimeSeriesStore::FindSeries(
    std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

bool TimeSeriesStore::WindowRange(const Series& series, size_t window,
                                  size_t* first, size_t* last) const {
  const size_t size = series.kind == Kind::kHistogram ? series.hist.size()
                                                      : series.samples.size();
  if (size < 2) return false;
  *last = size - 1;
  if (window == 0 || window >= size) {
    *first = 0;
  } else {
    *first = size - 1 - window;
  }
  return true;
}

double TimeSeriesStore::DeltaLocked(const Series& series, size_t first,
                                    size_t last) const {
  switch (series.kind) {
    case Kind::kCounter:
      return IncreaseOverSamples(series.samples, first, last);
    case Kind::kGauge:
      return series.samples[last] - series.samples[first];
    case Kind::kHistogram: {
      double total = 0.0;
      for (size_t i = first + 1; i <= last; ++i) {
        const double step = static_cast<double>(series.hist[i].count) -
                            static_cast<double>(series.hist[i - 1].count);
        total += step >= 0 ? step : static_cast<double>(series.hist[i].count);
      }
      return total;
    }
  }
  return 0.0;
}

double TimeSeriesStore::Delta(std::string_view name, size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindSeries(name);
  if (series == nullptr) return 0.0;
  size_t first = 0, last = 0;
  if (!WindowRange(*series, window, &first, &last)) return 0.0;
  return DeltaLocked(*series, first, last);
}

double TimeSeriesStore::Rate(std::string_view name, size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindSeries(name);
  if (series == nullptr) return 0.0;
  size_t first = 0, last = 0;
  if (!WindowRange(*series, window, &first, &last)) return 0.0;
  // Rings advance in lockstep (every series is sampled on every tick and
  // late-tracked series are zero-backfilled), so sample indices address
  // the tick ring directly.
  const double span = ticks_[last] - ticks_[first];
  if (span <= 0) return 0.0;
  return DeltaLocked(*series, first, last) / span;
}

double TimeSeriesStore::WindowedQuantile(std::string_view name, double q,
                                         size_t window) const {
  WindowedHistogram wh;
  if (!WindowedHistogramDeltas(name, window, &wh)) return 0.0;
  return QuantileFromBucketDeltas(wh.bounds, wh.deltas, q);
}

bool TimeSeriesStore::WindowedHistogramDeltas(std::string_view name,
                                              size_t window,
                                              WindowedHistogram* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindSeries(name);
  if (series == nullptr || series->kind != Kind::kHistogram) return false;
  size_t first = 0, last = 0;
  if (!WindowRange(*series, window, &first, &last)) return false;
  out->bounds = series->bounds;
  out->deltas.assign(series->bounds.size() + 1, 0);
  out->count = 0;
  // Accumulate per-bucket increments tick by tick so a counter reset
  // inside the window only discards the unobservable pre-reset part.
  for (size_t i = first + 1; i <= last; ++i) {
    const HistSample& prev = series->hist[i - 1];
    const HistSample& cur = series->hist[i];
    const size_t buckets = std::min(cur.buckets.size(), out->deltas.size());
    const bool reset = cur.count < prev.count ||
                       cur.buckets.size() != prev.buckets.size();
    for (size_t b = 0; b < buckets; ++b) {
      const uint64_t before = reset ? 0 : prev.buckets[b];
      if (cur.buckets[b] >= before) out->deltas[b] += cur.buckets[b] - before;
    }
  }
  for (const uint64_t d : out->deltas) out->count += d;
  return true;
}

std::vector<double> TimeSeriesStore::RecentSamples(std::string_view name,
                                                   size_t last) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = FindSeries(name);
  if (series == nullptr) return {};
  std::vector<double> out;
  if (series->kind == Kind::kHistogram) {
    for (const HistSample& s : series->hist) {
      out.push_back(static_cast<double>(s.count));
    }
  } else {
    out.assign(series->samples.begin(), series->samples.end());
  }
  if (last > 0 && out.size() > last) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(last));
  }
  return out;
}

std::string TimeSeriesStore::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buffer[64];
  out += "{\"capacity\": ";
  std::snprintf(buffer, sizeof(buffer), "%zu", options_.capacity);
  out += buffer;
  out += ", \"ticks\": ";
  AppendDoubleArray(out, {ticks_.begin(), ticks_.end()});
  out += ", \"series\": {";
  bool first_series = true;
  for (const auto& [name, series] : series_) {
    if (!first_series) out += ", ";
    first_series = false;
    AppendJsonString(out, name);
    out += ": {\"kind\": ";
    switch (series.kind) {
      case Kind::kCounter: {
        out += "\"counter\", \"samples\": ";
        AppendDoubleArray(out, {series.samples.begin(), series.samples.end()});
        break;
      }
      case Kind::kGauge: {
        out += "\"gauge\", \"samples\": ";
        AppendDoubleArray(out, {series.samples.begin(), series.samples.end()});
        break;
      }
      case Kind::kHistogram: {
        out += "\"histogram\", \"count\": ";
        std::vector<uint64_t> counts;
        std::vector<double> sums, p50, p99;
        for (const HistSample& s : series.hist) {
          counts.push_back(s.count);
          sums.push_back(s.sum);
          p50.push_back(
              QuantileFromBucketDeltas(series.bounds, s.buckets, 0.50));
          p99.push_back(
              QuantileFromBucketDeltas(series.bounds, s.buckets, 0.99));
        }
        AppendU64Array(out, counts);
        out += ", \"sum\": ";
        AppendDoubleArray(out, sums);
        out += ", \"p50\": ";
        AppendDoubleArray(out, p50);
        out += ", \"p99\": ";
        AppendDoubleArray(out, p99);
        break;
      }
    }
    out += '}';
  }
  out += "}}";
  return out;
}

bool WriteMetricsArtifacts(const MetricsArtifactOptions& options,
                           const MetricsRegistry& registry) {
  if (!options.metrics_json.empty() &&
      !WriteTextFile(options.metrics_json, registry.ToJson())) {
    return false;
  }
  if (!options.metrics_prom.empty() &&
      !WriteTextFile(options.metrics_prom,
                     registry.ToPrometheusText())) {
    return false;
  }
  if (!options.timeseries_json.empty()) {
    if (options.timeseries == nullptr) {
      std::fprintf(stderr,
                   "metrics: --timeseries_json=%s requested but no "
                   "time-series store is active\n",
                   options.timeseries_json.c_str());
      return false;
    }
    if (!WriteTextFile(options.timeseries_json,
                       options.timeseries->ToJson())) {
      return false;
    }
  }
  return true;
}

}  // namespace trajkit::obs
