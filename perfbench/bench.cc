#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

void Report::Add(std::string name, double value, std::string unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::move(unit);
      return;
    }
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::Attempt(bool ok, size_t count) {
  attempted_ += count;
  if (!ok) failed_ += count;
}

void Report::Mismatch(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: output mismatch: %s\n", what.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                ", \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                attempted_, failed_);
  out += buffer;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which is reported incorrect anyway.
    const double value = std::isfinite(metric.value) ? metric.value : -1.0;
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    out += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
           buffer + ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool ResetPeakRss() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  const bool reset = file != nullptr && std::fputs("5", file) >= 0 &&
                     std::fclose(file) == 0;
  if (!reset) {
    if (file != nullptr) std::fclose(file);
    std::fprintf(stderr, "perfbench: cannot reset the RSS high-water mark; "
                         "peak_rss_mb covers the whole process\n");
  }
  return reset;
}

double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (file != nullptr && std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  if (file != nullptr) std::fclose(file);
  if (kib < 0) {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    kib = usage.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int Tracer::Name(std::string_view name) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return static_cast<int>(i);
  }
  totals_.push_back(Totals{std::string(name)});
  return static_cast<int>(totals_.size() - 1);
}

double Tracer::End(int id) {
  if (!enabled_) return 0.0;
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = Seconds(frame.start, end);
  Totals& totals = totals_[static_cast<size_t>(id)];
  ++totals.count;
  totals.total_s += duration;
  totals.self_s += duration - frame.child_s;
  if (!stack_.empty()) stack_.back().child_s += duration;
  if (records_.size() < kMaxRecords) {
    records_.push_back(Record{id, frame.start, end});
  } else {
    ++dropped_;
  }
  return duration;
}

double Tracer::LayerSelfSeconds(std::string_view layer) const {
  double sum = 0.0;
  for (const Totals& totals : totals_) {
    const std::string_view name = totals.name;
    if (name.size() > layer.size() && name.substr(0, layer.size()) == layer &&
        name[layer.size()] == '.') {
      sum += totals.self_s;
    }
  }
  return sum;
}

double Tracer::TotalSelfSeconds() const {
  double sum = 0.0;
  for (const Totals& totals : totals_) sum += totals.self_s;
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  // Records are appended as spans close, so the earliest start is not
  // necessarily the first record's.
  Clock::time_point first = Clock::time_point::max();
  for (const Record& record : records_) first = std::min(first, record.start);
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                     "{\"dropped_spans\": %zu}, \"traceEvents\": [",
               dropped_);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 i == 0 ? "" : ",",
                 totals_[static_cast<size_t>(record.id)].name.c_str(),
                 1e6 * Seconds(first, record.start),
                 1e6 * Seconds(record.start, record.end));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

void AddLedger(const Tracer& tracer, double traced_wall_s, Report* report) {
  for (std::string_view layer : kLayers) {
    report->Add(std::string(layer) + ".self_s",
                tracer.LayerSelfSeconds(layer), "s");
  }
  // Closure: the layers' self times must add up to the traced wall time,
  // measured by a stopwatch outside the spans. A span left open, or one
  // closed twice, breaks it.
  const double closure_error =
      traced_wall_s > 0.0
          ? std::fabs(tracer.TotalSelfSeconds() - traced_wall_s) /
                traced_wall_s
          : 1.0;
  report->Add("bench.closure_error", closure_error, "ratio");
  constexpr double kClosureTolerance = 0.01;
  if (!tracer.balanced() || closure_error > kClosureTolerance) {
    report->Mismatch("traced layers do not sum to the traced wall (error " +
                     std::to_string(closure_error) + ", tolerance 0.01)");
  }
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"bench.self_s", "s"},
      {"bench.trace_overhead", "ratio"},
      {"bench.closure_error", "ratio"},
      {"bench.late_ms_p99", "ms"},
      {"bench.failed_share", "ratio"},
      {"bench.close_to_predict_ms_p99", "ms"},
      {"geolife.self_s", "s"},
      {"geolife.load_s", "s"},
      {"geolife.mb_per_s", "MB/s"},
      {"traj.self_s", "s"},
      {"traj.segment_s", "s"},
      {"traj.point_features_s", "s"},
      {"traj.segment_stats_s", "s"},
      {"core.self_s", "s"},
      {"core.build_dataset_s", "s"},
      {"serve.self_s", "s"},
      {"serve.ingest_append_s", "s"},
      {"serve.ingest_calls", "count"},
      {"serve.ingest_close_s", "s"},
      {"serve.ingest_close_us_p50", "us"},
      {"serve.ingest_close_us_p99", "us"},
      {"serve.segments_closed", "count"},
      {"serve.submit_s", "s"},
      {"serve.predict_wait_us_p50", "us"},
      {"serve.predict_wait_us_p99", "us"},
      {"serve.batches", "count"},
      {"serve.batch_rows_mean", "rows"},
      {"serve.drain_wait_s", "s"},
      {"serve.replay_self_s", "s"},
      {"ml.self_s", "s"},
      {"ml.rf_fit_s", "s"},
      {"ml.rf_predict_s", "s"},
      {"ml.folds", "count"},
      {"ml.importance_curve_s", "s"},
      {"ml.flat_predict_us_per_row", "us"},
      {"common.self_s", "s"},
      {"common.pool_busy_share", "ratio"},
      {"obs.self_s", "s"},
      {"obs.tick_s", "s"},
      {"obs.ticks", "count"},
      {"store.self_s", "s"},
      {"store.ingest_s", "s"},
      {"store.save_s", "s"},
      {"store.load_s", "s"},
      {"store.log_bytes", "bytes"},
      {"store.build_index_s", "s"},
      {"store.nodes_visited_per_query", "count"},
      {"store.query_us_p50", "us"},
      {"store.query_us_p99", "us"},
  };
  return kMetrics;
}

}  // namespace perfbench
