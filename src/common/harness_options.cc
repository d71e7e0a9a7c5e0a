#include "common/harness_options.h"

#include <cstdio>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace trajkit {

HarnessOptions HarnessOptions::FromFlags(const Flags& flags) {
  HarnessOptions options;
  options.threads = flags.GetInt("threads", 0, 0);
  options.timing_json = flags.GetString("timing_json", "");
  options.metrics_json = flags.GetString("metrics_json", "");
  options.metrics_prom = flags.GetString("metrics_prom", "");
  options.timeseries_json = flags.GetString("timeseries_json", "");
  options.trace_json = flags.GetString("trace_json", "");
  options.trace_test = flags.GetString("trace_test", "");
  options.trace_sample = flags.GetUint64("trace_sample", 1);
  options.trace_buffer =
      static_cast<size_t>(flags.GetUint64("trace_buffer", 8192));
  return options;
}

int HarnessOptions::ApplyThreads() const {
  if (threads > 0) SetMaxThreads(threads);
  return MaxThreads();
}

void HarnessOptions::ConfigureTracing(bool always) const {
  if (!always && !tracing_requested()) return;
  obs::RequestTracerOptions tracer_options;
  tracer_options.enabled = true;
  tracer_options.sample_every = trace_sample == 0 ? 1 : trace_sample;
  tracer_options.buffer_capacity = trace_buffer == 0 ? 8192 : trace_buffer;
  obs::RequestTracer::Global().Configure(tracer_options);
}

bool HarnessOptions::WriteMetrics(
    const obs::TimeSeriesStore* timeseries) const {
  obs::MetricsArtifactOptions artifacts;
  artifacts.metrics_json = metrics_json;
  artifacts.metrics_prom = metrics_prom;
  artifacts.timeseries_json = timeseries_json;
  artifacts.timeseries = timeseries;
  if (!obs::WriteMetricsArtifacts(artifacts, obs::MetricsRegistry::Global())) {
    return false;
  }
  for (const std::string* path : {&metrics_json, &metrics_prom}) {
    if (!path->empty()) std::printf("metrics written to %s\n", path->c_str());
  }
  if (!timeseries_json.empty()) {
    std::printf("timeseries written to %s\n", timeseries_json.c_str());
  }
  return true;
}

bool HarnessOptions::DumpTrace() const {
  bool ok = true;
  const obs::RequestTracer& tracer = obs::RequestTracer::Global();
  if (!trace_json.empty()) {
    if (obs::WriteTextFile(trace_json, tracer.ToChromeTraceJson())) {
      std::printf("trace written to %s\n", trace_json.c_str());
    } else {
      ok = false;
    }
  }
  if (!trace_test.empty()) {
    if (obs::WriteTextFile(trace_test, tracer.ToTestFormat())) {
      std::printf("trace test dump written to %s\n", trace_test.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace trajkit
