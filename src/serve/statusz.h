#ifndef TRAJKIT_SERVE_STATUSZ_H_
#define TRAJKIT_SERVE_STATUSZ_H_

// The /statusz-style text status page of the serving stack: one screen
// answering "what is this server doing right now" — active model
// version, queue depth, lifecycle counters (shed / degraded / faults),
// latency quantiles with their exemplar trace ids, and the last K
// tail-kept request traces from the flight recorder. Rendered from the
// metrics registry + request tracer, so it works in any process that
// serves (the `trajkit statusz` subcommand renders it after a synthetic
// replay; a long-running server would render it on demand).

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace trajkit::serve {

struct StatusPageOptions {
  /// Live telemetry sources: recent history sparklines and the SLO
  /// section render "(no data)" when these are absent.
  const obs::TimeSeriesStore* timeseries = nullptr;
  const obs::SloEngine* slo = nullptr;
};

/// Unicode block-character sparkline of `values` (empty -> ""). All-equal
/// inputs render as the lowest block so a flat line reads as flat.
/// Exposed for the statusz golden test.
std::string Sparkline(const std::vector<double>& values);

/// Renders the status page from `metrics` + `tracer`. Every section
/// always renders; subsystems that have emitted nothing show a stable
/// "(no data)" placeholder (lookups never create metrics).
std::string RenderStatusPage(const obs::MetricsRegistry& metrics,
                             const obs::RequestTracer& tracer,
                             const StatusPageOptions& options = {});

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_STATUSZ_H_
