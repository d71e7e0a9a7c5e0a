#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/strings.h"
#include "obs/request_trace.h"

namespace trajkit::obs {
namespace {

std::string FormatBurn(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

std::vector<std::string> SplitList(std::string_view text, char sep) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const size_t pos = text.find(sep);
    out.emplace_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return out;
}

bool ReadFinite(std::string_view value, double* out) {
  const Result<double> parsed = ParseDouble(value);
  if (!parsed.ok() || !std::isfinite(*parsed)) return false;
  *out = *parsed;
  return true;
}

/// Windows count ticks, and no time-series ring holds more than INT_MAX
/// ticks (--timeseries_capacity), so a longer window is an error.
bool ReadWindow(std::string_view value, size_t* out) {
  const Result<unsigned long long> parsed = ParseUint64(value);
  if (!parsed.ok() || *parsed < 1 ||
      *parsed > static_cast<unsigned long long>(
                    std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<size_t>(*parsed);
  return true;
}

}  // namespace

bool ParseSloSpecs(std::string_view text, std::vector<SloSpec>* specs,
                   std::string* error) {
  specs->clear();
  for (const std::string& entry : SplitList(text, ';')) {
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      *error = "SLO spec \"" + entry + "\" is missing the <name>: prefix";
      return false;
    }
    SloSpec spec;
    spec.name = entry.substr(0, colon);
    bool have_type = false;
    for (const std::string& kv : SplitList(entry.substr(colon + 1), ',')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        *error = "SLO \"" + spec.name + "\": \"" + kv + "\" is not key=value";
        return false;
      }
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      bool ok = true;
      if (key == "type") {
        have_type = true;
        if (value == "latency") {
          spec.kind = SloSpec::Kind::kLatency;
        } else if (value == "ratio") {
          spec.kind = SloSpec::Kind::kRatio;
        } else {
          ok = false;
        }
      } else if (key == "metric") {
        spec.metric = value;
        ok = !value.empty();
      } else if (key == "ceiling_ms") {
        double ms = 0.0;
        ok = ReadFinite(value, &ms) && ms > 0;
        spec.ceiling_seconds = ms / 1000.0;
      } else if (key == "bad") {
        spec.bad = SplitList(value, '+');
        ok = !spec.bad.empty() && !spec.bad.front().empty();
      } else if (key == "total") {
        spec.total = SplitList(value, '+');
        ok = !spec.total.empty() && !spec.total.front().empty();
      } else if (key == "budget") {
        ok = ReadFinite(value, &spec.budget) && spec.budget > 0 &&
             spec.budget <= 1;
      } else if (key == "fast") {
        ok = ReadWindow(value, &spec.fast_window);
      } else if (key == "slow") {
        ok = ReadWindow(value, &spec.slow_window);
      } else if (key == "burn") {
        ok = ReadFinite(value, &spec.burn_threshold) &&
             spec.burn_threshold > 0;
      } else {
        *error = "SLO \"" + spec.name + "\": unknown key \"" + key + "\"";
        return false;
      }
      if (!ok) {
        *error = "SLO \"" + spec.name + "\": invalid value for \"" + key +
                 "\": \"" + value + "\"";
        return false;
      }
    }
    if (!have_type) {
      *error = "SLO \"" + spec.name + "\": missing type=latency|ratio";
      return false;
    }
    if (spec.kind == SloSpec::Kind::kLatency && spec.metric.empty()) {
      *error = "SLO \"" + spec.name + "\": type=latency requires metric=";
      return false;
    }
    if (spec.kind == SloSpec::Kind::kLatency && spec.ceiling_seconds <= 0) {
      *error = "SLO \"" + spec.name + "\": type=latency requires ceiling_ms=";
      return false;
    }
    if (spec.kind == SloSpec::Kind::kRatio &&
        (spec.bad.empty() || spec.total.empty())) {
      *error = "SLO \"" + spec.name + "\": type=ratio requires bad= and total=";
      return false;
    }
    if (spec.fast_window > spec.slow_window) {
      *error = "SLO \"" + spec.name + "\": fast window exceeds slow window";
      return false;
    }
    specs->push_back(std::move(spec));
  }
  return true;
}

SloEngine::SloEngine(TimeSeriesStore* store, MetricsRegistry* registry,
                     std::vector<SloSpec> specs)
    : store_(store), registry_(registry), specs_(std::move(specs)) {
  for (const SloSpec& spec : specs_) {
    if (spec.kind == SloSpec::Kind::kLatency) {
      store_->TrackHistogram(spec.metric);
    } else {
      for (const std::string& name : spec.bad) store_->TrackCounter(name);
      for (const std::string& name : spec.total) store_->TrackCounter(name);
    }
    SloState state;
    state.name = spec.name;
    states_.push_back(std::move(state));
    // Materialize the SLO's own metrics up front so exports show the
    // zero state (and the statusz section has something to render).
    registry_->GetCounter("slo." + spec.name + ".breaches");
    registry_->GetGauge("slo." + spec.name + ".budget_remaining").Set(1.0);
    registry_->GetGauge("slo." + spec.name + ".breached").Set(0.0);
  }
}

double SloEngine::BadFraction(const SloSpec& spec, size_t window) const {
  if (spec.kind == SloSpec::Kind::kLatency) {
    WindowedHistogram wh;
    if (!store_->WindowedHistogramDeltas(spec.metric, window, &wh) ||
        wh.count == 0) {
      return 0.0;
    }
    // Observations <= bound are good while bound <= ceiling: the
    // effective ceiling snaps up to the histogram's bucket resolution.
    uint64_t good = 0;
    for (size_t b = 0; b < wh.bounds.size(); ++b) {
      if (wh.bounds[b] <= spec.ceiling_seconds * (1 + 1e-12)) {
        good += wh.deltas[b];
      }
    }
    return static_cast<double>(wh.count - good) /
           static_cast<double>(wh.count);
  }
  double bad = 0.0, total = 0.0;
  for (const std::string& name : spec.bad) bad += store_->Delta(name, window);
  for (const std::string& name : spec.total) {
    total += store_->Delta(name, window);
  }
  if (total <= 0) return 0.0;
  return std::clamp(bad / total, 0.0, 1.0);
}

void SloEngine::Evaluate(uint64_t tick) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SloState& state = states_[i];
    state.burn_fast = BadFraction(spec, spec.fast_window) / spec.budget;
    state.burn_slow = BadFraction(spec, spec.slow_window) / spec.budget;
    state.budget_remaining = std::max(0.0, 1.0 - state.burn_slow);
    const bool breached = state.burn_fast >= spec.burn_threshold &&
                          state.burn_slow >= spec.burn_threshold;
    registry_->GetGauge("slo." + spec.name + ".budget_remaining")
        .Set(state.budget_remaining);
    if (breached != state.breached) {
      state.breached = breached;
      ++state.transitions;
      registry_->GetGauge("slo." + spec.name + ".breached")
          .Set(breached ? 1.0 : 0.0);
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "tick=%llu slo=",
                    static_cast<unsigned long long>(tick));
      std::string line = buffer;
      line += spec.name;
      line += breached ? " ok->breach" : " breach->ok";
      line += " burn_fast=" + FormatBurn(state.burn_fast);
      line += " burn_slow=" + FormatBurn(state.burn_slow);
      log_.push_back(std::move(line));
      if (breached) {
        registry_->GetCounter("slo." + spec.name + ".breaches").Increment();
        RequestTracer::Global().RecordGlobalInstant("slo_breach", tick);
      } else {
        RequestTracer::Global().RecordGlobalInstant("slo_recover", tick);
      }
    }
  }
}

bool SloEngine::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SloState& state : states_) {
    if (state.breached) return false;
  }
  return true;
}

std::vector<SloState> SloEngine::states() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_;
}

std::vector<std::string> SloEngine::transition_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

}  // namespace trajkit::obs
