#include "serve/fault_injector.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"

namespace trajkit::serve {
namespace {

Status BadSpec(std::string_view spec, const std::string& why) {
  return Status::InvalidArgument(
      StrPrintf("fault_spec '%.*s': %s", static_cast<int>(spec.size()),
                spec.data(), why.c_str()));
}

Result<double> ParseProbability(std::string_view value) {
  TRAJKIT_ASSIGN_OR_RETURN(const double p, ParseDouble(value));
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        StrPrintf("probability %g outside [0, 1]", p));
  }
  return p;
}

}  // namespace

Result<FaultSpec> FaultSpec::Parse(std::string_view spec) {
  FaultSpec parsed;
  for (const std::string_view clause : SplitString(spec, ';')) {
    if (clause.empty()) continue;
    // "seed=N" is a bare key=value clause; faults are "name:key=value,...".
    const size_t colon = clause.find(':');
    const std::string_view name =
        colon == std::string_view::npos ? clause.substr(0, clause.find('='))
                                        : clause.substr(0, colon);
    if (name == "seed") {
      const size_t eq = clause.find('=');
      if (eq == std::string_view::npos) {
        return BadSpec(spec, "seed needs a value (seed=N)");
      }
      auto seed = ParseUint64(clause.substr(eq + 1));
      if (!seed.ok()) return BadSpec(spec, seed.status().message());
      parsed.seed = seed.value();
      continue;
    }
    if (colon == std::string_view::npos) {
      return BadSpec(spec, "clause '" + std::string(clause) +
                               "' is missing its key list (name:k=v,...)");
    }
    double* p = nullptr;
    double* latency_ms = nullptr;
    if (name == "swap_stall") {
      p = &parsed.swap_stall_p;
      latency_ms = &parsed.swap_stall_latency_ms;
    } else if (name == "predict_fail") {
      p = &parsed.predict_fail_p;
    } else if (name == "batch_delay") {
      p = &parsed.batch_delay_p;
      latency_ms = &parsed.batch_delay_latency_ms;
    } else {
      return BadSpec(spec, "unknown fault '" + std::string(name) + "'");
    }
    for (const std::string_view pair :
         SplitString(clause.substr(colon + 1), ',')) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        return BadSpec(spec, "key '" + std::string(pair) + "' has no value");
      }
      const std::string_view key = pair.substr(0, eq);
      const std::string_view value = pair.substr(eq + 1);
      if (key == "p") {
        auto probability = ParseProbability(value);
        if (!probability.ok()) return BadSpec(spec,
                                              probability.status().message());
        *p = probability.value();
      } else if (key == "latency_ms" && latency_ms != nullptr) {
        auto parsed_latency = ParseDouble(value);
        if (!parsed_latency.ok()) {
          return BadSpec(spec, parsed_latency.status().message());
        }
        if (!std::isfinite(parsed_latency.value()) ||
            parsed_latency.value() < 0.0) {
          return BadSpec(spec, "latency_ms must be finite and >= 0");
        }
        *latency_ms = parsed_latency.value();
      } else {
        return BadSpec(spec, "unknown key '" + std::string(key) + "' for '" +
                                 std::string(name) + "'");
      }
    }
  }
  return parsed;
}

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec),
      metric_swap_stall_(obs::MetricsRegistry::Global().GetCounter(
          "serve.faults.injected.swap_stall")),
      metric_predict_fail_(obs::MetricsRegistry::Global().GetCounter(
          "serve.faults.injected.predict_fail")),
      metric_batch_delay_(obs::MetricsRegistry::Global().GetCounter(
          "serve.faults.injected.batch_delay")),
      rng_(spec.seed) {}

FaultInjector::BatchFaults FaultInjector::Next() {
  BatchFaults faults;
  if (!enabled()) return faults;
  std::lock_guard<std::mutex> lock(mu_);
  // Draw all three every call so the stream stays aligned whatever subset
  // of faults a spec enables.
  const bool stall = rng_.NextBernoulli(spec_.swap_stall_p);
  const bool fail = rng_.NextBernoulli(spec_.predict_fail_p);
  const bool delay = rng_.NextBernoulli(spec_.batch_delay_p);
  if (stall) {
    faults.stall_registry = true;
    faults.delay_seconds += spec_.swap_stall_latency_ms * 1e-3;
    metric_swap_stall_.Increment();
  }
  if (fail) {
    faults.fail_predict = true;
    metric_predict_fail_.Increment();
  }
  if (delay) {
    faults.delay_seconds += spec_.batch_delay_latency_ms * 1e-3;
    metric_batch_delay_.Increment();
  }
  return faults;
}

}  // namespace trajkit::serve
