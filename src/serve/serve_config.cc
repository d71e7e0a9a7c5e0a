#include "serve/serve_config.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace trajkit::serve {
namespace {

// Flag readers: an absent flag takes its fallback; a present value must
// parse in full (Flags' own getters silently fall back or narrow). Every
// value, fallback included, is then bounds-checked. Each error is an
// InvalidArgument naming the flag.

/// Integer flags keep the int range they always had (the fields that are
/// size_t were parsed through int too), so a value past INT_MAX is an
/// error rather than a wrapped or enormous shard/batch count.
template <typename T>
Status ReadInt(const Flags& flags, const char* name, T fallback,
               long long lo, T* out,
               long long hi = std::numeric_limits<int>::max()) {
  long long value = static_cast<long long>(fallback);
  if (flags.Has(name)) {
    const std::string text = flags.GetString(name, "");
    const Result<long long> parsed = ParseInt64(text);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          StrPrintf("--%s=%s is not an integer", name, text.c_str()));
    }
    value = *parsed;
  }
  if (value < lo || value > hi) {
    return Status::InvalidArgument(StrPrintf(
        "--%s must be in [%lld, %lld] (got %lld)", name, lo, hi, value));
  }
  *out = static_cast<T>(value);
  return Status::Ok();
}

/// Full-range unsigned flags (seeds).
Status ReadUint64(const Flags& flags, const char* name, uint64_t fallback,
                  uint64_t* out) {
  *out = fallback;
  if (!flags.Has(name)) return Status::Ok();
  const std::string text = flags.GetString(name, "");
  const Result<unsigned long long> parsed = ParseUint64(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(StrPrintf(
        "--%s=%s is not an unsigned 64-bit integer", name, text.c_str()));
  }
  *out = *parsed;
  return Status::Ok();
}

/// Finite double flags with an inclusive lower bound (NaN never passes).
Status ReadDouble(const Flags& flags, const char* name, double fallback,
                  double lo, double* out) {
  double value = fallback;
  if (flags.Has(name)) {
    const std::string text = flags.GetString(name, "");
    const Result<double> parsed = ParseDouble(text);
    if (!parsed.ok() || !std::isfinite(*parsed)) {
      return Status::InvalidArgument(
          StrPrintf("--%s=%s is not a finite number", name, text.c_str()));
    }
    value = *parsed;
  }
  if (!(value >= lo)) {
    return Status::InvalidArgument(
        StrPrintf("--%s must be >= %g (got %g)", name, lo, value));
  }
  *out = value;
  return Status::Ok();
}

}  // namespace

ServeConfigDefaults ServeReplayDefaults() {
  // Historic serve-replay defaults: unbounded queue, single shard, no
  // deadline/retries/chaos; synthetic fallback corpus is 20 users x 4
  // days.
  ServeConfigDefaults defaults;
  return defaults;
}

ServeConfigDefaults StatuszDefaults() {
  // Historic statusz demo defaults: a small chaotic sharded run whose
  // artifacts exercise every section of the page.
  ServeConfigDefaults defaults;
  defaults.users = 6;
  defaults.days = 2;
  defaults.batch = 16;
  defaults.max_delay_ms = 1.0;
  defaults.max_queue = 32;
  defaults.shards = 2;
  defaults.deadline_ms = 50.0;
  defaults.retries = 1;
  defaults.fault_spec =
      "swap_stall:p=0.15,latency_ms=2;predict_fail:p=0.15;"
      "batch_delay:p=0.2,latency_ms=1;seed=11";
  return defaults;
}

ServeConfigDefaults MicroServeDefaults() {
  // Historic micro_serve defaults: 30 users x 4 days, a 50-tree forest,
  // no chaos.
  ServeConfigDefaults defaults;
  defaults.users = 30;
  defaults.days = 4;
  defaults.trees = 50;
  return defaults;
}

ContinuousTrainingOptions ContinuousTrainingConfig::MakeOptions() const {
  ContinuousTrainingOptions options;
  options.step_every = step_every;
  options.refit_every = refit_every;
  options.min_fit_samples = min_fit;
  options.buffer_capacity = buffer;
  options.forest.n_estimators = trees;
  options.forest.seed = seed;
  options.promotion.min_samples = min_shadow;
  options.promotion.min_accuracy_delta = promote_epsilon;
  options.promotion.max_cost_ratio = cost_budget;
  options.drift.window = drift_window;
  options.drift.threshold = drift_threshold;
  options.drift.max_degraded_rate = drift_degraded_rate;
  return options;
}

BatchPredictorOptions ServeConfig::MakeBatchingOptions() const {
  BatchPredictorOptions batching;
  batching.max_batch_size = batch;
  batching.max_delay_seconds = max_delay_seconds;
  batching.max_queue = max_queue;
  return batching;
}

ServingPlaneOptions ServeConfig::MakePlaneOptions() const {
  ServingPlaneOptions plane;
  plane.shards = shards;
  plane.session.max_gap_seconds = gap_seconds;
  plane.session.max_segment_points = max_window;
  plane.batching = MakeBatchingOptions();
  return plane;
}

ReplayOptions ServeConfig::MakeReplayOptions() const {
  ReplayOptions replay;
  replay.deadline_seconds = deadline_seconds;
  replay.retry_budget = retries;
  return replay;
}

Result<ServeConfig> ParseServeFlags(const Flags& flags,
                                    const ServeConfigDefaults& defaults) {
  constexpr double kAny = -std::numeric_limits<double>::infinity();
  ServeConfig config;
  double max_delay_ms = 0.0;
  double deadline_ms = 0.0;
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "users", defaults.users, 1, &config.users));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "days", defaults.days, 1, &config.days));
  TRAJKIT_RETURN_IF_ERROR(
      ReadUint64(flags, "seed", defaults.seed, &config.seed));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "trees", defaults.trees, 1, &config.trees));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "batch", defaults.batch, 1, &config.batch));
  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "max_delay_ms",
                                     defaults.max_delay_ms, 0.0,
                                     &max_delay_ms));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "max_queue", defaults.max_queue, 0, &config.max_queue));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "shards", defaults.shards, 1, &config.shards));
  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "gap", defaults.gap_seconds, 0.0,
                                     &config.gap_seconds));
  TRAJKIT_RETURN_IF_ERROR(ReadInt(flags, "max_window", defaults.max_window,
                                  0, &config.max_window));
  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "deadline_ms",
                                     defaults.deadline_ms, 0.0,
                                     &deadline_ms));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "retries", defaults.retries, 0, &config.retries));
  config.max_delay_seconds = max_delay_ms * 1e-3;
  config.deadline_seconds = deadline_ms * 1e-3;

  // An explicit --fault_spec (even an empty one, which disables the
  // entry point's default chaos) beats the defaults.
  config.fault_spec_text = flags.Has("fault_spec")
                               ? flags.GetString("fault_spec", "")
                               : defaults.fault_spec;
  if (!config.fault_spec_text.empty()) {
    auto spec = FaultSpec::Parse(config.fault_spec_text);
    if (!spec.ok()) {
      return Status::InvalidArgument(
          StrPrintf("--fault_spec: %s", spec.status().message().c_str()));
    }
    config.fault_spec = spec.value();
  }

  // Telemetry plane.
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "http_port", -1, -1, &config.http_port, 65535));
  config.http_linger = flags.GetBool("http_linger", false);
  if (config.http_linger && config.http_port < 0) {
    return Status::InvalidArgument(
        "--http_linger requires --http_port");
  }
  config.slo_spec_text = flags.GetString("slo_spec", "");
  if (!config.slo_spec_text.empty()) {
    std::string error;
    if (!obs::ParseSloSpecs(config.slo_spec_text, &config.slo_specs,
                            &error)) {
      return Status::InvalidArgument(
          StrPrintf("--slo_spec: %s", error.c_str()));
    }
  }
  TRAJKIT_RETURN_IF_ERROR(ReadInt(flags, "timeseries_capacity",
                                  config.timeseries_capacity, 2,
                                  &config.timeseries_capacity));
  TRAJKIT_RETURN_IF_ERROR(ReadInt(flags, "tick_every", config.tick_every, 1,
                                  &config.tick_every));

  // Continuous training: every knob requires the main switch, so a typo'd
  // or stray CT flag fails loudly instead of silently doing nothing.
  config.ct.enabled = flags.GetBool("continuous_training", false);
  static constexpr const char* kCtOnlyFlags[] = {
      "step_every",    "refit_every",     "min_fit",
      "min_shadow",    "promote_epsilon", "cost_budget",
      "ct_trees",      "ct_seed",         "ct_buffer",
      "drift_window",  "drift_threshold", "drift_degraded_rate",
  };
  if (!config.ct.enabled) {
    for (const char* name : kCtOnlyFlags) {
      if (flags.Has(name)) {
        return Status::InvalidArgument(
            StrPrintf("--%s requires --continuous_training", name));
      }
    }
    return config;
  }

  ContinuousTrainingConfig& ct = config.ct;
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "step_every", ct.step_every, 1, &ct.step_every));
  TRAJKIT_RETURN_IF_ERROR(ReadInt(flags, "refit_every", ct.refit_every,
                                  ct.step_every, &ct.refit_every));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "min_fit", ct.min_fit, 1, &ct.min_fit));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "min_shadow", ct.min_shadow, 1, &ct.min_shadow));

  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "promote_epsilon",
                                     ct.promote_epsilon, kAny,
                                     &ct.promote_epsilon));
  TRAJKIT_RETURN_IF_ERROR(
      ReadDouble(flags, "cost_budget", ct.cost_budget, kAny, &ct.cost_budget));
  if (ct.cost_budget <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--cost_budget must be > 0 (got %g)", ct.cost_budget));
  }

  TRAJKIT_RETURN_IF_ERROR(ReadInt(flags, "ct_trees", ct.trees, 1, &ct.trees));
  TRAJKIT_RETURN_IF_ERROR(ReadUint64(flags, "ct_seed", ct.seed, &ct.seed));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "ct_buffer", ct.buffer, ct.min_fit, &ct.buffer));
  TRAJKIT_RETURN_IF_ERROR(
      ReadInt(flags, "drift_window", ct.drift_window, 1, &ct.drift_window));

  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "drift_threshold",
                                     ct.drift_threshold, kAny,
                                     &ct.drift_threshold));
  if (ct.drift_threshold <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--drift_threshold must be > 0 (got %g)", ct.drift_threshold));
  }

  TRAJKIT_RETURN_IF_ERROR(ReadDouble(flags, "drift_degraded_rate",
                                     ct.drift_degraded_rate, 0.0,
                                     &ct.drift_degraded_rate));
  if (ct.drift_degraded_rate > 1.0) {
    return Status::InvalidArgument(
        StrPrintf("--drift_degraded_rate must be in [0, 1] (got %g)",
                  ct.drift_degraded_rate));
  }

  return config;
}

}  // namespace trajkit::serve
