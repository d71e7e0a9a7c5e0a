#include "serve/serve_config.h"

#include <utility>

#include "common/strings.h"

namespace trajkit::serve {

ServeConfig ServeReplayDefaults() {
  // Historic serve-replay defaults: unbounded queue, single shard, no
  // deadline/retries/chaos; synthetic fallback corpus is 20 users x 4
  // days.
  return ServeConfig();
}

ServeConfig StatuszDefaults() {
  // Historic statusz demo defaults: a small chaotic sharded run whose
  // artifacts exercise every section of the page, with a p99 latency
  // ceiling and a shed-rate ceiling as its SLOs.
  ServeConfig defaults;
  defaults.users = 6;
  defaults.days = 2;
  defaults.batch = 16;
  defaults.max_delay_ms = 1.0;
  defaults.max_queue = 32;
  defaults.shards = 2;
  defaults.deadline_ms = 50.0;
  defaults.retries = 1;
  defaults.fault_spec_text =
      "swap_stall:p=0.15,latency_ms=2;predict_fail:p=0.15;"
      "batch_delay:p=0.2,latency_ms=1;seed=11";
  defaults.slo_spec_text =
      "latency_p99:type=latency,metric=serve.batch_predictor.latency_seconds,"
      "ceiling_ms=50,budget=0.05,fast=4,slow=16;"
      "shed:type=ratio,bad=serve.shed_total.queue_full+"
      "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
      "budget=0.02,fast=4,slow=16";
  return defaults;
}

ServeConfig MicroServeDefaults() {
  // Historic micro_serve defaults: 30 users x 4 days, a 50-tree forest,
  // no chaos.
  ServeConfig defaults;
  defaults.users = 30;
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

synthgeo::GeneratorOptions ServeConfig::MakeCorpusOptions() const {
  return {.num_users = users, .days_per_user = days, .seed = seed};
}

BatchPredictorOptions ServeConfig::MakeBatchingOptions() const {
  BatchPredictorOptions batching;
  batching.max_batch_size = batch;
  batching.max_delay_seconds = max_delay_ms * 1e-3;
  batching.max_queue = max_queue;
  return batching;
}

ServingPlaneOptions ServeConfig::MakePlaneOptions() const {
  ServingPlaneOptions plane;
  plane.shards = shards;
  plane.session.segmentation.max_gap_seconds = gap_seconds;
  plane.session.max_segment_points = max_window;
  plane.batching = MakeBatchingOptions();
  return plane;
}

ReplayOptions ServeConfig::MakeReplayOptions() const {
  ReplayOptions replay;
  replay.deadline_seconds = deadline_ms * 1e-3;
  replay.retry_budget = retries;
  return replay;
}

Result<ServeConfig> ParseServeFlags(const Flags& flags,
                                    const ServeConfig& defaults) {
  // Counts keep the int range they always had, so a value past INT_MAX is
  // an error rather than an enormous shard or batch count.
  const auto count = [&flags](const char* name, size_t fallback,
                              size_t lo) {
    return static_cast<size_t>(flags.GetInt(
        name, static_cast<int>(fallback), static_cast<int>(lo)));
  };
  ServeConfig config = defaults;
  config.fault_spec.reset();  // Both are parsed from the texts below.
  config.slo_specs.clear();
  const synthgeo::GeneratorOptions corpus =
      synthgeo::GeneratorOptionsFromFlags(flags, defaults.MakeCorpusOptions());
  config.users = corpus.num_users;
  config.days = corpus.days_per_user;
  config.seed = corpus.seed;
  config.trees = flags.GetInt("trees", defaults.trees, 1);
  config.batch = count("batch", defaults.batch, 1);
  config.max_delay_ms =
      flags.GetDouble("max_delay_ms", defaults.max_delay_ms, 0.0);
  config.max_queue = count("max_queue", defaults.max_queue, 0);
  config.shards = count("shards", defaults.shards, 1);
  config.gap_seconds = flags.GetDouble("gap", defaults.gap_seconds, 0.0);
  config.max_window = count("max_window", defaults.max_window, 0);
  config.deadline_ms =
      flags.GetDouble("deadline_ms", defaults.deadline_ms, 0.0);
  config.retries = flags.GetInt("retries", defaults.retries, 0);
  // An explicit --fault_spec (even an empty one, which disables the
  // entry point's default chaos) beats the defaults.
  config.fault_spec_text =
      flags.GetString("fault_spec", defaults.fault_spec_text);
  config.http_port = flags.GetInt("http_port", defaults.http_port, -1, 65535);
  config.http_linger = flags.GetBool("http_linger", defaults.http_linger);
  config.slo_spec_text = flags.GetString("slo_spec", defaults.slo_spec_text);
  config.timeseries_capacity =
      count("timeseries_capacity", defaults.timeseries_capacity, 2);
  config.tick_every = count("tick_every", defaults.tick_every, 1);
  config.ct.enabled =
      flags.GetBool("continuous_training", defaults.ct.enabled);
  TRAJKIT_RETURN_IF_ERROR(flags.status());

  if (!config.fault_spec_text.empty()) {
    auto spec = FaultSpec::Parse(config.fault_spec_text);
    if (!spec.ok()) {
      return Status::InvalidArgument(
          StrPrintf("--fault_spec: %s", spec.status().message().c_str()));
    }
    config.fault_spec = spec.value();
  }
  if (config.http_linger && config.http_port < 0) {
    return Status::InvalidArgument("--http_linger requires --http_port");
  }
  if (!config.slo_spec_text.empty()) {
    std::string error;
    if (!obs::ParseSloSpecs(config.slo_spec_text, &config.slo_specs,
                            &error)) {
      return Status::InvalidArgument(
          StrPrintf("--slo_spec: %s", error.c_str()));
    }
  }

  // Continuous training: every knob requires the main switch, so a typo'd
  // or stray CT flag fails loudly instead of silently doing nothing.
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

  // Bounds that depend on another flag apply to the defaults too: a
  // --step_every above the default --refit_every is an error.
  ContinuousTrainingConfig& ct = config.ct;
  ct.step_every = count("step_every", ct.step_every, 1);
  ct.refit_every = count("refit_every", ct.refit_every, ct.step_every);
  ct.min_fit = count("min_fit", ct.min_fit, 1);
  ct.min_shadow = count("min_shadow", ct.min_shadow, 1);
  ct.promote_epsilon = flags.GetDouble("promote_epsilon", ct.promote_epsilon);
  ct.cost_budget = flags.GetDouble("cost_budget", ct.cost_budget);
  ct.trees = flags.GetInt("ct_trees", ct.trees, 1);
  ct.seed = flags.GetUint64("ct_seed", ct.seed);
  ct.buffer = count("ct_buffer", ct.buffer, ct.min_fit);
  ct.drift_window = count("drift_window", ct.drift_window, 1);
  ct.drift_threshold = flags.GetDouble("drift_threshold", ct.drift_threshold);
  ct.drift_degraded_rate =
      flags.GetDouble("drift_degraded_rate", ct.drift_degraded_rate, 0.0, 1.0);
  TRAJKIT_RETURN_IF_ERROR(flags.status());
  // Open lower bounds, which an inclusive range cannot state.
  if (ct.cost_budget <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--cost_budget must be > 0 (got %g)", ct.cost_budget));
  }
  if (ct.drift_threshold <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--drift_threshold must be > 0 (got %g)", ct.drift_threshold));
  }
  return config;
}

}  // namespace trajkit::serve
