#ifndef TRAJKIT_SERVE_SERVE_CONFIG_H_
#define TRAJKIT_SERVE_SERVE_CONFIG_H_

// The serving flags of `serve-replay`, `statusz`, and `micro_serve`:
// ParseServeFlags reads them through Flags (which checks each value) into
// a ServeConfig and adds the rules that span flags. Entry points differ
// only in the ServeConfig of defaults they pass.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "obs/slo.h"
#include "serve/batch_predictor.h"
#include "serve/continuous_training.h"
#include "serve/fault_injector.h"
#include "serve/replay.h"
#include "serve/serving_plane.h"
#include "synthgeo/generator.h"

namespace trajkit::serve {

/// The --continuous_training flag family (all require the main switch).
struct ContinuousTrainingConfig {
  bool enabled = false;
  size_t step_every = 16;     ///< --step_every
  size_t refit_every = 48;    ///< --refit_every
  size_t min_fit = 48;        ///< --min_fit
  size_t min_shadow = 32;     ///< --min_shadow (promotion window samples)
  double promote_epsilon = 0.0;  ///< --promote_epsilon
  double cost_budget = 4.0;   ///< --cost_budget (flat node-count ratio)
  int trees = 15;             ///< --ct_trees (candidate forest size)
  uint64_t seed = 42;         ///< --ct_seed (candidate seed base)
  size_t buffer = 4096;       ///< --ct_buffer (labeled-example capacity)
  size_t drift_window = 128;  ///< --drift_window
  double drift_threshold = 8.0;      ///< --drift_threshold (baseline sigmas)
  double drift_degraded_rate = 0.0;  ///< --drift_degraded_rate (0 = off)

  ContinuousTrainingOptions MakeOptions() const;
};

/// Validated serving configuration shared by the three entry points.
struct ServeConfig {
  // Synthetic-corpus + training shape (entry points that generate/train).
  int users = 20;
  int days = 4;
  uint64_t seed = 7;
  int trees = 15;

  // Batching + admission.
  size_t batch = 64;
  double max_delay_ms = 2.0;
  size_t max_queue = 0;

  // Plane + session layer.
  size_t shards = 1;
  double gap_seconds = 0.0;
  size_t max_window = 0;

  // Request lifecycle.
  double deadline_ms = 0.0;
  int retries = 0;

  // Chaos. `fault_spec` is parsed from `fault_spec_text` (empty = off; a
  // default spec stays on unless --fault_spec= is given empty); the
  // FaultInjector itself is built by the caller so its lifetime can
  // outlive the plane.
  std::string fault_spec_text;
  std::optional<FaultSpec> fault_spec;

  // Telemetry plane. `slo_specs` is parsed from `slo_spec_text`; the
  // TimeSeriesStore / SloEngine / HttpExportServer themselves are built
  // by the caller (their lifetimes span the replay).
  int http_port = -1;        ///< --http_port: -1 = no server, 0 = ephemeral.
  bool http_linger = false;  ///< --http_linger: serve until /quitquitquit.
  std::string slo_spec_text;
  std::vector<obs::SloSpec> slo_specs;
  size_t timeseries_capacity = 512;  ///< --timeseries_capacity
  size_t tick_every = 64;            ///< --tick_every (segments per tick)

  /// True when any telemetry surface was requested (ticks are armed).
  bool telemetry_enabled() const {
    return http_port >= 0 || !slo_specs.empty();
  }

  ContinuousTrainingConfig ct;

  /// The synthetic corpus of entry points that generate one.
  synthgeo::GeneratorOptions MakeCorpusOptions() const;
  /// Batching options (fault injector / label prior / shadow evaluator
  /// are wired by the caller).
  BatchPredictorOptions MakeBatchingOptions() const;
  /// Plane options embedding MakeBatchingOptions().
  ServingPlaneOptions MakePlaneOptions() const;
  /// Replay options (closed_sink / trainer are wired by the caller).
  ReplayOptions MakeReplayOptions() const;
};

/// Per-entry-point defaults: what each entry point used before the
/// consolidation, so flagless invocations behave identically.
ServeConfig ServeReplayDefaults();
ServeConfig StatuszDefaults();
ServeConfig MicroServeDefaults();

/// Reads the serving flags over an entry point's defaults. Value errors
/// come from Flags; the cross-flag rules are checked here (a CT flag
/// without --continuous_training, --http_linger without --http_port,
/// --refit_every below --step_every, ...). Errors are InvalidArgument
/// naming the offending flag.
Result<ServeConfig> ParseServeFlags(const Flags& flags,
                                    const ServeConfig& defaults);

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SERVE_CONFIG_H_
