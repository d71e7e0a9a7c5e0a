// trajkit — command-line front end for the library's end-to-end workflow:
//
//   trajkit generate  --out=DIR [--users=N] [--days=D] [--seed=S]
//       Synthesize a GeoLife-like corpus and write it in the real GeoLife
//       directory layout (<out>/<user>/Trajectory/*.plt + labels.txt).
//
//   trajkit features  (--data=DIR | --synthetic) --out=FILE.csv
//                     [--labels=dabiri|endo|all] [--extended]
//                     [--windows=SECONDS] [--denoise]
//       Run the paper's pipeline (steps 1-3, optionally 6) and write the
//       feature matrix as CSV (with __label/__group columns).
//
//   trajkit train     --dataset=FILE.csv --model=FILE.model
//                     [--trees=50] [--balanced] [--seed=S]
//       Train a random forest on a feature CSV and save it.
//
//   trajkit evaluate  --dataset=FILE.csv [--classifier=random_forest]
//                     [--scheme=random|stratified|user|temporal]
//                     [--folds=5]
//                     [--scale=1.0] [--seed=S]
//       Cross-validated evaluation with a full classification report.
//
//   trajkit predict   --dataset=FILE.csv --model=FILE.model
//                     [--output=FILE.csv]
//       Load a saved forest, predict, and (when labels are present)
//       report accuracy and a confusion matrix. --output writes every
//       prediction (sample id, class, per-class probabilities) as CSV;
//       stdout keeps a short preview.
//
//   trajkit serve-replay  (--data=DIR | --synthetic) --model=FILE.model
//                     [--labels=dabiri|endo|all] [--batch=64]
//                     [--max_delay_ms=2] [--gap=SECONDS]
//                     [--max_window=N] [--shards=1]
//                     [--subset=FILE.csv --method=importance --top_k=20]
//                     [--deadline_ms=D] [--max_queue=N] [--retries=R]
//                     [--fault_spec=SPEC]
//                     [--continuous_training [--step_every=16]
//                      [--refit_every=48] [--min_fit=48] [--min_shadow=32]
//                      [--promote_epsilon=E] [--cost_budget=R]
//                      [--ct_trees=T] [--ct_seed=S] [--ct_buffer=N]
//                      [--drift_window=N] [--drift_threshold=SIGMAS]
//                      [--drift_degraded_rate=F]]
//                     [--metrics_json=FILE] [--metrics_prom=FILE]
//                     [--timeseries_json=FILE] [--tick_every=64]
//                     [--timeseries_capacity=512] [--slo_spec=SPEC]
//                     [--http_port=P [--http_linger]]
//                     [--trace_json=FILE] [--trace_test=FILE]
//                     [--trace_sample=N] [--trace_buffer=M]
//                     [--store_out=FILE] [--predictions_out=FILE]
//       Replay a corpus through the online serving stack (streaming
//       sessions -> incremental features -> micro-batched prediction) in
//       global timestamp order and compare the accuracy against the
//       offline pipeline on identically-segmented data.
//       --shards=N routes users onto N serving shards by hash(user_id);
//       the output is byte-identical at any shard count: CI diffs the
//       per-segment true/predicted classes (close order) that
//       --predictions_out writes as CSV.
//       --deadline_ms, --max_queue (admission control sheds lowest
//       priority first) and --retries shape each request's lifecycle;
//       --fault_spec injects deterministic chaos, e.g.
//       "swap_stall:p=0.01,latency_ms=50;predict_fail:p=0.02;seed=1"
//       (serve/fault_injector.h). Every submitted request is accounted
//       exactly once (evaluated, possibly degraded, shed, or
//       deadline-exceeded) or the command fails.
//       --metrics_json / --metrics_prom dump the metrics registry;
//       --trace_json dumps the request flight recorder as Chrome
//       trace-event JSON, --trace_test its rank-timestamp form,
//       --trace_sample=N head-samples every Nth request (bad outcomes are
//       always kept) and --trace_buffer=M sizes the per-thread ring.
//       The telemetry plane samples the registry into rings of
//       --timeseries_capacity ticks, one tick per --tick_every closed
//       segments, so the history is byte-identical at any thread/shard
//       count; --timeseries_json dumps it and --slo_spec declares
//       burn-rate objectives over it (obs/slo.h grammar). --http_port=P
//       serves /metrics, /metrics.json, /timeseries.json, /statusz,
//       /healthz and /tracez on 127.0.0.1:P during the replay (0 picks a
//       free port); --http_linger keeps serving the post-run snapshot
//       until GET /quitquitquit. --store_out=FILE persists every closed
//       segment with its resolved prediction for `trajkit query`.
//       --continuous_training (serve/continuous_training.h) refits on
//       labeled closed segments, scores candidates in the registry's
//       shadow slot, and promotes or retires each one by the policy
//       (--promote_epsilon accuracy delta over a --min_shadow window,
//       --cost_budget node-count ratio); drift (--drift_window,
//       --drift_threshold, --drift_degraded_rate) forces early refits.
//       Trainer steps run only at drained barriers, so the output stays
//       byte-identical; the offline-parity check is skipped. A CT flag
//       without --continuous_training is an error.
//
//   trajkit query     --store=FILE [--bbox=MINLAT,MINLON,MAXLAT,MAXLON]
//                     [--time=BEGIN,END] [--mode=walk,bus,...]
//                     [--user=ID] [--hotspots=CELL_DEG] [--k=10]
//                     [--str] [--oracle] [--limit=20]
//       Answer spatio-temporal queries over a trajectory store written by
//       `serve-replay --store_out` (src/store/): the default is a
//       bbox/time/mode scan through the bulk-loaded spatial index,
//       --user lists one user's history, and --hotspots aggregates the
//       top-k cells of a uniform CELL_DEG-degree grid. --oracle re-runs
//       the query through the brute-force scan and fails unless both
//       answers are byte-identical; --str packs the index with
//       Sort-Tile-Recursive instead of the Hilbert curve.
//
//   trajkit statusz   [--users=N] [--days=D] [--seed=S] [--trees=T]
//                     [--shards=2]
//                     [--batch=..] [--deadline_ms=..] [--max_queue=..]
//                     [--retries=..] [--fault_spec=SPEC | --fault_spec=]
//                     [--continuous_training [--step_every=..] ...]
//                     [--metrics_json/--metrics_prom/--trace_json/...]
//       Self-contained serving demo that prints the text status page:
//       train a small forest on a synthetic corpus, replay it through the
//       serving stack (chaos on by default so every section is
//       populated; --fault_spec= turns it off), then render active model
//       version, queue depth, shed/degraded/fault counters, latency
//       quantiles with exemplar trace ids, and the last tail-kept traces.
//       With --continuous_training (same flag family as serve-replay) the
//       page adds the shadow-scoring, continuous-training, and
//       registry-audit sections. Every section always renders — subsystems
//       that emitted nothing show "(no data)". The demo arms the live
//       telemetry plane (a built-in latency+shed --slo_spec unless one is
//       given), so the slo section and per-series sparklines render too.
//
// Every command also accepts --threads=N to bound the shared worker pool
// (default: TRAJKIT_THREADS env var, else hardware concurrency). Results
// are bit-identical at any thread count. Flags are checked before any
// work (common/flags.h): a malformed, non-finite, out-of-range or unknown
// flag exits 2 with a message naming it.

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/harness_options.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "geolife/geolife_reader.h"
#include "ml/crossval.h"
#include "ml/dataset_io.h"
#include "ml/factory.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/batch_predictor.h"
#include "serve/continuous_training.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serve_config.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/statusz.h"
#include "store/trajectory_store.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

constexpr char kUsage[] =
    "usage: trajkit "
    "<generate|features|train|evaluate|predict|serve-replay|query|statusz> "
    "[--flags]\n"
    "see the header of tools/trajkit_cli.cc for each command's flags\n";

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

/// Ends a command's flag reading, before it does any work: a malformed,
/// out-of-range or unknown flag exits 2 naming it. Then applies --threads.
void StartCommand(const Flags& flags, const HarnessOptions& harness) {
  flags.CheckOrExit();
  harness.ApplyThreads();
}

/// A flag the command cannot run with (a required one missing, or a value
/// with its own grammar that does not parse): reports it and returns exit
/// code 2.
int FlagError(const std::string& message) {
  std::fprintf(stderr, "trajkit: %s\n", message.c_str());
  return 2;
}

Result<core::LabelSet> LabelSetFromFlags(const Flags& flags) {
  const std::string name = flags.GetString("labels", "dabiri");
  if (name == "dabiri") return core::LabelSet::Dabiri();
  if (name == "endo") return core::LabelSet::Endo();
  if (name == "all") return core::LabelSet::AllModes();
  return Status::InvalidArgument("--labels=" + name +
                                 " is not dabiri, endo or all");
}

/// The corpus of `features` and `serve-replay`: the GeoLife directory
/// --data names, else a synthetic one.
Result<std::vector<traj::Trajectory>> LoadCorpus(
    const std::string& data, const synthgeo::GeneratorOptions& synthetic) {
  if (!data.empty()) return geolife::LoadGeoLifeCorpus(data);
  synthgeo::GeoLifeLikeGenerator generator(synthetic);
  std::vector<traj::Trajectory> corpus = generator.Generate();
  std::printf("(no --data; generated a synthetic corpus: %zu points)\n",
              generator.summary().total_points);
  return corpus;
}

/// Point counts per class of the corpus annotations: the label prior of
/// the degradation chain's last rung, for chaos runs.
std::vector<double> LabelPrior(const std::vector<traj::Trajectory>& corpus,
                               const core::LabelSet& labels) {
  std::vector<double> prior(static_cast<size_t>(labels.num_classes()), 0.0);
  for (const traj::Trajectory& trajectory : corpus) {
    for (const traj::TrajectoryPoint& point : trajectory.points) {
      const int cls = labels.ClassOf(point.mode);
      if (cls >= 0) prior[static_cast<size_t>(cls)] += 1.0;
    }
  }
  return prior;
}

/// A replay sink that files every closed segment in `segments` under its
/// resolved prediction (segments never predicted keep their annotated
/// mode).
auto StoreSink(store::TrajectoryStore* segments, const core::LabelSet* labels) {
  return [segments, labels](const serve::ClosedSegment& segment,
                            int predicted_class) {
    const traj::Mode predicted = predicted_class >= 0
                                     ? labels->ModeOf(predicted_class)
                                     : segment.mode;
    segments->Ingest(store::FromClosedSegment(segment, predicted));
  };
}

int RunGenerate(const Flags& flags, const HarnessOptions& harness) {
  const std::string out = flags.GetString("out", "");
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(
          flags, serve::ServeReplayDefaults().MakeCorpusOptions());
  StartCommand(flags, harness);
  if (out.empty()) return FlagError("generate: --out=DIR is required");
  synthgeo::GeoLifeLikeGenerator generator(corpus_options);
  Stopwatch timer;
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  const Status status = geolife::ExportGeoLifeCorpus(corpus, out);
  if (!status.ok()) return Fail(status, "export");
  std::printf("%s", generator.summary().ToString().c_str());
  std::printf("wrote %zu users to %s (%.1fs)\n", corpus.size(), out.c_str(),
              timer.ElapsedSeconds());
  return 0;
}

int RunFeatures(const Flags& flags, const HarnessOptions& harness) {
  const std::string out = flags.GetString("out", "");
  const std::string data = flags.GetString("data", "");
  // --synthetic spells out the default: no --data.
  flags.GetBool("synthetic", false);
  const synthgeo::GeneratorOptions corpus_options =
      synthgeo::GeneratorOptionsFromFlags(
          flags, serve::ServeReplayDefaults().MakeCorpusOptions());
  auto labels = LabelSetFromFlags(flags);
  core::PipelineOptions options;
  options.remove_noise = flags.GetBool("denoise", false);
  options.include_extended_features = flags.GetBool("extended", false);
  if (flags.Has("windows")) {
    options.strategy = core::SegmentationStrategy::kFixedWindows;
    options.windows.window_seconds = flags.GetDouble("windows", 180.0);
  }
  StartCommand(flags, harness);
  if (out.empty()) return FlagError("features: --out=FILE.csv is required");
  if (!labels.ok()) return FlagError(labels.status().message());
  const auto corpus = LoadCorpus(data, corpus_options);
  if (!corpus.ok()) return Fail(corpus.status(), "GeoLife load");

  const core::Pipeline pipeline(options);
  auto dataset = pipeline.BuildDataset(*corpus, labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "pipeline");

  const Status status = ml::SaveDatasetCsv(dataset.value(), out);
  if (!status.ok()) return Fail(status, "CSV write");
  std::printf("wrote %zu segments x %zu features to %s\n",
              dataset->num_samples(), dataset->num_features(), out.c_str());
  return 0;
}

int RunTrain(const Flags& flags, const HarnessOptions& harness) {
  const std::string dataset_path = flags.GetString("dataset", "");
  const std::string model_path = flags.GetString("model", "");
  ml::RandomForestParams params;
  params.n_estimators = flags.GetInt("trees", 50, 1);
  params.balanced_class_weights = flags.GetBool("balanced", false);
  params.seed = flags.GetUint64("seed", 42);
  StartCommand(flags, harness);
  if (dataset_path.empty() || model_path.empty()) {
    return FlagError("train: --dataset=FILE.csv and --model=FILE are required");
  }
  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");

  ml::RandomForest forest(params);
  Stopwatch timer;
  const Status fit = forest.Fit(dataset.value());
  if (!fit.ok()) return Fail(fit, "training");
  const Status save = ml::SaveRandomForest(forest, model_path);
  if (!save.ok()) return Fail(save, "model save");
  std::printf(
      "trained random forest (%d trees) on %zu samples in %.1fs -> %s\n",
      params.n_estimators, dataset->num_samples(), timer.ElapsedSeconds(),
      model_path.c_str());
  return 0;
}

int RunEvaluate(const Flags& flags, const HarnessOptions& harness) {
  const std::string dataset_path = flags.GetString("dataset", "");
  const std::string classifier_name =
      flags.GetString("classifier", "random_forest");
  const uint64_t seed = flags.GetUint64("seed", 42);
  const double scale = flags.GetDouble("scale", 1.0, 0.0);
  auto scheme = core::CvSchemeFromString(flags.GetString("scheme", "random"));
  const int folds = flags.GetInt("folds", 5, 2);
  StartCommand(flags, harness);
  if (dataset_path.empty()) {
    return FlagError("evaluate: --dataset=FILE.csv is required");
  }
  if (!scheme.ok()) return FlagError("--scheme: " + scheme.status().message());
  auto model = ml::MakeClassifier(classifier_name,
                                  {.seed = seed, .scale = scale});
  if (!model.ok()) {
    return FlagError("--classifier: " + model.status().message());
  }
  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");

  const auto cv_folds =
      core::MakeFolds(scheme.value(), dataset.value(), folds, seed);
  Stopwatch timer;
  const auto cv = ml::CrossValidate(*model.value(), dataset.value(),
                                    cv_folds);
  if (!cv.ok()) return Fail(cv.status(), "cross-validation");

  std::printf("%s, %s %d-fold CV on %zu samples (%.1fs)\n",
              classifier_name.c_str(),
              std::string(core::CvSchemeToString(scheme.value())).c_str(),
              folds, dataset->num_samples(), timer.ElapsedSeconds());
  std::printf("accuracy: %.4f ± %.4f   weighted F1: %.4f\n",
              cv->MeanAccuracy(), cv->StdAccuracy(), cv->MeanWeightedF1());
  std::printf("cohen's kappa: %.4f   balanced accuracy: %.4f\n",
              ml::CohensKappa(cv->pooled_true, cv->pooled_pred,
                              dataset->num_classes()),
              ml::BalancedAccuracy(cv->pooled_true, cv->pooled_pred,
                                   dataset->num_classes()));
  const ml::ClassificationReport report = ml::Evaluate(
      cv->pooled_true, cv->pooled_pred, dataset->num_classes());
  std::printf("%s", report.ToString(dataset->class_names()).c_str());
  return 0;
}

int RunPredict(const Flags& flags, const HarnessOptions& harness) {
  const std::string dataset_path = flags.GetString("dataset", "");
  const std::string model_path = flags.GetString("model", "");
  const std::string output = flags.GetString("output", "");
  StartCommand(flags, harness);
  if (dataset_path.empty() || model_path.empty()) {
    return FlagError(
        "predict: --dataset=FILE.csv and --model=FILE are required");
  }
  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");
  auto forest = ml::LoadRandomForest(model_path);
  if (!forest.ok()) return Fail(forest.status(), "model load");

  const std::vector<int> predictions =
      forest->Predict(dataset->features());
  size_t shown = 0;
  for (size_t i = 0; i < predictions.size() && shown < 20; ++i, ++shown) {
    std::printf("sample %zu -> class %d\n", i, predictions[i]);
  }
  if (predictions.size() > 20) {
    std::printf("... (%zu predictions total)\n", predictions.size());
  }

  // --output writes the full prediction table (the stdout preview above is
  // capped at 20 rows).
  if (!output.empty()) {
    auto probabilities = forest->PredictProba(dataset->features());
    CsvTable table;
    table.header = {"sample", "predicted_class", "predicted_label"};
    const bool with_proba = probabilities.ok();
    if (with_proba) {
      for (const std::string& name : dataset->class_names()) {
        table.header.push_back("proba_" + name);
      }
    }
    table.rows.reserve(predictions.size());
    for (size_t i = 0; i < predictions.size(); ++i) {
      std::vector<std::string> row;
      row.push_back(StrPrintf("%zu", i));
      row.push_back(StrPrintf("%d", predictions[i]));
      row.push_back(dataset->class_names()[
          static_cast<size_t>(predictions[i])]);
      if (with_proba) {
        for (const double p : probabilities->Row(i)) {
          row.push_back(StrPrintf("%.17g", p));
        }
      }
      table.rows.push_back(std::move(row));
    }
    const Status write = WriteCsvFile(output, table);
    if (!write.ok()) return Fail(write, "prediction CSV write");
    std::printf("wrote all %zu predictions to %s\n", predictions.size(),
                output.c_str());
  }
  // When the CSV carries labels, report quality.
  const ml::ClassificationReport report = ml::Evaluate(
      dataset->labels(), predictions, dataset->num_classes());
  std::printf("\naccuracy vs. CSV labels: %.4f\n%s", report.accuracy,
              ml::ConfusionMatrix(dataset->labels(), predictions,
                                  dataset->num_classes())
                  .ToString(dataset->class_names())
                  .c_str());
  return 0;
}

int RunServeReplay(const Flags& flags, const HarnessOptions& harness) {
  const std::string model_path = flags.GetString("model", "");
  auto config_or =
      serve::ParseServeFlags(flags, serve::ServeReplayDefaults());
  const std::string data = flags.GetString("data", "");
  // --synthetic spells out the default: no --data.
  flags.GetBool("synthetic", false);
  auto labels = LabelSetFromFlags(flags);
  const std::string subset_path = flags.GetString("subset", "");
  const std::string subset_method = flags.GetString("method", "importance");
  const int top_k = flags.GetInt("top_k", 20, 1);
  const std::string store_out = flags.GetString("store_out", "");
  const std::string predictions_out = flags.GetString("predictions_out", "");
  if (!config_or.ok()) return FlagError(config_or.status().message());
  StartCommand(flags, harness);
  const serve::ServeConfig& config = config_or.value();
  if (model_path.empty()) {
    return FlagError("serve-replay: --model=FILE.model is required");
  }
  if (!labels.ok()) return FlagError(labels.status().message());

  // Tracing must be armed before the registry activates the model so the
  // "registry_swap" landmark lands in the recorder.
  harness.ConfigureTracing();

  auto loaded = LoadCorpus(data, config.MakeCorpusOptions());
  if (!loaded.ok()) return Fail(loaded.status(), "GeoLife load");
  const std::vector<traj::Trajectory> corpus = std::move(loaded).value();

  auto forest = ml::LoadRandomForest(model_path);
  if (!forest.ok()) return Fail(forest.status(), "model load");

  // Optional Fig. 3 feature-subset mask: the forest was trained on the
  // top-k columns, requests carry the full 70-dim vector.
  std::vector<int> subset;
  if (!subset_path.empty()) {
    auto loaded =
        serve::LoadFig3FeatureSubset(subset_path, subset_method, top_k);
    if (!loaded.ok()) return Fail(loaded.status(), "feature subset");
    subset = std::move(loaded).value();
    std::printf("serving with a %zu-feature mask from %s\n", subset.size(),
                subset_path.c_str());
  }

  serve::ModelRegistry registry;
  {
    auto model = serve::MakeServingModel(
        "replay-v1", std::move(forest).value(),
        traj::kNumTrajectoryFeatures, subset);
    if (!model.ok()) return Fail(model.status(), "serving model");
    const Status status = registry.Publish(std::move(model).value());
    if (!status.ok()) return Fail(status, "registry");
  }

  serve::ServingPlaneOptions plane_options = config.MakePlaneOptions();

  // Deterministic chaos (--fault_spec): the injector must outlive the
  // predictor. Chaos runs also get the degradation chain's last rung, a
  // label prior counted from the replay corpus annotations, so a request
  // that exhausts its retry budget still resolves with an answer.
  std::optional<serve::FaultInjector> injector;
  if (config.fault_spec.has_value()) {
    injector.emplace(config.fault_spec.value());
    plane_options.batching.fault_injector = &*injector;
    plane_options.batching.label_prior = LabelPrior(corpus, *labels);
    std::printf("fault injection on: %s\n", config.fault_spec_text.c_str());
  }

  // --continuous_training: close the loop. The trainer owns the shadow
  // evaluator every shard's predictor scores into, and the replay drives
  // its step barriers (see serve/continuous_training.h for why the output
  // stays byte-identical at any thread/shard count).
  std::optional<serve::ContinuousTrainer> trainer;
  serve::ReplayOptions replay_options = config.MakeReplayOptions();
  if (config.ct.enabled) {
    trainer.emplace(&registry, labels.value(), config.ct.MakeOptions());
    plane_options.batching.shadow_evaluator = &trainer->evaluator();
    replay_options.trainer = &*trainer;
    std::printf("continuous training on: refit every %zu labeled "
                "segments, promotion window %zu\n",
                config.ct.refit_every, config.ct.min_shadow);
  }

  serve::ServingPlane plane(&registry, plane_options);

  // --store_out: persist every closed segment (keyed by its resolved
  // prediction; segments never predicted keep their annotated mode) as a
  // trajectory-store segment log the `query` subcommand reads back.
  std::optional<store::TrajectoryStore> trajectory_store;
  if (!store_out.empty()) {
    trajectory_store.emplace();
    replay_options.closed_sink = StoreSink(&*trajectory_store, &*labels);
  }

  // Telemetry plane (--http_port / --slo_spec / --timeseries_json): a
  // TimeSeriesStore (and SLO engine over it) ticked at replay barriers —
  // one tick per --tick_every closed segments, with every in-flight
  // request drained first, so the sampled series and SLO transitions are
  // byte-identical at any thread/shard count. The HTTP server exports
  // the same registry live while the replay runs.
  std::optional<obs::TimeSeriesStore> timeseries;
  std::optional<obs::SloEngine> slo;
  size_t tick_index = 0;
  if (config.telemetry_enabled() || !harness.timeseries_json.empty()) {
    obs::TimeSeriesOptions ts_options;
    ts_options.capacity = config.timeseries_capacity;
    timeseries.emplace(obs::MetricsRegistry::Global(), ts_options);
    // Default tracked series: the counters whose values are a pure
    // function of the corpus (the shard-determinism allowlist), so the
    // exported series stay byte-comparable across thread/shard counts.
    // SLO specs add whatever they reference on top.
    timeseries->TrackCounter("serve.sessions.points_ingested");
    timeseries->TrackCounter("serve.sessions.segments_emitted");
    timeseries->TrackCounter("serve.batch_predictor.requests");
    timeseries->TrackCounter("serve.shed_total.queue_full");
    timeseries->TrackCounter("serve.shed_total.preempted");
    timeseries->TrackCounter("serve.deadline_exceeded_total");
    timeseries->TrackCounter("serve.degraded_total.previous_model");
    timeseries->TrackCounter("serve.degraded_total.majority_class");
    if (!config.slo_specs.empty()) {
      slo.emplace(&*timeseries, &obs::MetricsRegistry::Global(),
                  config.slo_specs);
      std::printf("slo engine on: %zu objectives, tick every %zu "
                  "segments\n",
                  slo->specs().size(), config.tick_every);
    }
    replay_options.tick_every_segments = config.tick_every;
    replay_options.tick = [&timeseries, &slo, &tick_index] {
      timeseries->Tick(static_cast<double>(tick_index));
      if (slo.has_value()) slo->Evaluate(tick_index);
      ++tick_index;
    };
  }

  std::optional<obs::HttpExportServer> http;
  std::mutex quit_mu;
  std::condition_variable quit_cv;
  bool quit_requested = false;
  if (config.http_port >= 0) {
    obs::HttpExportOptions http_options;
    http_options.port = config.http_port;
    http_options.registry = &obs::MetricsRegistry::Global();
    http_options.timeseries =
        timeseries.has_value() ? &*timeseries : nullptr;
    http_options.slo = slo.has_value() ? &*slo : nullptr;
    if (harness.tracing_requested()) {
      http_options.tracer = &obs::RequestTracer::Global();
    }
    http_options.statusz = [&timeseries, &slo] {
      serve::StatusPageOptions page;
      page.timeseries = timeseries.has_value() ? &*timeseries : nullptr;
      page.slo = slo.has_value() ? &*slo : nullptr;
      return serve::RenderStatusPage(obs::MetricsRegistry::Global(),
                                     obs::RequestTracer::Global(), page);
    };
    if (config.http_linger) {
      http_options.on_quit = [&quit_mu, &quit_cv, &quit_requested] {
        std::lock_guard<std::mutex> lock(quit_mu);
        quit_requested = true;
        quit_cv.notify_all();
      };
    }
    http.emplace();
    std::string error;
    if (!http->Start(std::move(http_options), &error)) {
      std::fprintf(stderr, "serve-replay: --http_port: %s\n",
                   error.c_str());
      return 1;
    }
    // CI polls this line for the bound port, so flush past any pipe
    // buffering.
    std::printf("http: listening on 127.0.0.1:%d\n", http->port());
    std::fflush(stdout);
  }

  Stopwatch timer;
  auto report = serve::ReplayCorpus(corpus, labels.value(), plane,
                                    replay_options);
  if (!report.ok()) return Fail(report.status(), "replay");
  const double total_seconds = timer.ElapsedSeconds();

  const serve::BatchPredictor::Counters counters =
      plane.predictor_counters();
  std::printf(
      "replayed %zu points in %.2fs (%.0f points/s ingest, %zu shards)\n",
      report->points, total_seconds,
      report->ingest_seconds > 0.0
          ? static_cast<double>(report->points) / report->ingest_seconds
          : 0.0,
      plane.num_shards());
  std::printf(
      "segments: %zu closed, %zu evaluated, %zu outside label set\n",
      report->segments_closed, report->segments_evaluated,
      report->segments_outside_label_set);
  std::printf("batches: %zu (mean %.1f, max %zu requests)\n",
              counters.batches,
              counters.batches > 0
                  ? static_cast<double>(counters.requests) /
                        static_cast<double>(counters.batches)
                  : 0.0,
              counters.max_batch);
  std::printf("online accuracy:  %.4f (%zu/%zu)\n", report->accuracy(),
              report->correct, report->segments_evaluated);

  // Lifecycle accounting: every submitted request must have resolved
  // exactly one way — evaluated (possibly degraded), shed, or
  // deadline-exceeded. A leak here means a request was dropped or double
  // counted, which is a serving bug, so it fails the command.
  const size_t submitted =
      report->segments_closed - report->segments_outside_label_set;
  const size_t accounted = report->segments_evaluated + report->shed +
                           report->deadline_exceeded;
  std::printf(
      "lifecycle: %zu submitted = %zu evaluated (%zu degraded: "
      "previous_model=%zu, majority_class=%zu) + %zu shed "
      "+ %zu deadline-exceeded; %zu retries\n",
      submitted, report->segments_evaluated, report->degraded,
      report->degraded_previous_model, report->degraded_majority_class,
      report->shed, report->deadline_exceeded, report->retries);
  if (accounted != submitted) {
    std::fprintf(stderr,
                 "serve-replay: request accounting leak (%zu submitted, "
                 "%zu accounted)\n",
                 submitted, accounted);
    return 1;
  }

  // Telemetry summary + SLO transition log: tick positions are corpus
  // positions, so (for SLOs over deterministic counters) every line here
  // is byte-identical at any thread/shard count — the CI telemetry
  // determinism leg diffs the "slo:" lines across t1/t8 x s1/s8.
  if (timeseries.has_value()) {
    std::printf("telemetry: %zu ticks, %zu series (capacity %zu)\n",
                timeseries->tick_count(), timeseries->series_count(),
                timeseries->capacity());
  }
  if (slo.has_value()) {
    for (const std::string& line : slo->transition_log()) {
      std::printf("slo: %s\n", line.c_str());
    }
    for (const obs::SloState& state : slo->states()) {
      std::printf("slo: final %s %s burn_fast=%.6g burn_slow=%.6g "
                  "budget_remaining=%.6g transitions=%llu\n",
                  state.name.c_str(), state.breached ? "breach" : "ok",
                  state.burn_fast, state.burn_slow, state.budget_remaining,
                  static_cast<unsigned long long>(state.transitions));
    }
  }

  // Continuous-training summary: every number here is a deterministic
  // function of the corpus (the CI continuous-training matrix diffs this
  // line across thread/shard counts alongside the predictions CSV).
  if (trainer.has_value()) {
    const serve::ContinuousTrainer::Stats& training = trainer->stats();
    const std::shared_ptr<const serve::ServingModel> active =
        registry.Acquire().active;
    std::printf(
        "training: %zu steps, %zu refits (%zu completed, %zu failed), "
        "%zu shadows, %zu promotions, %zu rejections, %zu drift "
        "triggers; serving %s\n",
        training.steps, training.refits_launched,
        training.refits_completed, training.fit_failures,
        training.shadows_installed, training.promotions,
        training.rejections, training.drift_triggers,
        active != nullptr ? active->version.c_str() : "?");
  }

  if (trajectory_store.has_value()) {
    const Status status = trajectory_store->SaveTo(store_out);
    if (!status.ok()) return Fail(status, "store save");
    std::printf("store: %zu segments -> %s\n", trajectory_store->size(),
                store_out.c_str());
  }

  // --predictions_out: the per-segment true/predicted classes in close
  // order — the byte-comparable artifact of the CI shard-determinism
  // matrix (identical at any --shards value).
  if (!predictions_out.empty()) {
    CsvTable table;
    table.header = {"index", "true_class", "pred_class"};
    table.rows.reserve(report->y_true.size());
    for (size_t i = 0; i < report->y_true.size(); ++i) {
      table.rows.push_back({StrPrintf("%zu", i),
                            StrPrintf("%d", report->y_true[i]),
                            StrPrintf("%d", report->y_pred[i])});
    }
    const Status write = WriteCsvFile(predictions_out, table);
    if (!write.ok()) return Fail(write, "predictions CSV write");
    std::printf("predictions: %zu rows -> %s\n", table.rows.size(),
                predictions_out.c_str());
  }

  // The metrics/trace artifacts reflect the serving replay itself, so
  // dump them before the offline-comparison pipeline adds its own samples.
  if (!harness.WriteMetrics(timeseries.has_value() ? &*timeseries : nullptr)) {
    return 1;
  }
  if (!harness.DumpTrace()) return 1;

  // --http_linger: keep serving this exact post-replay snapshot until a
  // scraper hits /quitquitquit. Nothing mutates the registry between the
  // artifact dump above and here, so a /metrics scrape during the linger
  // is byte-identical to the --metrics_prom file (the CI scrape-smoke
  // leg compares them).
  if (http.has_value() && config.http_linger) {
    std::printf("http: lingering on 127.0.0.1:%d until /quitquitquit\n",
                http->port());
    std::fflush(stdout);
    std::unique_lock<std::mutex> lock(quit_mu);
    quit_cv.wait(lock, [&quit_requested] { return quit_requested; });
    std::printf("http: quit requested\n");
  }

  // Offline comparison: the batch pipeline on the same corpus with the
  // same segmentation rules, predicted through the same serving model.
  // The max-window rule has no offline counterpart, so skip when set;
  // chaos / deadline / shedding runs are not comparable either (requests
  // may be answered degraded or not at all).
  if (plane_options.session.max_segment_points > 0) {
    std::printf("(--max_window set: offline comparison skipped — the "
                "max-window rule has no offline counterpart)\n");
    return 0;
  }
  if (injector.has_value() || replay_options.deadline_seconds > 0.0 ||
      config.max_queue > 0) {
    std::printf("(chaos/deadline/admission flags set: offline comparison "
                "skipped — online answers are intentionally degraded)\n");
    return 0;
  }
  if (trainer.has_value()) {
    std::printf("(--continuous_training set: offline comparison skipped — "
                "the serving model evolves mid-replay)\n");
    return 0;
  }
  core::PipelineOptions pipeline_options;
  pipeline_options.segmentation.max_gap_seconds =
      plane_options.session.max_gap_seconds;
  const core::Pipeline pipeline(pipeline_options);
  auto dataset = pipeline.BuildDataset(corpus, labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "offline pipeline");
  const std::shared_ptr<const serve::ServingModel> model =
      registry.Acquire().active;
  std::vector<std::vector<double>> rows(dataset->num_samples());
  for (size_t r = 0; r < dataset->num_samples(); ++r) {
    const std::span<const double> row = dataset->features().Row(r);
    rows[r].assign(row.begin(), row.end());
  }
  auto offline = model->PredictBatch(rows);
  if (!offline.ok()) return Fail(offline.status(), "offline predict");
  size_t offline_correct = 0;
  for (size_t r = 0; r < offline->size(); ++r) {
    if ((*offline)[r].label == dataset->labels()[r]) ++offline_correct;
  }
  const double offline_accuracy =
      dataset->num_samples() == 0
          ? 0.0
          : static_cast<double>(offline_correct) /
                static_cast<double>(dataset->num_samples());
  std::printf("offline accuracy: %.4f (%zu/%zu)\n", offline_accuracy,
              offline_correct, dataset->num_samples());
  if (report->segments_evaluated == dataset->num_samples() &&
      report->correct == offline_correct) {
    std::printf("online == offline: segment count and accuracy match\n");
  } else {
    std::printf("WARNING: online and offline disagree (%zu vs %zu "
                "segments, %zu vs %zu correct)\n",
                report->segments_evaluated, dataset->num_samples(),
                report->correct, offline_correct);
  }
  return 0;
}

/// Parses a comma-separated list of exactly `expected` finite doubles; the
/// error names the flag `what`.
Result<std::vector<double>> ParseDoubleList(const std::string& text,
                                            size_t expected,
                                            const char* what) {
  const Status bad = Status::InvalidArgument(StrPrintf(
      "%s=%s is not %zu comma-separated finite numbers", what, text.c_str(),
      expected));
  std::vector<double> values;
  for (std::string_view field : SplitString(text, ',')) {
    auto value = ParseDouble(StripWhitespace(field));
    if (!value.ok() || !std::isfinite(*value)) return bad;
    values.push_back(*value);
  }
  if (values.size() != expected) return bad;
  return values;
}

void PrintSegmentRows(const store::TrajectoryStore& trajectory_store,
                      const std::vector<uint32_t>& ids, size_t limit) {
  std::printf("  %8s %8s %6s %6s %10s %10s %14s %14s %7s\n", "id", "session",
              "user", "day", "pred", "true", "start", "end", "points");
  const size_t show = ids.size() < limit ? ids.size() : limit;
  for (size_t i = 0; i < show; ++i) {
    const store::StoredSegment segment = trajectory_store.Segment(ids[i]);
    std::printf("  %8u %8lld %6d %6lld %10s %10s %14.0f %14.0f %7u\n",
                ids[i], static_cast<long long>(segment.session_id),
                segment.user_id, static_cast<long long>(segment.day),
                std::string(traj::ModeToString(segment.predicted_mode))
                    .c_str(),
                std::string(traj::ModeToString(segment.true_mode)).c_str(),
                segment.start_time, segment.end_time, segment.num_points);
  }
  if (ids.size() > show) {
    std::printf("  ... and %zu more (raise --limit to see them)\n",
                ids.size() - show);
  }
}

/// `trajkit query`: the read side. Loads a segment log written by
/// `serve-replay --store_out` and answers one of the three query shapes;
/// --oracle cross-checks the indexed answer against the brute-force scan.
int RunQuery(const Flags& flags, const HarnessOptions& harness) {
  const std::string store_path = flags.GetString("store", "");
  store::TrajectoryStoreOptions store_options;
  if (flags.GetBool("str", false)) {
    store_options.strategy = store::BulkLoadStrategy::kStr;
  }
  const std::string time_text = flags.GetString("time", "");
  const std::string mode_text = flags.GetString("mode", "");
  const std::string bbox_text = flags.GetString("bbox", "");
  const size_t limit = static_cast<size_t>(flags.GetInt("limit", 20, 0));
  const bool oracle = flags.GetBool("oracle", false);
  const bool by_user = flags.Has("user");
  const int32_t user_id = flags.GetInt("user", 0);
  const bool hotspots = flags.Has("hotspots");
  // Cells from 1e-9 degrees (about 0.1 mm) up to the whole globe keep
  // every cell index well inside int64.
  const double cell_deg = flags.GetDouble("hotspots", 0.01, 1e-9, 360.0);
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10, 0));
  StartCommand(flags, harness);
  if (store_path.empty()) return FlagError("query: --store=FILE is required");
  store::TimeRange time = store::TimeRange::All();
  if (flags.Has("time")) {
    auto values = ParseDoubleList(time_text, 2, "--time");
    if (!values.ok()) return FlagError(values.status().message());
    time.begin = values.value()[0];
    time.end = values.value()[1];
  }
  auto mask = store::ParseModeMask(mode_text);
  if (!mask.ok()) return FlagError("--mode: " + mask.status().message());
  geo::BoundingBox box;
  box.Extend(geo::LatLon{-90.0, -180.0});
  box.Extend(geo::LatLon{90.0, 180.0});
  if (flags.Has("bbox")) {
    auto values = ParseDoubleList(bbox_text, 4, "--bbox");
    if (!values.ok()) return FlagError(values.status().message());
    box = geo::BoundingBox();
    box.Extend(geo::LatLon{values.value()[0], values.value()[1]});
    box.Extend(geo::LatLon{values.value()[2], values.value()[3]});
  }

  store::TrajectoryStore trajectory_store(store_options);
  {
    const Status status = trajectory_store.Load(store_path);
    if (!status.ok()) return Fail(status, "store load");
  }
  std::printf("store: %zu segments from %s\n", trajectory_store.size(),
              store_path.c_str());

  if (by_user) {
    const std::vector<uint32_t> ids =
        trajectory_store.QueryUser(user_id, time);
    std::printf("user %d: %zu segments\n", user_id, ids.size());
    if (oracle &&
        ids != trajectory_store.QueryUserBruteForce(user_id, time)) {
      std::fprintf(stderr, "query: index disagrees with the oracle\n");
      return 1;
    }
    PrintSegmentRows(trajectory_store, ids, limit);
    if (oracle) std::printf("oracle check: identical\n");
    return 0;
  }

  if (hotspots) {
    const std::vector<store::HotspotCell> cells =
        trajectory_store.TopKHotspots(cell_deg, k, mask.value());
    std::printf("top %zu hotspot cells (%.4f deg grid)\n", cells.size(),
                cell_deg);
    if (oracle && cells != trajectory_store.TopKHotspotsBruteForce(
                               cell_deg, k, mask.value())) {
      std::fprintf(stderr, "query: index disagrees with the oracle\n");
      return 1;
    }
    std::printf("  %8s %8s %8s  %s\n", "cell_lat", "cell_lon", "count",
                "bounds (lat, lon)");
    for (const store::HotspotCell& cell : cells) {
      std::printf("  %8lld %8lld %8llu  [%.4f, %.4f] x [%.4f, %.4f]\n",
                  static_cast<long long>(cell.cell_lat),
                  static_cast<long long>(cell.cell_lon),
                  static_cast<unsigned long long>(cell.count),
                  cell.bounds.min_lat, cell.bounds.max_lat,
                  cell.bounds.min_lon, cell.bounds.max_lon);
    }
    if (oracle) std::printf("oracle check: identical\n");
    return 0;
  }

  const std::vector<uint32_t> ids =
      trajectory_store.QueryBBox(box, time, mask.value());
  std::printf("bbox [%.4f, %.4f] x [%.4f, %.4f]: %zu segments\n",
              box.min_lat, box.max_lat, box.min_lon, box.max_lon,
              ids.size());
  if (oracle &&
      ids != trajectory_store.QueryBBoxBruteForce(box, time, mask.value())) {
    std::fprintf(stderr, "query: index disagrees with the oracle\n");
    return 1;
  }
  PrintSegmentRows(trajectory_store, ids, limit);
  if (oracle) std::printf("oracle check: identical\n");
  const store::StoreStats stats = trajectory_store.stats();
  std::printf("index: %zu nodes, height %zu, %zu visited\n",
              stats.index_nodes, stats.index_height, stats.nodes_visited);
  return 0;
}

/// `trajkit statusz`: a self-contained serving demo that renders the
/// text status page. Everything runs in-process on a synthetic corpus —
/// generate, train a small forest, replay through the serving stack
/// (chaos + deadlines on by default so every section of the page is
/// populated), then print serve::RenderStatusPage. Pass --fault_spec=
/// (empty) for a clean, fault-free page.
int RunStatusz(const Flags& flags, const HarnessOptions& harness) {
  auto config_or = serve::ParseServeFlags(flags, serve::StatuszDefaults());
  auto labels = LabelSetFromFlags(flags);
  ml::RandomForestParams params;
  params.seed = flags.GetUint64("seed", 42);
  if (!config_or.ok()) return FlagError(config_or.status().message());
  StartCommand(flags, harness);
  const serve::ServeConfig& config = config_or.value();
  if (!labels.ok()) return FlagError(labels.status().message());
  params.n_estimators = config.trees;

  // The flight recorder is always on for statusz — the page's "retained
  // traces" section is the point — honoring --trace_sample/--trace_buffer.
  harness.ConfigureTracing(/*always=*/true);

  synthgeo::GeoLifeLikeGenerator generator(config.MakeCorpusOptions());
  const std::vector<traj::Trajectory> corpus = generator.Generate();

  const core::Pipeline pipeline{core::PipelineOptions{}};
  auto dataset = pipeline.BuildDataset(corpus, labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "pipeline");

  ml::RandomForest forest(params);
  const Status fit = forest.Fit(dataset.value());
  if (!fit.ok()) return Fail(fit, "training");

  serve::ModelRegistry registry;
  {
    auto model = serve::MakeServingModel("statusz-v1", std::move(forest),
                                         traj::kNumTrajectoryFeatures, {});
    if (!model.ok()) return Fail(model.status(), "serving model");
    const Status status = registry.Publish(std::move(model).value());
    if (!status.ok()) return Fail(status, "registry");
  }

  // Chaos defaults on (StatuszDefaults) so the faults / degraded /
  // retained-traces sections show live numbers; --fault_spec= (empty
  // value) turns it off. Two shards by default so the per-shard section
  // renders with real numbers.
  serve::ServingPlaneOptions plane_options = config.MakePlaneOptions();
  std::optional<serve::FaultInjector> injector;
  if (config.fault_spec.has_value()) {
    injector.emplace(config.fault_spec.value());
    plane_options.batching.fault_injector = &*injector;
    plane_options.batching.label_prior = LabelPrior(corpus, *labels);
  }

  serve::ReplayOptions replay_options = config.MakeReplayOptions();

  // --continuous_training: run the refit/shadow/promotion loop during the
  // demo replay so the page's shadow + registry-audit sections render
  // live numbers.
  std::optional<serve::ContinuousTrainer> trainer;
  if (config.ct.enabled) {
    trainer.emplace(&registry, labels.value(), config.ct.MakeOptions());
    plane_options.batching.shadow_evaluator = &trainer->evaluator();
    replay_options.trainer = &*trainer;
  }

  // The statusz demo always arms the telemetry plane so the page's slo +
  // timeseries sections render live sparklines. The objectives are
  // StatuszDefaults' p99 latency and shed-rate ceilings unless --slo_spec
  // replaces them.
  obs::TimeSeriesOptions ts_options;
  ts_options.capacity = config.timeseries_capacity;
  obs::TimeSeriesStore timeseries(obs::MetricsRegistry::Global(),
                                  ts_options);
  timeseries.TrackCounter("serve.sessions.points_ingested");
  timeseries.TrackCounter("serve.sessions.segments_emitted");
  timeseries.TrackCounter("serve.batch_predictor.requests");
  timeseries.TrackGauge("serve.sessions.active");
  timeseries.TrackHistogram("serve.batch_predictor.latency_seconds");
  obs::SloEngine slo(&timeseries, &obs::MetricsRegistry::Global(),
                     config.slo_specs);
  size_t tick_index = 0;
  replay_options.tick_every_segments = config.tick_every;
  replay_options.tick = [&timeseries, &slo, &tick_index] {
    timeseries.Tick(static_cast<double>(tick_index));
    slo.Evaluate(tick_index);
    ++tick_index;
  };

  serve::ServingPlane plane(&registry, plane_options);
  // Feed a trajectory store from the replay so the page's store section
  // renders live numbers, and touch each query path once.
  store::TrajectoryStore trajectory_store;
  replay_options.closed_sink = StoreSink(&trajectory_store, &*labels);
  auto report = serve::ReplayCorpus(corpus, labels.value(), plane,
                                    replay_options);
  if (!report.ok()) return Fail(report.status(), "replay");
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  (void)trajectory_store.QueryBBox(everywhere);
  (void)trajectory_store.TopKHotspots(/*cell_deg=*/0.01, /*k=*/5);

  serve::StatusPageOptions page;
  page.timeseries = &timeseries;
  page.slo = &slo;
  std::printf("%s", serve::RenderStatusPage(
                        obs::MetricsRegistry::Global(),
                        obs::RequestTracer::Global(), page)
                        .c_str());
  if (!harness.WriteMetrics(&timeseries)) return 1;
  if (!harness.DumpTrace()) return 1;
  return 0;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  // Every command honors the shared harness flags (common/harness_options):
  // --threads=N bounds the worker pool (0/absent keeps the process
  // default, which itself honors the TRAJKIT_THREADS environment
  // variable); --metrics_json is read by the commands that dump metrics.
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  const std::string& command = flags.positional().front();
  if (command == "generate") return RunGenerate(flags, harness);
  if (command == "features") return RunFeatures(flags, harness);
  if (command == "train") return RunTrain(flags, harness);
  if (command == "evaluate") return RunEvaluate(flags, harness);
  if (command == "predict") return RunPredict(flags, harness);
  if (command == "serve-replay") return RunServeReplay(flags, harness);
  if (command == "query") return RunQuery(flags, harness);
  if (command == "statusz") return RunStatusz(flags, harness);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
