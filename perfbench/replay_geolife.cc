// Workload replay_geolife: `serve-replay --store_out` as users run it.
//
// Set-up writes a GeoLife-scale synthetic corpus to disk in the GeoLife
// layout, trains the served model on a corpus drawn with another seed, and
// computes the offline reference predictions. One timed iteration loads the
// corpus with geolife::LoadGeoLifeCorpus, replays it through a 2-shard
// ServingPlane with serve::ReplayCorpus (telemetry ticks every 64 closed
// segments, every closed segment into a TrajectoryStore), saves and
// reloads the store, and answers a fixed, seeded set of bbox and user
// queries on the reloaded store. The loop is closed: one driver thread,
// as fast as possible.

#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "geolife/geolife_reader.h"
#include "serve/replay.h"
#include "serving.h"
#include "store/trajectory_store.h"

namespace perfbench {
namespace {

using namespace trajkit;

struct Query {
  bool by_user = false;
  int32_t user_id = 0;
  geo::BoundingBox box;
  store::TimeRange time;
  store::ModeMask mask = store::kAllModesMask;
};

struct Setup {
  std::string corpus_dir;
  std::string log_path;
  double corpus_mb = 0.0;
  std::unique_ptr<serve::ModelRegistry> registry;
  Predictions reference;
  std::vector<Query> queries;
};

/// What one timed iteration produced.
struct Iteration {
  double wall_s = 0.0;
  size_t points = 0;
  size_t segments_closed = 0;
  std::vector<double> close_to_predict_ms;
  std::vector<double> query_us;
  size_t requests = 0;
  size_t request_failures = 0;
  Predictions predictions;
  std::vector<std::vector<uint32_t>> answers;
  size_t query_nodes_visited = 0;
};

Status DoSetup(const Options& options, Setup* setup) {
  *setup = Setup{};  // A repeated set-up starts from nothing.
  setup->corpus_dir = options.work_dir + "/replay_geolife";
  setup->log_path = options.work_dir + "/replay_geolife.seglog";
  std::error_code error;
  std::filesystem::remove_all(setup->corpus_dir, error);
  TRAJKIT_RETURN_IF_ERROR(geolife::ExportGeoLifeCorpus(
      MakeCorpus(options.seed, options.tiny), setup->corpus_dir));
  uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(setup->corpus_dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  setup->corpus_mb = static_cast<double>(bytes) / 1e6;

  setup->registry = std::make_unique<serve::ModelRegistry>();
  TRAJKIT_RETURN_IF_ERROR(
      PublishServedModel(options.seed, options.tiny, setup->registry.get()));

  // The offline reference reads the corpus back from disk, exactly as the
  // timed run does (the .plt text rounds coordinates).
  TRAJKIT_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> corpus,
                           geolife::LoadGeoLifeCorpus(setup->corpus_dir));
  const core::Pipeline pipeline;
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      pipeline.BuildDataset(corpus, core::LabelSet::Dabiri()));
  std::vector<std::vector<double>> rows(dataset.num_samples());
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::span<const double> row = dataset.features().Row(r);
    rows[r].assign(row.begin(), row.end());
  }
  TRAJKIT_ASSIGN_OR_RETURN(
      std::vector<serve::Prediction> predicted,
      setup->registry->Acquire().active->PredictBatch(rows));
  setup->reference.clear();
  for (size_t r = 0; r < rows.size(); ++r) {
    setup->reference[{dataset.groups()[r], dataset.times()[r]}] =
        predicted[r].label;
  }

  // Queries: boxes of 0.5%..10% of the corpus extent per side, half of
  // them with a time window and a third with a mode mask, plus user
  // histories with and without a time window.
  geo::BoundingBox extent;
  double t_min = corpus.front().points.front().timestamp;
  double t_max = t_min;
  for (const traj::Trajectory& t : corpus) {
    for (const traj::TrajectoryPoint& p : t.points) {
      extent.Extend(p.pos);
      t_min = std::min(t_min, p.timestamp);
      t_max = std::max(t_max, p.timestamp);
    }
  }
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
  setup->queries.clear();
  constexpr int kQueries = 2048;
  for (int i = 0; i < kQueries; ++i) {
    Query query;
    const double t0 = rng.Uniform(t_min, t_max);
    const bool timed = rng.NextDouble() < 0.5;
    if (timed) query.time = {t0, t0 + rng.Uniform(3600.0, 3 * 86400.0)};
    if (i % 2 == 1) {
      query.by_user = true;
      query.user_id = corpus[rng.NextBounded(corpus.size())].user_id;
    } else {
      const double h = (extent.max_lat - extent.min_lat) *
                       rng.Uniform(0.005, 0.1);
      const double w = (extent.max_lon - extent.min_lon) *
                       rng.Uniform(0.005, 0.1);
      const double lat = rng.Uniform(extent.min_lat, extent.max_lat - h);
      const double lon = rng.Uniform(extent.min_lon, extent.max_lon - w);
      query.box = geo::BoundingBox{lat, lat + h, lon, lon + w};
      if (rng.NextBounded(3) == 0) {
        query.mask = store::MaskOf(traj::Mode::kWalk) |
                     store::MaskOf(traj::Mode::kBus) |
                     store::MaskOf(traj::Mode::kCar);
      }
    }
    setup->queries.push_back(query);
  }
  return Status::Ok();
}

std::vector<uint32_t> RunQuery(const store::TrajectoryStore& s,
                               const Query& q) {
  return q.by_user ? s.QueryUser(q.user_id, q.time)
                   : s.QueryBBox(q.box, q.time, q.mask);
}

std::vector<uint32_t> RunOracle(const store::TrajectoryStore& s,
                                const Query& q) {
  return q.by_user ? s.QueryUserBruteForce(q.user_id, q.time)
                   : s.QueryBBoxBruteForce(q.box, q.time, q.mask);
}

/// Saves the store, reloads it, and answers every query on the reloaded
/// copy; the caller checks the answers against the brute-force oracle.
Status SaveLoadQuery(const Setup& setup, const store::TrajectoryStore& written,
                     Tracer& tracer, Iteration* it) {
  const int save_id = tracer.Name("store.save");
  const int load_id = tracer.Name("store.load");
  const int index_id = tracer.Name("store.build_index");
  const int query_id = tracer.Name("store.query");
  store::TrajectoryStore loaded;
  {
    Span span(tracer, save_id);
    TRAJKIT_RETURN_IF_ERROR(written.SaveTo(setup.log_path));
  }
  {
    Span span(tracer, load_id);
    TRAJKIT_RETURN_IF_ERROR(loaded.Load(setup.log_path));
  }
  {
    Span span(tracer, index_id);
    loaded.BuildIndex();
  }
  const size_t visited_before = loaded.stats().nodes_visited;
  it->answers.reserve(setup.queries.size());
  it->query_us.reserve(setup.queries.size());
  for (const Query& query : setup.queries) {
    tracer.Begin();
    const Clock::time_point start = Clock::now();
    it->answers.push_back(RunQuery(loaded, query));
    it->query_us.push_back(1e6 * SecondsSince(start));
    tracer.End(query_id);
  }
  it->query_nodes_visited = loaded.stats().nodes_visited - visited_before;
  return Status::Ok();
}

/// The plain iteration: serve::ReplayCorpus, as `serve-replay` calls it.
Status PlainIteration(const Setup& setup, Iteration* it) {
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  TRAJKIT_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> corpus,
                           geolife::LoadGeoLifeCorpus(setup.corpus_dir));
  const core::LabelSet labels = core::LabelSet::Dabiri();
  store::TrajectoryStore written;
  Telemetry telemetry;
  std::map<SegmentKey, Clock::time_point> closed_at;
  {
    serve::ServingPlane plane(setup.registry.get(), PlaneOptions(0));
    // Fires inside Ingest/FlushAll as each segment closes.
    plane.set_closed_sink([&closed_at](const serve::ClosedSegment& s) {
      closed_at[{s.user_id, s.start_time}] = Clock::now();
    });
    serve::ReplayOptions replay_options;
    replay_options.tick_every_segments = kTickEverySegments;
    replay_options.tick = [&telemetry] { telemetry.Tick(); };
    replay_options.closed_sink = [&](const serve::ClosedSegment& segment,
                                     int predicted_class) {
      const traj::Mode predicted = predicted_class >= 0
                                       ? labels.ModeOf(predicted_class)
                                       : segment.mode;
      written.Ingest(store::FromClosedSegment(segment, predicted));
      if (predicted_class < 0) return;
      const SegmentKey key{segment.user_id, segment.start_time};
      it->predictions[key] = predicted_class;
      it->close_to_predict_ms.push_back(
          1e3 * SecondsSince(closed_at.at(key)));
    };
    TRAJKIT_ASSIGN_OR_RETURN(
        serve::ReplayReport report,
        serve::ReplayCorpus(corpus, labels, plane, replay_options));
    it->points = report.points;
    it->segments_closed = report.segments_closed;
    it->requests = report.segments_evaluated + report.shed +
                   report.deadline_exceeded;
    it->request_failures =
        report.shed + report.deadline_exceeded + report.degraded;
  }
  TRAJKIT_RETURN_IF_ERROR(SaveLoadQuery(setup, written, off, it));
  it->wall_s = SecondsSince(start);
  return Status::Ok();
}

/// The traced iteration drives ServingPlane's public API in ReplayCorpus's
/// order (k-way merge, Ingest, Submit, drain at each tick and at the end,
/// then the closed sink) so each call can carry a span.
Status TracedIteration(const Setup& setup, Tracer& tracer, Iteration* it,
                       std::vector<double>* ingest_close_us,
                       std::vector<double>* predict_wait_us,
                       serve::BatchPredictor::Counters* counters,
                       size_t* ticks) {
  const int run_id = tracer.Name("bench.run");
  const int load_id = tracer.Name("geolife.load");
  const int replay_id = tracer.Name("serve.replay");
  const int append_id = tracer.Name("serve.ingest_append");
  const int close_id = tracer.Name("serve.ingest_close");
  const int submit_id = tracer.Name("serve.submit");
  const int drain_id = tracer.Name("serve.drain_wait");
  const int tick_id = tracer.Name("obs.tick");
  const int store_ingest_id = tracer.Name("store.ingest");

  const Clock::time_point start = Clock::now();
  tracer.Begin();
  tracer.Begin();
  Result<std::vector<traj::Trajectory>> loaded_corpus =
      geolife::LoadGeoLifeCorpus(setup.corpus_dir);
  tracer.End(load_id);
  TRAJKIT_RETURN_IF_ERROR(loaded_corpus.status());
  const std::vector<traj::Trajectory>& corpus = loaded_corpus.value();
  const core::LabelSet labels = core::LabelSet::Dabiri();
  store::TrajectoryStore written;
  Telemetry telemetry;
  {
    serve::ServingPlane plane(setup.registry.get(), PlaneOptions(0));
    tracer.Begin();

    KWayMerge merge(corpus);
    struct InFlight {
      size_t staged;
      std::future<Result<serve::Prediction>> future;
    };
    std::vector<serve::ClosedSegment> closed;
    std::vector<InFlight> in_flight;
    std::vector<serve::ClosedSegment> staged;
    std::vector<int> staged_pred;
    std::vector<Clock::time_point> staged_closed_at;
    size_t segments_closed = 0;
    const auto ingest = [&](auto&& call) {
      const size_t before = closed.size();
      tracer.Begin();
      call();
      const Clock::time_point now = Clock::now();
      const bool emitted = closed.size() > before;
      const double seconds = tracer.End(emitted ? close_id : append_id);
      if (emitted) ingest_close_us->push_back(1e6 * seconds);
      for (size_t i = before; i < closed.size(); ++i) {
        staged_closed_at.push_back(now);
      }
    };
    const auto submit_closed = [&] {
      for (serve::ClosedSegment& segment : closed) {
        ++segments_closed;
        const size_t index = staged.size();
        staged.push_back(segment);
        staged_pred.push_back(-1);
        if (labels.ClassOf(segment.mode) < 0) continue;
        InFlight item{index, {}};
        serve::RequestContext context;
        context.trace_id = segment.trace_id;
        tracer.Begin();
        item.future = plane.Submit(
            segment.user_id,
            serve::PredictRequest(std::move(segment.features), context));
        tracer.End(submit_id);
        in_flight.push_back(std::move(item));
      }
      closed.clear();
    };
    const auto drain = [&] {
      tracer.Begin();
      plane.FlushPredictors();
      for (InFlight& item : in_flight) {
        Result<serve::Prediction> result = item.future.get();
        ++it->requests;
        if (!result.ok() ||
            result->degradation != serve::DegradationLevel::kNone) {
          ++it->request_failures;
          continue;
        }
        staged_pred[item.staged] = result->label;
        predict_wait_us->push_back(1e6 * result->latency_seconds);
      }
      in_flight.clear();
      tracer.End(drain_id);
    };
    const auto tick = [&] {
      tracer.Begin();
      telemetry.Tick();
      tracer.End(tick_id);
    };

    size_t next_tick = kTickEverySegments;
    uint32_t t = 0;
    uint32_t p = 0;
    while (merge.Next(&t, &p)) {
      const traj::Trajectory& trajectory = corpus[t];
      ingest([&] {
        plane.Ingest(trajectory.user_id, trajectory.points[p], &closed);
      });
      ++it->points;
      if (!closed.empty()) submit_closed();
      while (segments_closed >= next_tick) {
        drain();
        tick();
        next_tick += kTickEverySegments;
      }
    }
    ingest([&] { plane.FlushAll(&closed); });
    submit_closed();
    drain();
    tick();
    for (size_t i = 0; i < staged.size(); ++i) {
      const int predicted_class = staged_pred[i];
      const traj::Mode predicted = predicted_class >= 0
                                       ? labels.ModeOf(predicted_class)
                                       : staged[i].mode;
      tracer.Begin();
      written.Ingest(store::FromClosedSegment(staged[i], predicted));
      tracer.End(store_ingest_id);
      if (predicted_class < 0) continue;
      it->predictions[{staged[i].user_id, staged[i].start_time}] =
          predicted_class;
      it->close_to_predict_ms.push_back(
          1e3 * SecondsSince(staged_closed_at[i]));
    }
    tracer.End(replay_id);
    it->segments_closed = segments_closed;
    *counters = plane.predictor_counters();
    *ticks = telemetry.ticks();
  }
  const Status status = SaveLoadQuery(setup, written, tracer, it);
  tracer.End(run_id);
  it->wall_s = SecondsSince(start);
  return status;
}

/// Counts the iteration's requests and queries as attempts and checks its
/// outputs: online == offline parity and indexed == brute-force answers.
void Check(const Setup& setup, const Iteration& it, Report* report) {
  report->Attempt(true, it.requests - it.request_failures);
  report->Attempt(false, it.request_failures);
  if (it.predictions != setup.reference) {
    size_t differ = 0;
    for (const auto& [key, label] : setup.reference) {
      const auto found = it.predictions.find(key);
      if (found == it.predictions.end() || found->second != label) ++differ;
    }
    report->Mismatch("replay_geolife: online predictions differ from the "
                     "offline reference (" + std::to_string(differ) + " of " +
                     std::to_string(setup.reference.size()) + " segments, " +
                     std::to_string(it.predictions.size()) + " predicted)");
  }
  // The oracle runs on the reloaded store, after the timed part.
  store::TrajectoryStore loaded;
  if (Status status = loaded.Load(setup.log_path); !status.ok()) {
    report->Mismatch("replay_geolife: reload for the oracle failed: " +
                     status.ToString());
    report->Attempt(false, setup.queries.size());
    return;
  }
  for (size_t q = 0; q < setup.queries.size(); ++q) {
    const bool same = it.answers[q] == RunOracle(loaded, setup.queries[q]);
    report->Attempt(same);
    if (!same) {
      report->Mismatch("replay_geolife: query " + std::to_string(q) +
                       " differs from the brute-force oracle");
    }
  }
}

}  // namespace

int RunReplayGeolife(const Options& options, Report* report) {
  SetMaxThreads(kServePoolThreads);
  Setup setup;
  Status status = Status::Ok();
  const double setup_s = MedianSetupSeconds(3, [&] {
    if (status.ok()) status = DoSetup(options, &setup);
  });
  if (!status.ok()) {
    std::fprintf(stderr, "replay_geolife set-up: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  ResetPeakRss();
  std::vector<double> walls, rates, p50s, p90s;
  const Clock::time_point begin = Clock::now();
  // A traced run needs one plain iteration for the overhead ratio and the
  // prediction comparison; a plain run repeats until the time is used.
  Iteration plain;
  do {
    Iteration it;
    if (Status s = PlainIteration(setup, &it); !s.ok()) {
      std::fprintf(stderr, "replay_geolife: %s\n", s.ToString().c_str());
      return 1;
    }
    Check(setup, it, report);
    walls.push_back(it.wall_s);
    rates.push_back(static_cast<double>(it.points) / it.wall_s);
    p50s.push_back(Quantile(it.close_to_predict_ms, 0.50));
    p90s.push_back(Quantile(it.close_to_predict_ms, 0.90));
    plain = std::move(it);
  } while (!options.trace && SecondsSince(begin) < options.seconds);

  if (!options.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("wall_s", Median(walls), "s");
    report->Add("points_per_s", Median(rates), "points/s");
    report->Add("close_to_predict_ms_p50", Median(p50s), "ms");
    report->Add("close_to_predict_ms_p90", Median(p90s), "ms");
    // A closed loop sets its own rate: what it sustains is its throughput.
    report->Add("sustainable_points_per_s", Median(rates), "points/s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  Tracer tracer(true);
  Iteration traced;
  std::vector<double> ingest_close_us, predict_wait_us;
  serve::BatchPredictor::Counters counters;
  size_t ticks = 0;
  if (Status s = TracedIteration(setup, tracer, &traced, &ingest_close_us,
                                 &predict_wait_us, &counters, &ticks);
      !s.ok()) {
    std::fprintf(stderr, "replay_geolife traced: %s\n", s.ToString().c_str());
    return 1;
  }
  Check(setup, traced, report);
  if (traced.predictions != plain.predictions) {
    report->Mismatch("replay_geolife: traced predictions differ from the "
                     "plain run's");
  }
  tracer.WriteChromeTrace(options.work_dir + "/trace_replay_geolife.json");
  AddLedger(tracer, traced.wall_s, report);
  report->Add("bench.trace_overhead", traced.wall_s / plain.wall_s, "ratio");

  const auto total = [&tracer](const char* name) {
    return tracer.totals(tracer.Name(name)).total_s;
  };
  const auto count = [&tracer](const char* name) {
    return static_cast<double>(tracer.totals(tracer.Name(name)).count);
  };
  report->Add("bench.close_to_predict_ms_p99",
              Quantile(traced.close_to_predict_ms, 0.99), "ms");
  report->Add("geolife.load_s", total("geolife.load"), "s");
  report->Add("geolife.mb_per_s", setup.corpus_mb / total("geolife.load"),
              "MB/s");
  report->Add("serve.ingest_append_s", total("serve.ingest_append"), "s");
  report->Add("serve.ingest_calls",
              count("serve.ingest_append") + count("serve.ingest_close"),
              "count");
  report->Add("serve.ingest_close_s", total("serve.ingest_close"), "s");
  report->Add("serve.ingest_close_us_p50", Quantile(ingest_close_us, 0.50),
              "us");
  report->Add("serve.ingest_close_us_p99", Quantile(ingest_close_us, 0.99),
              "us");
  report->Add("serve.segments_closed", static_cast<double>(traced.segments_closed),
              "count");
  report->Add("serve.submit_s", total("serve.submit"), "s");
  report->Add("serve.predict_wait_us_p50", Quantile(predict_wait_us, 0.50),
              "us");
  report->Add("serve.predict_wait_us_p99", Quantile(predict_wait_us, 0.99),
              "us");
  report->Add("serve.batches", static_cast<double>(counters.batches),
              "count");
  report->Add("serve.batch_rows_mean",
              counters.batches == 0
                  ? 0.0
                  : static_cast<double>(counters.requests) /
                        static_cast<double>(counters.batches),
              "rows");
  report->Add("serve.drain_wait_s", total("serve.drain_wait"), "s");
  report->Add("serve.replay_self_s",
              tracer.totals(tracer.Name("serve.replay")).self_s, "s");
  report->Add("obs.tick_s", total("obs.tick"), "s");
  report->Add("obs.ticks", static_cast<double>(ticks), "count");
  report->Add("store.ingest_s", total("store.ingest"), "s");
  report->Add("store.save_s", total("store.save"), "s");
  report->Add("store.load_s", total("store.load"), "s");
  std::error_code error;
  report->Add("store.log_bytes",
              static_cast<double>(
                  std::filesystem::file_size(setup.log_path, error)),
              "bytes");
  report->Add("store.build_index_s", total("store.build_index"), "s");
  report->Add("store.nodes_visited_per_query",
              static_cast<double>(traced.query_nodes_visited) /
                  static_cast<double>(setup.queries.size()),
              "count");
  report->Add("store.query_us_p50", Quantile(traced.query_us, 0.50), "us");
  report->Add("store.query_us_p99", Quantile(traced.query_us, 0.99), "us");
  return 0;
}

}  // namespace perfbench
