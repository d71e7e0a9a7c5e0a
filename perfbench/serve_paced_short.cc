// Workload serve_paced_short: the latency path of the serving plane.
//
// Set-up generates a GeoLife-scale corpus in memory (no disk parse), trains
// the served model on a corpus drawn with another seed, and records the
// reference predictions of one unpaced pass. Points are fed one at a time
// through ServingPlane::Ingest with a 32-point max window, so segments
// close about every 32 points of a user and segment statistics run at
// small n. Every closed segment in the label set is submitted.
//
// One run measures:
//  - the ladder: open-loop rungs on a fixed grid of offered rates, coarse
//    then bisected, to find the highest rate that meets the p99 limit
//    without a growing backlog (sustainable_points_per_s);
//  - then, until the time is used, rounds of
//    - one unpaced pass: the whole corpus, closed loop, as fast as the
//      driver thread can go (wall_s, points_per_s), and
//    - one chunk of the nominal rung: an open loop at kNominalRate
//      points/s whose schedule does not slow when the system does; a
//      request's latency runs from when its closing point was due to when
//      its future is ready (close_to_predict_ms_*).

#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "common/parallel.h"
#include "core/label_sets.h"
#include "ml/flat_forest.h"
#include "ml/matrix.h"
#include "serving.h"

namespace perfbench {
namespace {

using namespace trajkit;

constexpr size_t kMaxWindow = 32;
/// Offered rate of the nominal rung, points/s: about a fifth of what one
/// driver thread ingests on the reference host.
constexpr double kNominalRate = 200000.0;
/// A rung passes when close_to_predict p99 is within this limit ...
constexpr double kLimitMs = 25.0;
/// ... and the generator's lateness does not grow past this (see Passes).
constexpr double kBacklogMs = 10.0;
/// The ladder's grid: kNominalRate * 2^(k / kGridSteps) points/s, visited
/// in steps of a doubling, then bisected to one grid step (4.4%).
constexpr int kGridSteps = 16;
constexpr int kGridMax = 6 * kGridSteps;  // 12.8 M points/s.
constexpr double kRungSeconds = 0.5;
/// The nominal rung runs as chunks of this many seconds of schedule, each
/// on a fresh plane, interleaved with the unpaced passes.
constexpr double kChunkSeconds = 0.9;
constexpr double kMinRungPoints = 48000.0;

double GridRate(int k) {
  return kNominalRate * std::exp2(static_cast<double>(k) / kGridSteps);
}

struct Setup {
  std::vector<traj::Trajectory> corpus;
  /// (trajectory, point) in global timestamp order: the k-way merge of
  /// serve::ReplayCorpus, done once.
  std::vector<std::pair<uint32_t, uint32_t>> order;
  std::unique_ptr<serve::ModelRegistry> registry;
  Predictions reference;
};

/// What one feed of the plane produced.
struct Feed {
  double wall_s = 0.0;
  size_t points = 0;
  /// Points / (last ingest - start).
  double achieved_rate = 0.0;
  /// Close (closing point due) to future ready, ms; +inf when failed.
  std::vector<double> latency_ms;
  /// How late the generator ingested each point, ms.
  std::vector<float> late_ms;
  double final_late_ms = 0.0;
  size_t requests = 0;
  size_t failures = 0;
  Predictions predictions;
  serve::BatchPredictor::Counters counters;
  std::vector<double> ingest_close_us;
  std::vector<double> predict_wait_us;
  /// Feature rows of the submitted requests (traced paced feeds only).
  std::vector<std::vector<double>> rows;
};

/// Feeds the first `points` points of the corpus order through a fresh
/// plane. rate > 0 paces point i to be due at start + i / rate (an open
/// loop); rate == 0 feeds as fast as possible and flushes every session
/// at the end (the unpaced pass).
Feed RunFeed(const Setup& setup, double rate, size_t points, Tracer& tracer) {
  const int append_id = tracer.Name("serve.ingest_append");
  const int close_id = tracer.Name("serve.ingest_close");
  const int submit_id = tracer.Name("serve.submit");
  const int wait_id = tracer.Name("serve.drain_wait");
  const core::LabelSet labels = core::LabelSet::Dabiri();
  Feed feed;
  struct Pending {
    SegmentKey key;
    Clock::time_point due;
    Clock::time_point submitted;
    std::future<Result<serve::Prediction>> future;
  };
  std::vector<Pending> pending;
  std::vector<serve::ClosedSegment> closed;
  serve::ServingPlane plane(setup.registry.get(), PlaneOptions(kMaxWindow));
  if (rate > 0.0) feed.late_ms.reserve(points);

  const auto submit_closed = [&](Clock::time_point due) {
    for (serve::ClosedSegment& segment : closed) {
      if (labels.ClassOf(segment.mode) < 0) continue;
      if (tracer.enabled() && rate > 0.0) feed.rows.push_back(segment.features);
      Pending item{{segment.user_id, segment.start_time}, due, Clock::now(),
                   {}};
      tracer.Begin();
      item.future = plane.Submit(segment.user_id,
                                 serve::PredictRequest(
                                     std::move(segment.features)));
      tracer.End(submit_id);
      pending.push_back(std::move(item));
    }
    closed.clear();
  };
  const auto ingest = [&](auto&& call) {
    tracer.Begin();
    call();
    const double seconds = tracer.End(closed.empty() ? append_id : close_id);
    if (!closed.empty() && tracer.enabled()) {
      feed.ingest_close_us.push_back(1e6 * seconds);
    }
  };

  const Clock::time_point start = Clock::now();
  Clock::time_point last_ingest = start;
  for (size_t i = 0; i < points; ++i) {
    const auto [t, p] = setup.order[i];
    const traj::Trajectory& trajectory = setup.corpus[t];
    Clock::time_point due = Clock::now();
    if (rate > 0.0) {
      due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
      Clock::time_point now = Clock::now();
      while (now < due) now = Clock::now();
      feed.late_ms.push_back(static_cast<float>(1e3 * Seconds(due, now)));
    }
    ingest([&] {
      plane.Ingest(trajectory.user_id, trajectory.points[p], &closed);
    });
    last_ingest = Clock::now();
    if (rate > 0.0) feed.final_late_ms = 1e3 * Seconds(due, last_ingest);
    if (!closed.empty()) submit_closed(due);
  }
  if (rate == 0.0) {
    ingest([&] { plane.FlushAll(&closed); });
    submit_closed(Clock::now());
  }
  feed.points = points;
  feed.achieved_rate =
      static_cast<double>(points) / std::max(1e-9, Seconds(start, last_ingest));

  tracer.Begin();
  if (rate == 0.0) plane.FlushPredictors();
  for (Pending& item : pending) {
    Result<serve::Prediction> result = item.future.get();
    ++feed.requests;
    if (!result.ok() ||
        result->degradation != serve::DegradationLevel::kNone) {
      ++feed.failures;
      feed.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    feed.predictions[item.key] = result->label;
    feed.latency_ms.push_back(1e3 * (Seconds(item.due, item.submitted) +
                                     result->latency_seconds));
    feed.predict_wait_us.push_back(1e6 * result->latency_seconds);
  }
  tracer.End(wait_id);
  feed.counters = plane.predictor_counters();
  feed.wall_s = SecondsSince(start);
  return feed;
}

Status DoSetup(const Options& options, Setup* setup) {
  *setup = Setup{};  // A repeated set-up starts from nothing.
  setup->corpus = MakeCorpus(options.seed, options.tiny);
  setup->order = MergeOrder(setup->corpus);

  setup->registry = std::make_unique<serve::ModelRegistry>();
  TRAJKIT_RETURN_IF_ERROR(
      PublishServedModel(options.seed, options.tiny, setup->registry.get()));
  Tracer off(false);
  Feed reference = RunFeed(*setup, 0.0, setup->order.size(), off);
  if (reference.failures > 0) {
    return Status::Internal("the reference pass had failed requests");
  }
  setup->reference = std::move(reference.predictions);
  return Status::Ok();
}

/// Counts the feed's requests as attempts and checks every prediction
/// against the reference pass.
void Check(const Setup& setup, const Feed& feed, const char* what,
           Report* report) {
  report->Attempt(true, feed.requests - feed.failures);
  report->Attempt(false, feed.failures);
  size_t differ = 0;
  for (const auto& [key, label] : feed.predictions) {
    const auto found = setup.reference.find(key);
    if (found == setup.reference.end() || found->second != label) ++differ;
  }
  if (differ > 0) {
    report->Mismatch(std::string("serve_paced_short: ") + what + ": " +
                     std::to_string(differ) + " of " +
                     std::to_string(feed.predictions.size()) +
                     " predictions differ from the unpaced reference");
  }
}

/// Points a rung at `rate` offers: `seconds` of schedule, but never fewer
/// than kMinRungPoints (about 1,500 requests), capped by the corpus.
size_t RungPoints(const Setup& setup, double rate, double seconds) {
  return std::min(setup.order.size(),
                  static_cast<size_t>(std::max(rate * seconds,
                                               kMinRungPoints)));
}

/// A rung passes when no request failed, p99 latency meets the limit, and
/// the backlog did not grow: over the last quarter of the schedule the
/// generator ran, at the median, at most kBacklogMs late. A stall the
/// system recovers from does not fail a rung; a rate above capacity makes
/// the lateness grow without bound and does.
bool Passes(const Feed& feed) {
  const size_t n = feed.late_ms.size();
  const std::vector<double> tail(
      feed.late_ms.begin() + static_cast<ptrdiff_t>(n - n / 4),
      feed.late_ms.end());
  return feed.failures == 0 && Quantile(feed.latency_ms, 0.99) <= kLimitMs &&
         Median(tail) <= kBacklogMs;
}

/// The traced run: one unpaced pass and one nominal chunk, with spans.
void TracedRun(const Options& options, const Setup& setup,
               const Feed& plain_pass, Report* report) {
  Tracer tracer(true);
  const int run_id = tracer.Name("bench.run");
  const Clock::time_point pass_start = Clock::now();
  tracer.Begin();
  const Feed pass = RunFeed(setup, 0.0, setup.order.size(), tracer);
  tracer.End(run_id);
  const Clock::time_point rung_start = Clock::now();
  const double pass_traced_s = Seconds(pass_start, rung_start);
  tracer.Begin();
  const Feed rung =
      RunFeed(setup, kNominalRate,
              RungPoints(setup, kNominalRate, kChunkSeconds), tracer);
  tracer.End(run_id);
  const double rung_traced_s = SecondsSince(rung_start);
  Check(setup, pass, "traced unpaced pass", report);
  Check(setup, rung, "traced nominal chunk", report);
  if (pass.predictions != plain_pass.predictions) {
    report->Mismatch("serve_paced_short: traced predictions differ from "
                     "the plain pass's");
  }
  tracer.WriteChromeTrace(options.work_dir + "/trace_serve_paced_short.json");
  AddLedger(tracer, pass_traced_s + rung_traced_s, report);
  report->Add("bench.trace_overhead", pass.wall_s / plain_pass.wall_s,
              "ratio");

  const auto total = [&tracer](const char* name) {
    return tracer.totals(tracer.Name(name)).total_s;
  };
  const auto count = [&tracer](const char* name) {
    return static_cast<double>(tracer.totals(tracer.Name(name)).count);
  };
  std::vector<double> close_us = pass.ingest_close_us;
  close_us.insert(close_us.end(), rung.ingest_close_us.begin(),
                  rung.ingest_close_us.end());
  report->Add("serve.ingest_append_s", total("serve.ingest_append"), "s");
  report->Add("serve.ingest_calls",
              count("serve.ingest_append") + count("serve.ingest_close"),
              "count");
  report->Add("serve.ingest_close_s", total("serve.ingest_close"), "s");
  report->Add("serve.ingest_close_us_p50", Quantile(close_us, 0.50), "us");
  report->Add("serve.ingest_close_us_p99", Quantile(close_us, 0.99), "us");
  report->Add("serve.segments_closed", count("serve.ingest_close"), "count");
  report->Add("serve.submit_s", total("serve.submit"), "s");
  report->Add("serve.drain_wait_s", total("serve.drain_wait"), "s");
  // Queueing and batching at the nominal offered rate.
  report->Add("serve.predict_wait_us_p50",
              Quantile(rung.predict_wait_us, 0.50), "us");
  report->Add("serve.predict_wait_us_p99",
              Quantile(rung.predict_wait_us, 0.99), "us");
  report->Add("serve.batches", static_cast<double>(rung.counters.batches),
              "count");
  const double mean_batch =
      rung.counters.batches == 0
          ? 1.0
          : static_cast<double>(rung.counters.requests) /
                static_cast<double>(rung.counters.batches);
  report->Add("serve.batch_rows_mean", mean_batch, "rows");
  report->Add("bench.close_to_predict_ms_p99",
              Quantile(rung.latency_ms, 0.99), "ms");
  report->Add("bench.late_ms_p99",
              Quantile(std::vector<double>(rung.late_ms.begin(),
                                           rung.late_ms.end()),
                       0.99),
              "ms");

  // The model alone: FlatForest::Predict on the chunk's request rows, in
  // batches of the chunk's mean batch size.
  const ml::FlatForest* flat = setup.registry->Acquire().active->forest.flat();
  const size_t batch = std::max<size_t>(1, std::llround(mean_batch));
  size_t rows_done = 0;
  const Clock::time_point flat_start = Clock::now();
  for (size_t first = 0; first < rung.rows.size(); first += batch) {
    const size_t last = std::min(rung.rows.size(), first + batch);
    const std::vector<std::vector<double>> rows(
        rung.rows.begin() + static_cast<ptrdiff_t>(first),
        rung.rows.begin() + static_cast<ptrdiff_t>(last));
    rows_done += flat->Predict(ml::Matrix::FromRows(rows)).size();
  }
  report->Add("ml.flat_predict_us_per_row",
              rows_done == 0 ? 0.0
                             : 1e6 * SecondsSince(flat_start) /
                                   static_cast<double>(rows_done),
              "us");
}

/// The ladder: rungs on the grid in steps of a doubling until one fails,
/// then bisection between the last pass and the first failure. Bisection
/// only moves `passed` up on a pass, so the result is the achieved rate
/// of the highest rung that passed (0 when none did).
double Ladder(const Setup& setup, Report* report) {
  Tracer off(false);
  double sustainable = 0.0;
  const auto try_rung = [&](int k) {
    const Feed feed = RunFeed(
        setup, GridRate(k), RungPoints(setup, GridRate(k), kRungSeconds), off);
    Check(setup, feed, "ladder rung", report);
    const bool pass = Passes(feed);
    std::printf("serve_paced_short: rung %.0f points/s: %s (%zu requests, "
                "p99 %.3f ms)\n",
                GridRate(k), pass ? "pass" : "fail", feed.requests,
                Quantile(feed.latency_ms, 0.99));
    if (pass) sustainable = feed.achieved_rate;
    return pass;
  };
  int passed = -1;
  int failed = -1;
  for (int k = 0; k <= kGridMax; k += kGridSteps) {
    if (!try_rung(k)) {
      failed = k;
      break;
    }
    passed = k;
  }
  if (passed >= 0 && failed > passed) {
    while (failed - passed > 1) {
      const int mid = (passed + failed) / 2;
      if (try_rung(mid)) {
        passed = mid;
      } else {
        failed = mid;
      }
    }
  }
  return sustainable;
}

}  // namespace

int RunServePacedShort(const Options& options, Report* report) {
  SetMaxThreads(kServePoolThreads);
  Setup setup;
  Status status = Status::Ok();
  const double setup_s = MedianSetupSeconds(3, [&] {
    if (status.ok()) status = DoSetup(options, &setup);
  });
  if (!status.ok()) {
    std::fprintf(stderr, "serve_paced_short set-up: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  ResetPeakRss();
  const Clock::time_point begin = Clock::now();
  Tracer off(false);
  const auto unpaced_pass = [&] {
    Feed feed = RunFeed(setup, 0.0, setup.order.size(), off);
    Check(setup, feed, "unpaced pass", report);
    return feed;
  };
  if (options.trace) {
    TracedRun(options, setup, unpaced_pass(), report);
    return 0;
  }

  const double sustainable = Ladder(setup, report);
  // Then rounds of one unpaced pass and one nominal chunk until the time
  // is used, so both sample the whole run rather than one stretch of it.
  std::vector<double> walls, rates, p50s, p90s, p99s;
  size_t requests = 0;
  do {
    const Feed pass = unpaced_pass();
    walls.push_back(pass.wall_s);
    rates.push_back(static_cast<double>(pass.points) / pass.wall_s);
    const Feed chunk =
        RunFeed(setup, kNominalRate,
                RungPoints(setup, kNominalRate, kChunkSeconds), off);
    Check(setup, chunk, "nominal chunk", report);
    p50s.push_back(Quantile(chunk.latency_ms, 0.50));
    p90s.push_back(Quantile(chunk.latency_ms, 0.90));
    p99s.push_back(Quantile(chunk.latency_ms, 0.99));
    requests += chunk.requests;
  } while (SecondsSince(begin) < options.seconds);
  std::printf("serve_paced_short: nominal rung %.0f points/s: %zu chunks, "
              "%zu requests, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms "
              "(medians over chunks)\n",
              kNominalRate, p50s.size(), requests, Median(p50s),
              Median(p90s), Median(p99s));

  report->Add("setup_s", setup_s, "s");
  report->Add("wall_s", Median(walls), "s");
  report->Add("points_per_s", Median(rates), "points/s");
  report->Add("close_to_predict_ms_p50", Median(p50s), "ms");
  report->Add("close_to_predict_ms_p90", Median(p90s), "ms");
  report->Add("sustainable_points_per_s", sustainable, "points/s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

}  // namespace perfbench
