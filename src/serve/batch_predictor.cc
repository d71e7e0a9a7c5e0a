#include "serve/batch_predictor.h"

#include <algorithm>
#include <utility>

#include "common/retry.h"
#include "common/strings.h"
#include "obs/request_trace.h"
#include "serve/fault_injector.h"
#include "serve/shadow_evaluator.h"

namespace trajkit::serve {

namespace {

/// Records a request's terminal outcome and, for bad outcomes, tail-keeps
/// its trace so the flight recorder cannot overwrite it before export.
void TraceTerminal(obs::RequestTracer& tracer, uint64_t trace_id,
                   const char* outcome, uint64_t at_ns, bool tail_keep) {
  if (trace_id == 0) return;
  tracer.RecordInstant(trace_id, outcome, obs::TracePhase::kTerminal, at_ns);
  if (tail_keep) tracer.Retain(trace_id);
}

}  // namespace

BatchPredictor::BatchPredictor(const ModelRegistry* registry,
                               BatchPredictorOptions options)
    : registry_(registry),
      options_(std::move(options)),
      metric_requests_(obs::MetricsRegistry::Global().GetCounter(
          "serve.batch_predictor.requests", options_.shard)),
      metric_batches_(obs::MetricsRegistry::Global().GetCounter(
          "serve.batch_predictor.batches", options_.shard)),
      metric_queue_depth_(obs::MetricsRegistry::Global().GetGauge(
          "serve.batch_predictor.queue_depth", options_.shard)),
      metric_batch_size_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.batch_predictor.batch_size",
          obs::HistogramOptions::Exponential(1.0, 2.0, 11))),
      metric_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.batch_predictor.latency_seconds",
          obs::HistogramOptions::LatencySeconds())),
      metric_shed_(obs::MetricsRegistry::Global(), "serve.shed_total",
                   {"queue_full", "preempted"}, options_.shard),
      metric_degraded_(obs::MetricsRegistry::Global(), "serve.degraded_total",
                       {"previous_model", "majority_class"}, options_.shard),
      metric_deadline_exceeded_(obs::MetricsRegistry::Global().GetCounter(
          "serve.deadline_exceeded_total", options_.shard)),
      metric_unavailable_(obs::MetricsRegistry::Global().GetCounter(
          "serve.unavailable_total", options_.shard)) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  // The model active at construction is the first last-good snapshot, so
  // a registry that stalls before this predictor has served a clean batch
  // still falls back to it rather than to the label prior.
  last_good_ = registry_->Acquire().active;
  worker_ = std::thread([this] { WorkerLoop(); });
}

BatchPredictor::~BatchPredictor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
  // A shard's depth series would otherwise keep adding its last value to
  // the family total after a later plane with fewer shards replaced it.
  if (options_.shard >= 0) metric_queue_depth_.Set(0.0);
}

std::future<Result<Prediction>> BatchPredictor::Submit(
    PredictRequest predict_request) {
  Request request;
  request.features = std::move(predict_request.features);
  request.context = predict_request.context;
  request.enqueue = std::chrono::steady_clock::now();
  std::future<Result<Prediction>> future = request.promise.get_future();

  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  if (traced && request.context.trace_id == 0) {
    request.context.trace_id = tracer.Mint();
  }
  const uint64_t trace_id = request.context.trace_id;
  const uint64_t enqueue_ns = traced ? tracer.ToNs(request.enqueue) : 0;
  if (traced) {
    tracer.RecordInstant(trace_id, "submit", obs::TracePhase::kSubmit,
                         enqueue_ns, static_cast<uint64_t>(
                             request.context.priority < 0
                                 ? 0
                                 : request.context.priority));
  }

  // Fast-fail a request that arrives already expired: it would only be
  // swept later without ever being batchable. Counters are published
  // before the promise resolves, so a caller woken by the future always
  // sees them accounted.
  if (request.context.has_deadline() &&
      request.context.deadline <= request.enqueue) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.deadline_exceeded;
    }
    metric_deadline_exceeded_.Increment();
    request.promise.set_value(
        Status::DeadlineExceeded("request deadline passed before enqueue"));
    if (traced) {
      TraceTerminal(tracer, trace_id, "deadline_exceeded", tracer.NowNs(),
                    /*tail_keep=*/true);
    }
    return future;
  }

  size_t depth = 0;
  bool shed_incoming = false;
  bool shed_victim = false;
  uint64_t victim_trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_queue > 0 && pending_.size() >= options_.max_queue) {
      // High-watermark load shedding: drop the lowest-priority request.
      // min_element picks the first (= oldest) request of the lowest
      // priority class, the one closest to expiring anyway.
      auto victim = std::min_element(
          pending_.begin(), pending_.end(),
          [](const Request& a, const Request& b) {
            return a.context.priority < b.context.priority;
          });
      if (victim != pending_.end() &&
          victim->context.priority < request.context.priority) {
        victim_trace_id = victim->context.trace_id;
        victim->promise.set_value(Status::ResourceExhausted(StrPrintf(
            "shed: preempted by priority-%d request (queue full at %zu)",
            request.context.priority, pending_.size())));
        pending_.erase(victim);
        shed_victim = true;
      } else {
        request.promise.set_value(Status::ResourceExhausted(StrPrintf(
            "shed: queue full at %zu and no lower-priority victim",
            pending_.size())));
        shed_incoming = true;
      }
      ++counters_.shed;
    }
    if (!shed_incoming) {
      if (request.context.has_deadline()) {
        min_deadline_ = std::min(min_deadline_, request.context.deadline);
      }
      pending_.push_back(std::move(request));
      ++counters_.requests;
      depth = pending_.size();
    }
  }
  if (shed_incoming) {
    metric_shed_.Of("queue_full").Increment();
    if (traced) {
      TraceTerminal(tracer, trace_id, "shed", tracer.NowNs(),
                    /*tail_keep=*/true);
    }
    return future;
  }
  if (shed_victim) {
    metric_shed_.Of("preempted").Increment();
    if (traced) {
      TraceTerminal(tracer, victim_trace_id, "shed", tracer.NowNs(),
                    /*tail_keep=*/true);
    }
  }
  cv_.notify_one();
  // Metrics after the notify so the worker's wakeup is not delayed.
  metric_queue_depth_.Set(static_cast<double>(depth));
  metric_requests_.Increment();
  return future;
}

void BatchPredictor::Flush() {
  while (true) {
    std::vector<Request> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) return;
      batch = TakeBatchLocked();
    }
    ProcessBatch(std::move(batch));
  }
}

BatchPredictor::Counters BatchPredictor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void BatchPredictor::SweepExpiredLocked(
    std::chrono::steady_clock::time_point now) {
  if (now < min_deadline_) return;
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  const uint64_t now_ns = traced ? tracer.ToNs(now) : 0;
  auto new_min = std::chrono::steady_clock::time_point::max();
  size_t expired = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->context.deadline <= now) {
      const uint64_t trace_id = it->context.trace_id;
      it->promise.set_value(Status::DeadlineExceeded(StrPrintf(
          "deadline passed while queued (waited %.3f ms)",
          std::chrono::duration<double, std::milli>(now - it->enqueue)
              .count())));
      ++counters_.deadline_exceeded;
      ++expired;
      it = pending_.erase(it);
      if (traced) {
        TraceTerminal(tracer, trace_id, "deadline_exceeded", now_ns,
                      /*tail_keep=*/true);
      }
    } else {
      new_min = std::min(new_min, it->context.deadline);
      ++it;
    }
  }
  min_deadline_ = new_min;
  if (expired > 0) {
    metric_deadline_exceeded_.Increment(static_cast<uint64_t>(expired));
    metric_queue_depth_.Set(static_cast<double>(pending_.size()));
  }
}

std::vector<BatchPredictor::Request> BatchPredictor::TakeBatchLocked() {
  const size_t take = std::min(pending_.size(), options_.max_batch_size);
  std::vector<Request> batch;
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  ++counters_.batches;
  counters_.max_batch = std::max(counters_.max_batch, take);
  // min_deadline_ may now be stale-early (it could belong to a taken
  // request); the next sweep recomputes it, at worst one spurious wakeup.
  // A gauge store is cheap enough to keep under the lock; the batch
  // histogram observes happen in ProcessBatch, outside it.
  metric_queue_depth_.Set(static_cast<double>(pending_.size()));
  return batch;
}

void BatchPredictor::WorkerLoop() {
  const auto delay = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::max(options_.max_delay_seconds,
                                             0.0)));
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    SweepExpiredLocked(std::chrono::steady_clock::now());
    if (pending_.empty()) {
      if (stop_) return;
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      continue;
    }
    // Dispatch when the batch is full, the oldest request's delay budget
    // has passed, or we are draining for shutdown. Wake early for the
    // nearest request deadline so expiries do not wait out the batch
    // delay. No predicate: the outer loop re-evaluates everything
    // (including deadlines that moved earlier while we slept).
    const auto dispatch_at = pending_.front().enqueue + delay;
    if (!stop_ && pending_.size() < options_.max_batch_size &&
        std::chrono::steady_clock::now() < dispatch_at) {
      cv_.wait_until(lock, std::min(dispatch_at, min_deadline_));
      continue;
    }
    std::vector<Request> batch = TakeBatchLocked();
    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

bool BatchPredictor::AnswerWithLabelPrior(
    Request& request, std::chrono::steady_clock::time_point done) {
  if (options_.label_prior.empty()) return false;
  Prediction prediction;
  prediction.degradation = DegradationLevel::kMajorityClass;
  prediction.model_version = "label_prior";
  const auto& prior = options_.label_prior;
  double total = 0.0;
  for (const double weight : prior) total += weight;
  prediction.label = static_cast<int>(
      std::max_element(prior.begin(), prior.end()) - prior.begin());
  prediction.probabilities.resize(prior.size(), 0.0);
  for (size_t i = 0; i < prior.size(); ++i) {
    prediction.probabilities[i] = total > 0.0 ? prior[i] / total : 0.0;
  }
  prediction.latency_seconds =
      std::chrono::duration<double>(done - request.enqueue).count();
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const uint64_t trace_id = request.context.trace_id;
  uint64_t exemplar_id = 0;
  if (tracer.enabled() && trace_id != 0) {
    const uint64_t done_ns = tracer.ToNs(done);
    tracer.RecordInstant(trace_id, "degraded/majority_class",
                         obs::TracePhase::kDegraded, done_ns);
    TraceTerminal(tracer, trace_id, "done", done_ns, /*tail_keep=*/true);
    exemplar_id = trace_id;  // tail-kept, so the dump can resolve it
  }
  metric_latency_.Observe(prediction.latency_seconds, exemplar_id);
  metric_degraded_.Of("majority_class").Increment();
  request.promise.set_value(std::move(prediction));
  return true;
}

std::shared_ptr<const ServingModel> BatchPredictor::LastGoodModel() const {
  std::lock_guard<std::mutex> lock(last_good_mu_);
  return last_good_;
}

void BatchPredictor::ProcessBatch(std::vector<Request> batch) {
  if (batch.empty()) return;
  metric_batches_.Increment();
  metric_batch_size_.Observe(static_cast<double>(batch.size()));

  FaultInjector::BatchFaults faults;
  if (options_.fault_injector != nullptr) {
    faults = options_.fault_injector->Next();
  }
  if (faults.delay_seconds > 0.0) SleepForSeconds(faults.delay_seconds);

  // Deadline re-check at processing start: a request can expire between
  // dispatch and here (notably under an injected batch delay).
  const auto start = std::chrono::steady_clock::now();

  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  const uint64_t start_ns = traced ? tracer.ToNs(start) : 0;
  bool fault_hit = false;
  if (traced) {
    for (const Request& request : batch) {
      const uint64_t trace_id = request.context.trace_id;
      if (trace_id == 0) continue;
      // Queue span: enqueue -> batch-processing start (includes any
      // injected batch delay, which is exactly what the caller waited).
      tracer.RecordSpan(trace_id, "queue", obs::TracePhase::kQueue,
                        tracer.ToNs(request.enqueue), start_ns,
                        static_cast<uint64_t>(batch.size()));
      if (faults.delay_seconds > 0.0) {
        tracer.RecordInstant(trace_id, "fault/batch_delay",
                             obs::TracePhase::kFault, start_ns);
      }
      if (faults.stall_registry) {
        tracer.RecordInstant(trace_id, "fault/swap_stall",
                             obs::TracePhase::kFault, start_ns);
      }
      if (faults.fail_predict) {
        tracer.RecordInstant(trace_id, "fault/predict_fail",
                             obs::TracePhase::kFault, start_ns);
      }
    }
    fault_hit = faults.any();
  }

  // Counters are published before any promise resolves so a caller woken
  // by its future always finds its request accounted.
  std::vector<Request> live;
  live.reserve(batch.size());
  std::vector<Request> expired;
  for (Request& request : batch) {
    if (request.context.has_deadline() && request.context.deadline <= start) {
      expired.push_back(std::move(request));
    } else {
      live.push_back(std::move(request));
    }
  }
  if (!expired.empty()) {
    metric_deadline_exceeded_.Increment(static_cast<uint64_t>(expired.size()));
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.deadline_exceeded += expired.size();
    }
    for (Request& request : expired) {
      const uint64_t trace_id = request.context.trace_id;
      request.promise.set_value(Status::DeadlineExceeded(
          "deadline passed before the batch was processed"));
      if (traced) {
        TraceTerminal(tracer, trace_id, "deadline_exceeded", start_ns,
                      /*tail_keep=*/true);
      }
    }
  }
  if (live.empty()) return;

  // Degradation rung 0 -> 1: active model from one coherent lease, else
  // the cached previous-good snapshot. An injected swap stall makes the
  // registry unusable for this batch, exactly like a wedged hot swap
  // would — no lease at all, so no shadow scoring either.
  DegradationLevel level = DegradationLevel::kNone;
  ModelLease lease;
  if (!faults.stall_registry) lease = registry_->Acquire();
  std::shared_ptr<const ServingModel> model = lease.active;
  if (model == nullptr) {
    lease.shadow = nullptr;
    model = LastGoodModel();
    if (model != nullptr) level = DegradationLevel::kPreviousModel;
  }

  // An injected transient predict failure: requests that still carry retry
  // budget resolve retryable (the caller resubmits with backoff); spent
  // requests drop to the majority-class rung so they terminate.
  if (faults.fail_predict) {
    size_t unavailable = 0;
    size_t degraded = 0;
    for (const Request& request : live) {
      // Mirrors the answer loop below: AnswerWithLabelPrior succeeds
      // exactly when a prior is configured.
      if (request.context.retry_budget <= 0 && !options_.label_prior.empty()) {
        ++degraded;
      } else {
        ++unavailable;
      }
    }
    metric_unavailable_.Increment(static_cast<uint64_t>(unavailable));
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.unavailable += unavailable;
      counters_.degraded += degraded;
    }
    for (Request& request : live) {
      if (request.context.retry_budget <= 0 &&
          AnswerWithLabelPrior(request, start)) {
        continue;
      }
      const uint64_t trace_id = request.context.trace_id;
      request.promise.set_value(
          Status::Unavailable("injected transient predict failure"));
      if (traced) {
        TraceTerminal(tracer, trace_id, "unavailable", start_ns,
                      /*tail_keep=*/true);
      }
    }
    return;
  }

  // Degradation rung 2: no usable model at all — majority class from the
  // label prior, or the pre-degradation error when none is configured.
  if (model == nullptr) {
    if (!options_.label_prior.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.degraded += live.size();
    }
    for (Request& request : live) {
      if (AnswerWithLabelPrior(request, start)) continue;
      request.promise.set_value(
          Status::FailedPrecondition("no active model in the registry"));
    }
    return;
  }

  // Per-request validation first, so one malformed vector fails only its own
  // future instead of poisoning the batch.
  const size_t expected = static_cast<size_t>(model->num_input_features);
  std::vector<std::vector<double>> rows;
  std::vector<size_t> row_to_request;
  rows.reserve(live.size());
  row_to_request.reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].features.size() != expected) {
      const uint64_t trace_id = live[i].context.trace_id;
      live[i].promise.set_value(Status::InvalidArgument(StrPrintf(
          "feature vector has %zu values, model '%s' expects %zu",
          live[i].features.size(), model->version.c_str(), expected)));
      if (traced) {
        TraceTerminal(tracer, trace_id, "failed", start_ns,
                      /*tail_keep=*/true);
      }
      continue;
    }
    rows.push_back(std::move(live[i].features));
    row_to_request.push_back(i);
  }
  if (rows.empty()) return;
  const auto predict_start = std::chrono::steady_clock::now();
  Result<std::vector<Prediction>> predictions = model->PredictBatch(rows);
  const auto done = std::chrono::steady_clock::now();
  const uint64_t done_ns = traced ? tracer.ToNs(done) : 0;
  if (!predictions.ok()) {
    for (const size_t i : row_to_request) {
      const uint64_t trace_id = live[i].context.trace_id;
      live[i].promise.set_value(predictions.status());
      if (traced) {
        TraceTerminal(tracer, trace_id, "failed", done_ns,
                      /*tail_keep=*/true);
      }
    }
    return;
  }
  if (level == DegradationLevel::kNone) {
    std::lock_guard<std::mutex> lock(last_good_mu_);
    last_good_ = model;
  } else {
    metric_degraded_.Of("previous_model")
        .Increment(static_cast<uint64_t>(row_to_request.size()));
    std::lock_guard<std::mutex> lock(mu_);
    counters_.degraded += row_to_request.size();
  }
  const uint64_t predict_start_ns = traced ? tracer.ToNs(predict_start) : 0;
  std::vector<Prediction>& values = predictions.value();

  // Shadow scoring: the candidate answers the exact rows the active model
  // just served. Its labels ride along inside the Prediction (never served
  // as the answer) and the per-batch agreement/latency tallies feed the
  // promotion policy. Only healthy active answers are compared — the
  // degraded rungs would skew the verdict. Tallies land in the evaluator
  // before any promise resolves, so a driver that has gathered every
  // future is guaranteed to see the complete window.
  uint64_t shadow_start_ns = 0;
  uint64_t shadow_done_ns = 0;
  if (level == DegradationLevel::kNone && lease.shadow != nullptr &&
      options_.shadow_evaluator != nullptr) {
    const auto shadow_start = std::chrono::steady_clock::now();
    Result<std::vector<Prediction>> shadowed =
        lease.shadow->PredictBatch(rows);
    const auto shadow_done = std::chrono::steady_clock::now();
    if (shadowed.ok()) {
      size_t agreements = 0;
      for (size_t r = 0; r < row_to_request.size(); ++r) {
        values[r].shadow_label = (*shadowed)[r].label;
        values[r].shadow_version = lease.shadow->version;
        if ((*shadowed)[r].label == values[r].label) ++agreements;
      }
      options_.shadow_evaluator->ObserveBatch(
          lease.shadow->version, row_to_request.size(), agreements,
          std::chrono::duration<double>(done - predict_start).count(),
          std::chrono::duration<double>(shadow_done - shadow_start).count());
      if (traced) {
        shadow_start_ns = tracer.ToNs(shadow_start);
        shadow_done_ns = tracer.ToNs(shadow_done);
      }
    }
  }

  for (size_t r = 0; r < row_to_request.size(); ++r) {
    Request& request = live[row_to_request[r]];
    values[r].degradation = level;
    values[r].latency_seconds =
        std::chrono::duration<double>(done - request.enqueue).count();
    uint64_t exemplar_id = 0;
    const uint64_t trace_id = request.context.trace_id;
    if (traced && trace_id != 0) {
      tracer.RecordSpan(trace_id, "batch", obs::TracePhase::kBatch, start_ns,
                        done_ns, static_cast<uint64_t>(live.size()));
      tracer.RecordSpan(trace_id, "predict", obs::TracePhase::kPredict,
                        predict_start_ns, done_ns,
                        static_cast<uint64_t>(rows.size()));
      if (values[r].shadow_label >= 0 && shadow_done_ns != 0) {
        tracer.RecordSpan(trace_id, "shadow", obs::TracePhase::kPredict,
                          shadow_start_ns, shadow_done_ns,
                          static_cast<uint64_t>(rows.size()));
      }
      if (level == DegradationLevel::kPreviousModel) {
        tracer.RecordInstant(trace_id, "degraded/previous_model",
                             obs::TracePhase::kDegraded, done_ns);
      }
      const bool tail_keep = level != DegradationLevel::kNone || fault_hit;
      TraceTerminal(tracer, trace_id, "done", done_ns, tail_keep);
      // Exemplars must resolve inside the trace dump: attach the id only
      // when this trace is exported (head-sampled or just tail-kept).
      if (tail_keep || tracer.Sampled(trace_id)) exemplar_id = trace_id;
    }
    metric_latency_.Observe(values[r].latency_seconds, exemplar_id);
    request.promise.set_value(std::move(values[r]));
  }
}

}  // namespace trajkit::serve
