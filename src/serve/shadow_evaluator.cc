#include "serve/shadow_evaluator.h"

namespace trajkit::serve {

double ShadowEvaluator::WindowStats::accuracy_delta() const {
  if (labeled == 0) return 0.0;
  return (static_cast<double>(shadow_correct) -
          static_cast<double>(active_correct)) /
         static_cast<double>(labeled);
}

ShadowEvaluator::ShadowEvaluator()
    : metric_samples_(
          obs::MetricsRegistry::Global().GetCounter("serve.shadow.samples")),
      metric_agreement_(
          obs::MetricsRegistry::Global().GetCounter("serve.shadow.agreement")),
      metric_accuracy_delta_(obs::MetricsRegistry::Global().GetGauge(
          "serve.shadow.accuracy_delta")),
      metric_latency_ratio_(obs::MetricsRegistry::Global().GetGauge(
          "serve.shadow.latency_ratio")) {}

void ShadowEvaluator::StartWindow(std::string_view shadow_version,
                                  double cost_ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  window_ = WindowStats{};
  window_.version = std::string(shadow_version);
  window_.open = true;
  window_.cost_ratio = cost_ratio;
  active_seconds_ = 0.0;
  shadow_seconds_ = 0.0;
  ExportGaugesLocked();
}

void ShadowEvaluator::EndWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  window_.open = false;
}

void ShadowEvaluator::ObserveBatch(std::string_view shadow_version,
                                   size_t scored, size_t agreements,
                                   double active_seconds,
                                   double shadow_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!window_.open || window_.version != shadow_version) return;
  window_.scored += scored;
  window_.agreements += agreements;
  active_seconds_ += active_seconds;
  shadow_seconds_ += shadow_seconds;
  metric_samples_.Increment(static_cast<uint64_t>(scored));
  metric_agreement_.Increment(static_cast<uint64_t>(agreements));
  ExportGaugesLocked();
}

void ShadowEvaluator::ObserveOutcome(std::string_view shadow_version,
                                     int true_class, int active_label,
                                     int shadow_label) {
  if (shadow_label < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!window_.open || window_.version != shadow_version) return;
  ++window_.labeled;
  if (active_label == true_class) ++window_.active_correct;
  if (shadow_label == true_class) ++window_.shadow_correct;
  ExportGaugesLocked();
}

ShadowEvaluator::WindowStats ShadowEvaluator::window() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_;
}

void ShadowEvaluator::ExportGaugesLocked() {
  metric_accuracy_delta_.Set(window_.accuracy_delta());
  metric_latency_ratio_.Set(
      active_seconds_ > 0.0 ? shadow_seconds_ / active_seconds_ : 0.0);
}

}  // namespace trajkit::serve
