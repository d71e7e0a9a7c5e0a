#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace trajkit {

bool IsRetryableStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

double Backoff::NextDelaySeconds() {
  const double base = next_base_;
  next_base_ = std::min(next_base_ * kBackoffMultiplier, kBackoffMaxSeconds);
  return base * (1.0 - kBackoffJitter * rng_.NextDouble());
}

void SleepForSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace trajkit
