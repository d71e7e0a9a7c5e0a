#ifndef TRAJKIT_COMMON_RETRY_H_
#define TRAJKIT_COMMON_RETRY_H_

// Backoff for transient failures: a jittered exponential Backoff schedule,
// deterministic under a seeded RNG so chaos-replay runs are reproducible.
// The serving replay loop sleeps one delay of it per round of requests it
// resubmits after a retryable status (fault-injected Unavailable).

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"

namespace trajkit {

/// Delay before the first retry, before jitter.
inline constexpr double kBackoffInitialSeconds = 0.001;
/// Growth factor per retry.
inline constexpr double kBackoffMultiplier = 2.0;
/// Upper bound on the un-jittered delay.
inline constexpr double kBackoffMaxSeconds = 0.050;
/// Fraction of the delay randomized away: the emitted delay is uniform in
/// [(1 - kBackoffJitter) * base, base].
inline constexpr double kBackoffJitter = 0.5;

/// True for status codes worth retrying: transient failures
/// (kUnavailable), as opposed to deterministic errors (bad request,
/// missing model) that retrying cannot fix.
bool IsRetryableStatus(const Status& status);

/// A jittered exponential backoff schedule. Two Backoff instances built
/// from the same seed emit the same delay sequence (the jitter draws come
/// from a private seeded Rng).
class Backoff {
 public:
  explicit Backoff(uint64_t seed) : rng_(seed) {}

  /// The next delay in seconds: kBackoffInitialSeconds *
  /// kBackoffMultiplier^k clamped to kBackoffMaxSeconds, jittered down by
  /// up to kBackoffJitter.
  double NextDelaySeconds();

 private:
  Rng rng_;
  double next_base_ = kBackoffInitialSeconds;
};

/// Blocks the calling thread for `seconds` (no-op for <= 0).
void SleepForSeconds(double seconds);

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_RETRY_H_
