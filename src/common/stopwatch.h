#ifndef TRAJKIT_COMMON_STOPWATCH_H_
#define TRAJKIT_COMMON_STOPWATCH_H_

#include <chrono>

namespace trajkit {

/// Monotonic wall-clock stopwatch for coarse experiment timing.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_STOPWATCH_H_
