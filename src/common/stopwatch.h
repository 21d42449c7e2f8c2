// Monotonic stopwatch for coarse timing in benches, examples, and
// telemetry, built on the sanctioned qs::obs::Clock time source so
// timed code is virtual-time-ready (inject a ManualClock in tests).
#ifndef QS_COMMON_STOPWATCH_H
#define QS_COMMON_STOPWATCH_H

#include "obs/clock.h"

namespace qs {

/// Starts timing on construction; `seconds()` reports elapsed time on
/// the injected clock; `reset()` restarts. Default-constructed
/// stopwatches run on the real steady clock.
class Stopwatch {
 public:
  explicit Stopwatch(const obs::Clock& clock = obs::SteadyClock::instance())
      : clock_(&clock), start_(clock_->now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = clock_->now(); }

  /// Elapsed seconds since construction or last reset.
  double seconds() const {
    return obs::seconds_between(start_, clock_->now());
  }

 private:
  const obs::Clock* clock_;  ///< non-owning; must outlive the stopwatch
  obs::TimePoint start_;
};

}  // namespace qs

#endif  // QS_COMMON_STOPWATCH_H
