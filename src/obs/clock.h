// The one sanctioned time source in src/: a virtualizable Clock.
//
// Every timestamp in the stack -- queue ages, TTL sweeps, span
// boundaries, stopwatches -- flows through qs::obs::Clock so that
// (a) production reads the monotonic steady clock exactly once per
// observation, and (b) tests and the ROADMAP scenario engine can swap
// in ManualClock and replay a million-job workload under virtual time,
// bitwise-identically. Direct use of std::chrono::steady_clock /
// high_resolution_clock anywhere else in src/ is banned by the `clock`
// rule in tools/lint_invariants.py (same-line `lint:allow(clock)`
// escape, reason mandatory -- mirroring the raw-sync mutex rule).
// Like thread_annotations.h, this wrapper home allowlists each raw
// clock use individually.
#ifndef QS_OBS_CLOCK_H
#define QS_OBS_CLOCK_H

#include <chrono>
#include <cstdint>

#include "common/thread_annotations.h"

namespace qs {
namespace obs {

/// Time base shared by both clock implementations. ManualClock reuses
/// steady_clock's time_point/duration types (never its `now()`), so
/// real and virtual timestamps are interchangeable in every API.
using TimeBase = std::chrono::steady_clock;  // lint:allow(clock): wrapper home -- type alias only, now() below
using TimePoint = TimeBase::time_point;
using Duration = TimeBase::duration;

/// Longest span of seconds a deadline, TTL or clock step may take: 1e9 s
/// (~31.7 years), far enough inside int64 nanoseconds (~9.2e9 s) that
/// `now + d` stays representable. Inputs are checked where they enter the
/// program with `s <= kMaxSeconds`, which NaN and +inf fail.
inline constexpr double kMaxSeconds = 1e9;

/// The one seconds-to-Duration conversion: zero for s <= 0 or NaN, and
/// saturating at kMaxSeconds, so no double overflows the count.
inline Duration to_duration(double seconds) {
  if (!(seconds > 0.0)) return Duration::zero();
  const double s = seconds < kMaxSeconds ? seconds : kMaxSeconds;
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

/// Abstract monotonic time source. Implementations must be
/// thread-safe and monotonic: `now()` never decreases.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePoint now() const = 0;
};

/// Production clock: the process-wide monotonic clock. Stateless;
/// share the singleton instead of constructing copies.
class SteadyClock final : public Clock {
 public:
  TimePoint now() const override {
    return TimeBase::now();  // lint:allow(clock): wrapper home -- the one sanctioned raw read
  }

  /// Process-wide shared instance (stateless, so one is enough).
  static const SteadyClock& instance() {
    static const SteadyClock clock;
    return clock;
  }
};

/// Virtual clock for deterministic tests and scenario replay: time
/// moves only when `advance()` is called. Starts at `start_ns`
/// nanoseconds past the epoch (default 0, so exported trace
/// timestamps are small, stable numbers).
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::uint64_t start_ns = 0)
      : now_(TimePoint(std::chrono::nanoseconds(start_ns))) {}

  TimePoint now() const override {
    MutexLock lock(mutex_);
    return now_;
  }

  /// Moves time forward. Negative durations are clamped to zero so the
  /// monotonicity contract survives caller arithmetic bugs.
  void advance(Duration d) {
    MutexLock lock(mutex_);
    if (d.count() > 0) now_ += d;
  }

  void advance_ns(std::uint64_t ns) {
    advance(std::chrono::duration_cast<Duration>(std::chrono::nanoseconds(ns)));
  }

  void advance_seconds(double s) { advance(to_duration(s)); }

 private:
  mutable Mutex mutex_;  ///< Leaf lock: nothing is acquired under it.
  TimePoint now_ QS_GUARDED_BY(mutex_);
};

/// Elapsed seconds from `a` to `b` (negative if b precedes a).
inline double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds since the time base's epoch; the integer form every
/// exported span timestamp uses.
inline std::uint64_t nanos_since_epoch(TimePoint t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace obs
}  // namespace qs

#endif  // QS_OBS_CLOCK_H
