// Thread-safe versioned store of calibration snapshots.
//
// The store is the single source of truth for "what does the device look
// like right now": characterization runs and drift replays publish
// snapshots with strictly increasing epochs, and every consumer -- the
// serve layer's recalibration trigger, sessions pinning a snapshot for
// mitigation, tests replaying a device history -- reads latest() or a
// specific epoch. Mirrors the common/keyed_cache.h idioms: one mutex,
// shared_ptr-pinned immutable artifacts (eviction never invalidates a
// snapshot still in use), monotonic telemetry counters.
#ifndef QS_CALIB_STORE_H
#define QS_CALIB_STORE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "calib/snapshot.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qs {

class CalibrationStore {
 public:
  using Ptr = std::shared_ptr<const CalibrationSnapshot>;

  static constexpr std::size_t kDefaultCapacity = 64;

  /// `history_capacity` bounds retained epochs (oldest evicted first);
  /// must be >= 1 so latest() always survives. Publishes bump
  /// `calib.store.published` in `registry` and record a service-level
  /// kRecalibrate span (epoch attribute) in `tracer`; either may be null.
  explicit CalibrationStore(std::size_t history_capacity = kDefaultCapacity,
                            obs::MetricsRegistry* registry = nullptr,
                            obs::Tracer* tracer = nullptr);

  /// Publishes a snapshot as the new latest. Validates it and requires
  /// its epoch to strictly exceed the current latest epoch (versioned
  /// store: time only moves forward). Returns the stored pointer.
  Ptr publish(CalibrationSnapshot snapshot);

  /// The most recent snapshot, or nullptr when nothing was published.
  Ptr latest() const;

  /// The retained snapshot with the given epoch, or nullptr when it was
  /// never published or already evicted.
  Ptr at_epoch(std::uint64_t epoch) const;

  /// Epoch of latest(), or 0 when the store is empty ("uncalibrated").
  std::uint64_t latest_epoch() const;

  std::size_t size() const;          ///< retained snapshots
  std::size_t capacity() const { return capacity_; }
  std::size_t published() const;     ///< lifetime publish count

 private:
  const std::size_t capacity_;
  /// Observability sinks (non-owning, nullable), fixed at construction.
  obs::MetricsRegistry* const registry_;
  obs::Tracer* const tracer_;
  obs::CounterId published_id_;
  obs::GaugeId retained_id_;
  /// Leaf lock: snapshot validation and allocation happen before it is
  /// taken, so publishers never hold it across heavy work.
  mutable Mutex mutex_;
  std::deque<Ptr> history_ QS_GUARDED_BY(mutex_);  ///< oldest at the front
  std::size_t published_ QS_GUARDED_BY(mutex_) = 0;
};

}  // namespace qs

#endif  // QS_CALIB_STORE_H
