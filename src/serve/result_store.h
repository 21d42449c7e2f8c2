// Bounded, TTL-evicting result store for the serve subsystem.
//
// Workers deposit every finished job's ExecutionResult here so tenants
// can fetch results by JobId after the JobHandle is gone (the "submit,
// walk away, poll later" pattern of a shared device queue). Two bounds
// keep memory finite on a long-running service:
//   - TTL: entries older than `ttl_seconds` are dropped (lazily, on the
//     next put/get/sweep -- there is no background reaper thread);
//   - capacity: when full, the oldest entry is evicted FIFO.
// Unlike the queue, the store is internally synchronized: workers put and
// tenant threads get concurrently.
//
// Time flows through an injected obs::Clock (real by default, virtual in
// tests), so TTL expiry is drivable deterministically; the explicit
// `now` overloads remain for callers that already hold a timestamp.
#ifndef QS_SERVE_RESULT_STORE_H
#define QS_SERVE_RESULT_STORE_H

#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "exec/request.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/job.h"

namespace qs {

class ResultStore {
 public:
  using Clock = obs::TimeBase;

  /// `ttl_seconds` must be in (0, obs::kMaxSeconds]. `clock` null = wall
  /// clock; `registry` null = the store keeps a small private registry
  /// (the accessors below still work). The store publishes
  /// `serve.result_store.stored/.evicted/.expired` counters and a `.size`
  /// gauge.
  ResultStore(std::size_t capacity, double ttl_seconds,
              const obs::Clock* clock = nullptr,
              obs::MetricsRegistry* registry = nullptr);

  /// Inserts (or replaces) the result for `id`, stamped at `now`. Expired
  /// entries are swept first; then, if still full, the oldest entry is
  /// evicted.
  void put(JobId id, ExecutionResult result, Clock::time_point now);
  void put(JobId id, ExecutionResult result) {
    put(id, std::move(result), clock_->now());
  }

  /// Fetches a copy of the result for `id`, or nullopt when it was never
  /// stored, already evicted, or has expired as of `now`.
  std::optional<ExecutionResult> get(JobId id, Clock::time_point now);
  std::optional<ExecutionResult> get(JobId id) { return get(id, clock_->now()); }

  /// Drops every entry whose TTL has passed as of `now`.
  void sweep(Clock::time_point now);
  void sweep() { sweep(clock_->now()); }

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped because the store was full (not TTL): the registry's
  /// `serve.result_store.evicted` counter.
  std::size_t evicted() const;
  /// Entries dropped because their TTL passed: the registry's
  /// `serve.result_store.expired` counter.
  std::size_t expired() const;

 private:
  /// Sweeps expired entries, counting drops into `txn` (committed by the
  /// caller after the mutex is released, keeping this a leaf lock).
  void sweep_locked(Clock::time_point now, obs::MetricsTxn& txn)
      QS_REQUIRES(mutex_);

  struct Entry {
    ExecutionResult result;
    Clock::time_point expires_at;
    std::list<JobId>::iterator position;
  };

  const obs::Clock* clock_;
  /// Backing registry when none was injected (single shard: the store's
  /// own mutex already serializes most updates).
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;  ///< never null
  obs::CounterId stored_id_;
  obs::CounterId evicted_id_;
  obs::CounterId expired_id_;
  obs::GaugeId size_id_;
  /// Leaf lock (nothing else is acquired under it).
  mutable Mutex mutex_;
  const std::size_t capacity_;
  const Clock::duration ttl_;
  /// Insertion order, oldest first.
  std::list<JobId> order_ QS_GUARDED_BY(mutex_);
  std::unordered_map<JobId, Entry> entries_ QS_GUARDED_BY(mutex_);
};

}  // namespace qs

#endif  // QS_SERVE_RESULT_STORE_H
