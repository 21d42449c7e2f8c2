#include "serve/result_store.h"

#include <utility>

#include "common/require.h"

namespace qs {

ResultStore::ResultStore(std::size_t capacity, double ttl_seconds,
                         const obs::Clock* clock,
                         obs::MetricsRegistry* registry)
    : clock_(clock != nullptr ? clock : &obs::SteadyClock::instance()),
      owned_registry_(registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>(1)
                          : nullptr),
      registry_(registry != nullptr ? registry : owned_registry_.get()),
      capacity_(capacity),
      ttl_(obs::to_duration(ttl_seconds)) {
  require(capacity > 0, "ResultStore: capacity must be positive");
  require(ttl_seconds > 0.0 && ttl_seconds <= obs::kMaxSeconds,
          "ResultStore: ttl must be in (0, 1e9] seconds");
  stored_id_ = registry_->counter("serve.result_store.stored");
  evicted_id_ = registry_->counter("serve.result_store.evicted");
  expired_id_ = registry_->counter("serve.result_store.expired");
  size_id_ = registry_->gauge("serve.result_store.size");
}

void ResultStore::sweep_locked(Clock::time_point now, obs::MetricsTxn& txn) {
  while (!order_.empty()) {
    auto it = entries_.find(order_.front());
    if (it->second.expires_at > now) break;  // oldest still live: all are
    entries_.erase(it);
    order_.pop_front();
    txn.add(expired_id_);
    txn.gauge_add(size_id_, -1);
  }
}

void ResultStore::put(JobId id, ExecutionResult result,
                      Clock::time_point now) {
  // Declared before the lock so its destructor commits the whole update
  // group after the store mutex is released (mutex_ stays a leaf).
  obs::MetricsTxn txn(*registry_);
  MutexLock lock(mutex_);
  sweep_locked(now, txn);
  auto it = entries_.find(id);
  if (it != entries_.end()) {  // replace in place, refresh age
    order_.erase(it->second.position);
    entries_.erase(it);
    txn.gauge_add(size_id_, -1);
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
    txn.add(evicted_id_);
    txn.gauge_add(size_id_, -1);
  }
  order_.push_back(id);
  entries_.emplace(
      id, Entry{std::move(result), now + ttl_, std::prev(order_.end())});
  txn.add(stored_id_);
  txn.gauge_add(size_id_, 1);
}

std::optional<ExecutionResult> ResultStore::get(JobId id,
                                                Clock::time_point now) {
  obs::MetricsTxn txn(*registry_);
  MutexLock lock(mutex_);
  sweep_locked(now, txn);
  auto it = entries_.find(id);
  if (it == entries_.end() || it->second.expires_at <= now)
    return std::nullopt;
  return it->second.result;
}

void ResultStore::sweep(Clock::time_point now) {
  obs::MetricsTxn txn(*registry_);
  MutexLock lock(mutex_);
  sweep_locked(now, txn);
}

std::size_t ResultStore::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

std::size_t ResultStore::evicted() const {
  return registry_->snapshot().counter("serve.result_store.evicted");
}

std::size_t ResultStore::expired() const {
  return registry_->snapshot().counter("serve.result_store.expired");
}

}  // namespace qs
