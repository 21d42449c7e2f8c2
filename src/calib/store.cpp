#include "calib/store.h"

#include <utility>

#include "common/require.h"

namespace qs {

CalibrationStore::CalibrationStore(std::size_t history_capacity,
                                   obs::MetricsRegistry* registry,
                                   obs::Tracer* tracer)
    : capacity_(history_capacity), registry_(registry), tracer_(tracer) {
  require(capacity_ >= 1, "CalibrationStore: capacity must be >= 1");
  if (registry_ != nullptr) {
    published_id_ = registry_->counter("calib.store.published");
    retained_id_ = registry_->gauge("calib.store.retained");
  }
}

CalibrationStore::Ptr CalibrationStore::publish(
    CalibrationSnapshot snapshot) {
  // Service-level span (job 0) covering validation + store insert.
  obs::SpanTimer span =
      tracer_ ? tracer_->span(obs::Phase::kRecalibrate) : obs::SpanTimer();
  span.set_epoch(snapshot.epoch);
  snapshot.validate();
  auto stored =
      std::make_shared<const CalibrationSnapshot>(std::move(snapshot));
  std::int64_t retained_delta = 1;
  {
    MutexLock lock(mutex_);
    if (!history_.empty())
      require(stored->epoch > history_.back()->epoch,
              "CalibrationStore::publish: epoch must strictly increase");
    history_.push_back(stored);
    ++published_;
    while (history_.size() > capacity_) {
      history_.pop_front();
      --retained_delta;
    }
  }
  if (registry_ != nullptr) {
    obs::MetricsTxn txn(*registry_);
    txn.add(published_id_);
    txn.gauge_add(retained_id_, retained_delta);
  }
  return stored;
}

CalibrationStore::Ptr CalibrationStore::latest() const {
  MutexLock lock(mutex_);
  return history_.empty() ? nullptr : history_.back();
}

CalibrationStore::Ptr CalibrationStore::at_epoch(std::uint64_t epoch) const {
  MutexLock lock(mutex_);
  for (const Ptr& snap : history_)
    if (snap->epoch == epoch) return snap;
  return nullptr;
}

std::uint64_t CalibrationStore::latest_epoch() const {
  MutexLock lock(mutex_);
  return history_.empty() ? 0 : history_.back()->epoch;
}

std::size_t CalibrationStore::size() const {
  MutexLock lock(mutex_);
  return history_.size();
}

std::size_t CalibrationStore::published() const {
  MutexLock lock(mutex_);
  return published_;
}

}  // namespace qs
