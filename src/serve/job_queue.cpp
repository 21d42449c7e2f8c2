#include "serve/job_queue.h"

#include <utility>

namespace qs {

void FairShareQueue::push(Record job) {
  by_priority_[job->priority][job->tenant].push_back(job);
  by_key_[job->plan_key].push_back(std::move(job));
  ++size_;
}

namespace {

void erase_record(std::deque<FairShareQueue::Record>& lane,
                  const FairShareQueue::Record& job) {
  for (auto it = lane.begin(); it != lane.end(); ++it) {
    if (it->get() == job.get()) {
      lane.erase(it);
      return;
    }
  }
}

}  // namespace

void FairShareQueue::erase_from_priority(const Record& job) {
  auto pit = by_priority_.find(job->priority);
  if (pit == by_priority_.end()) return;
  auto lit = pit->second.find(job->tenant);
  if (lit != pit->second.end()) {
    erase_record(lit->second, job);
    if (lit->second.empty()) pit->second.erase(lit);
  }
  if (pit->second.empty()) {
    last_tenant_.erase(pit->first);
    by_priority_.erase(pit);
  }
}

void FairShareQueue::erase_from_key(const Record& job) {
  auto kit = by_key_.find(job->plan_key);
  if (kit == by_key_.end()) return;
  erase_record(kit->second, job);
  if (kit->second.empty()) by_key_.erase(kit);
}

void FairShareQueue::remove(const Record& job) {
  erase_from_priority(job);
  erase_from_key(job);
  --size_;
}

FairShareQueue::Record FairShareQueue::take_live(
    std::deque<Record>& lane, Clock::time_point now,
    std::vector<Record>& expired) {
  while (!lane.empty()) {
    Record r = lane.front();
    lane.pop_front();
    --size_;
    if (r->has_deadline && now >= r->deadline) {
      expired.push_back(std::move(r));
      continue;
    }
    return r;
  }
  return nullptr;
}

FairShareQueue::Pop FairShareQueue::pop_batch(std::size_t max_batch,
                                              Clock::time_point now) {
  Pop out;
  if (max_batch == 0) max_batch = 1;

  // 1+2+3: seed job = highest priority, round-robin tenant, FIFO lane.
  Record seed;
  for (auto pit = by_priority_.begin(); pit != by_priority_.end();) {
    auto& lanes = pit->second;
    std::string& cursor = last_tenant_[pit->first];
    // Cyclic tenant order: names after the cursor first, then wrap.
    std::vector<std::map<std::string, std::deque<Record>>::iterator> order;
    order.reserve(lanes.size());
    for (auto it = lanes.upper_bound(cursor); it != lanes.end(); ++it)
      order.push_back(it);
    for (auto it = lanes.begin();
         it != lanes.end() && it->first <= cursor; ++it)
      order.push_back(it);

    for (auto it : order) {
      if ((seed = take_live(it->second, now, out.expired))) {
        cursor = it->first;
        break;
      }
    }
    // Drop exhausted lanes (and, when fully drained, the priority level).
    for (auto it = lanes.begin(); it != lanes.end();)
      it = it->second.empty() ? lanes.erase(it) : std::next(it);
    if (lanes.empty()) {
      last_tenant_.erase(pit->first);
      pit = by_priority_.erase(pit);
    } else {
      ++pit;
    }
    if (seed) break;
  }
  // Jobs that left the queue through a priority lane (the seed and any
  // expirations diverted while scanning, seed found or not) leave a
  // by_key_ entry behind; reclaim it now so no record outlives its queue
  // lifetime (with max_batch == 1 the gather loop below never runs).
  const std::size_t expired_from_lanes = out.expired.size();
  for (std::size_t i = 0; i < expired_from_lanes; ++i)
    erase_from_key(out.expired[i]);
  if (!seed) return out;
  out.batch.push_back(seed);
  erase_from_key(seed);

  // 4: gather same-plan jobs into the batch, submission order.
  auto kit = by_key_.find(seed->plan_key);
  if (kit != by_key_.end()) {
    std::deque<Record>& lane = kit->second;
    while (!lane.empty() && out.batch.size() < max_batch) {
      Record r = take_live(lane, now, out.expired);
      if (!r) break;
      out.batch.push_back(std::move(r));
    }
    if (lane.empty()) by_key_.erase(kit);
  }
  // Jobs that left the queue through the by_key_ lane (gathered batch
  // mates and any expirations found there) mirror the cleanup above.
  for (std::size_t i = 1; i < out.batch.size(); ++i)
    erase_from_priority(out.batch[i]);
  for (std::size_t i = expired_from_lanes; i < out.expired.size(); ++i)
    erase_from_priority(out.expired[i]);
  return out;
}

std::size_t FairShareQueue::indexed_records() const {
  std::size_t keyed = 0;
  for (const auto& [key, lane] : by_key_) {
    (void)key;
    keyed += lane.size();
  }
  std::size_t laned = 0;
  for (const auto& [priority, lanes] : by_priority_) {
    (void)priority;
    for (const auto& [tenant, lane] : lanes) {
      (void)tenant;
      laned += lane.size();
    }
  }
  // Both indexes hold every queued record exactly once; report the larger
  // so a cleanup bug in either structure shows up as a nonzero count.
  return keyed > laned ? keyed : laned;
}

std::vector<FairShareQueue::Record> FairShareQueue::take_all() {
  std::vector<Record> all;
  all.reserve(size_);
  for (auto& level : by_priority_)
    for (auto& lane : level.second)
      for (Record& r : lane.second) all.push_back(std::move(r));
  by_priority_.clear();
  last_tenant_.clear();
  by_key_.clear();
  size_ = 0;
  return all;
}

}  // namespace qs
