// Priority + fair-share + plan-aware job queue for the serve subsystem.
//
// Scheduling policy, in order:
//   1. priority: the seed job of every batch comes from the highest
//      priority level with queued work;
//   2. fair share: within that level, tenants are served round-robin, so
//      a tenant that floods the queue cannot starve the others -- it only
//      competes for its own turn;
//   3. FIFO within a tenant's lane;
//   4. plan-aware batching: after the seed job is chosen, up to
//      max_batch-1 further queued jobs with the *same plan key* (same
//      compiled (circuit, noise, options) plan -- any tenant, any
//      priority) join the batch, so a burst of identical circuits is
//      dispatched as one batch sharing one CompiledCircuit.
//
// The queue only schedules. It reads nothing of a record but the fields
// frozen at submission (priority, tenant, plan key, deadline), never
// reads or writes `status`, and takes no record lock: a record is in the
// queue exactly while it is kQueued, and the service moves every job
// that leaves it along its lifecycle edge (ServiceCore::transition).
//
// The queue is NOT internally synchronized: the JobService serializes all
// queue calls under its own mutex. That external contract is
// machine-checked: the queue lives in ServiceCore as a
// QS_GUARDED_BY(mutex) member, so a clang -Wthread-safety build rejects
// any call made without the service mutex held.
//
// Every record is indexed twice (its tenant lane and its plan-key lane);
// whenever a job leaves the queue -- dispatched, expired, or cancelled --
// both entries are erased before the call returns, so the queue never
// pins a record (and its circuit copy) past its queue lifetime.
#ifndef QS_SERVE_JOB_QUEUE_H
#define QS_SERVE_JOB_QUEUE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/clock.h"
#include "serve/job.h"

namespace qs {

class FairShareQueue {
 public:
  using Record = std::shared_ptr<detail::JobRecord>;
  /// Time base of the dispatch timestamps handed to pop_batch; the
  /// caller reads them from the service's injected obs::Clock.
  using Clock = obs::TimeBase;

  /// One scheduling decision. Every record in it has left the queue but
  /// is still kQueued: the caller moves it along its edge.
  struct Pop {
    /// Jobs to dispatch, all sharing one plan key. Empty when nothing
    /// was dispatchable.
    std::vector<Record> batch;
    /// Jobs whose dispatch deadline had passed.
    std::vector<Record> expired;
  };

  /// Enqueues a kQueued job.
  void push(Record job);

  /// Erases one queued job's entries from both index structures
  /// (targeted scan of its tenant and plan-key lanes). Called on
  /// cancellation so a cancelled record is freed immediately instead of
  /// lingering in lanes no pop may ever revisit.
  void remove(const Record& job);

  /// Jobs in the queue now.
  std::size_t size() const { return size_; }

  /// Live records across both index structures must always agree; exposed
  /// for leak regression tests (0 once everything popped or cancelled).
  std::size_t indexed_records() const;

  /// Pops the next batch per the policy above, diverting jobs whose
  /// deadline is at or before `now` into `Pop::expired`.
  Pop pop_batch(std::size_t max_batch, Clock::time_point now);

  /// Empties the queue and returns every job it held, highest priority
  /// first, then by tenant name, FIFO within a tenant.
  std::vector<Record> take_all();

 private:
  /// Pops the next job from one lane, diverting expired jobs. Returns
  /// nullptr when the lane is exhausted.
  Record take_live(std::deque<Record>& lane, Clock::time_point now,
                   std::vector<Record>& expired);

  /// Targeted erasure of one record from one index structure.
  void erase_from_priority(const Record& job);
  void erase_from_key(const Record& job);

  /// Tenant lanes per priority, highest priority first.
  std::map<int, std::map<std::string, std::deque<Record>>, std::greater<int>>
      by_priority_;
  /// Round-robin cursor: the tenant served last, per priority.
  std::map<int, std::string> last_tenant_;
  /// Submission-ordered lane per plan key, for batch gathering.
  std::unordered_map<std::uint64_t, std::deque<Record>> by_key_;
  std::size_t size_ = 0;
};

}  // namespace qs

#endif  // QS_SERVE_JOB_QUEUE_H
