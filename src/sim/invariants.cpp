#include "sim/invariants.h"

#include <cstdint>
#include <map>
#include <string>

namespace qs {
namespace sim {
namespace {

using obs::JournalEvent;
using obs::JournalEventType;

/// Per-job replay state.
struct JobTrace {
  bool submitted = false;
  bool dispatched = false;
  bool terminal = false;
  JournalEventType terminal_type = JournalEventType::kSubmitted;
  std::uint64_t submitted_ns = 0;
  std::uint64_t dispatched_ns = 0;
  std::uint64_t last_ns = 0;
  std::uint64_t deadline_ns = 0;
};

std::string job_tag(std::uint64_t job) {
  return "job " + std::to_string(job);
}

}  // namespace

std::vector<std::string> check_journal(const obs::Journal::Parsed& journal,
                                       bool complete) {
  std::vector<std::string> violations;
  const auto report = [&](std::string what) {
    violations.push_back(std::move(what));
  };

  std::map<std::uint64_t, JobTrace> jobs;
  // Event-derived counters, replayed in canonical order; compared
  // against every kSnapshot's recorded counters.
  std::uint64_t submitted = 0, dispatched = 0, completed = 0, failed = 0,
                cancelled = 0, expired = 0, recalibrations = 0;
  std::uint64_t last_epoch = 0;
  std::uint64_t last_ns = 0;

  for (const JournalEvent& e : journal.events) {
    if (e.time_ns < last_ns)
      report("event out of canonical order at t=" +
             std::to_string(e.time_ns));
    last_ns = e.time_ns;

    switch (e.type) {
      case JournalEventType::kSubmitted: {
        JobTrace& j = jobs[e.job];
        if (e.job == 0) report("kSubmitted without a job id");
        if (j.submitted) report(job_tag(e.job) + " submitted twice");
        j.submitted = true;
        j.submitted_ns = e.time_ns;
        j.last_ns = e.time_ns;
        j.deadline_ns = e.deadline_ns;
        ++submitted;
        break;
      }
      case JournalEventType::kDispatched: {
        JobTrace& j = jobs[e.job];
        if (!j.submitted)
          report(job_tag(e.job) + " dispatched before submission");
        if (j.dispatched) report(job_tag(e.job) + " dispatched twice");
        if (j.terminal)
          report(job_tag(e.job) + " dispatched after a terminal state");
        if (e.time_ns < j.last_ns)
          report(job_tag(e.job) + " dispatch time regressed");
        // The scheduler only dispatches while now < deadline; a
        // dispatch at/after the deadline means the expiry check tore.
        if (j.deadline_ns != 0 && e.time_ns >= j.deadline_ns)
          report(job_tag(e.job) + " dispatched at/after its deadline");
        if (!j.dispatched) ++dispatched;
        j.dispatched = true;
        j.dispatched_ns = e.time_ns;
        j.last_ns = e.time_ns;
        break;
      }
      case JournalEventType::kCompleted:
      case JournalEventType::kFailed:
      case JournalEventType::kCancelled:
      case JournalEventType::kExpired: {
        JobTrace& j = jobs[e.job];
        if (!j.submitted)
          report(job_tag(e.job) + " reached " +
                 std::string(obs::to_string(e.type)) +
                 " before submission");
        if (j.terminal)
          report(job_tag(e.job) + " reached a second terminal state (" +
                 obs::to_string(j.terminal_type) + " then " +
                 obs::to_string(e.type) + ")");
        if (e.time_ns < j.last_ns)
          report(job_tag(e.job) + " terminal time regressed");
        const bool ran = e.type == JournalEventType::kCompleted ||
                         e.type == JournalEventType::kFailed;
        if (ran && !j.dispatched)
          report(job_tag(e.job) + " finished without a dispatch");
        if (!ran && j.dispatched)
          report(job_tag(e.job) + " " +
                 std::string(obs::to_string(e.type)) +
                 " after being dispatched");
        // Expiry fires only once the deadline has passed at a pop.
        if (e.type == JournalEventType::kExpired) {
          if (j.deadline_ns == 0)
            report(job_tag(e.job) + " expired without a deadline");
          else if (e.time_ns < j.deadline_ns)
            report(job_tag(e.job) + " expired before its deadline");
        }
        j.terminal = true;
        j.terminal_type = e.type;
        j.last_ns = e.time_ns;
        if (e.type == JournalEventType::kCompleted) ++completed;
        if (e.type == JournalEventType::kFailed) ++failed;
        if (e.type == JournalEventType::kCancelled) ++cancelled;
        if (e.type == JournalEventType::kExpired) ++expired;
        break;
      }
      case JournalEventType::kRecalibrated: {
        ++recalibrations;
        if (e.epoch <= last_epoch)
          report("recalibration epoch not strictly monotone (" +
                 std::to_string(last_epoch) + " -> " +
                 std::to_string(e.epoch) + ")");
        last_epoch = e.epoch;
        break;
      }
      case JournalEventType::kPaused:
      case JournalEventType::kResumed:
      case JournalEventType::kShutdown:
        break;
      case JournalEventType::kSnapshot: {
        const obs::JournalCounters& c = e.counters;
        const auto mismatch = [&](const char* name, std::uint64_t recorded,
                                  std::uint64_t derived) {
          if (recorded != derived)
            report("snapshot at t=" + std::to_string(e.time_ns) + ": " +
                   name + "=" + std::to_string(recorded) +
                   " but events say " + std::to_string(derived));
        };
        mismatch("submitted", c.submitted, submitted);
        mismatch("completed", c.completed, completed);
        mismatch("failed", c.failed, failed);
        mismatch("cancelled", c.cancelled, cancelled);
        mismatch("expired", c.expired, expired);
        mismatch("recalibrations", c.recalibrations, recalibrations);
        mismatch("cepoch", c.calib_epoch, last_epoch);
        // The gauges are derivable too: queued = submitted minus every
        // way out of the queue; running = dispatched minus finished.
        mismatch("queued", c.queued,
                 submitted - dispatched - cancelled - expired);
        mismatch("running", c.running, dispatched - completed - failed);
        if (!c.balanced())
          report("snapshot at t=" + std::to_string(e.time_ns) +
                 " violates the balance law");
        break;
      }
    }
  }

  if (complete) {
    for (const auto& [id, j] : jobs) {
      if (!j.terminal)
        report(job_tag(id) + " never reached a terminal state");
      if (j.dispatched && !j.terminal)
        report(job_tag(id) + " left running at end of journal");
    }
  }
  return violations;
}

}  // namespace sim
}  // namespace qs
