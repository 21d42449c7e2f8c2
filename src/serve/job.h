// Job descriptions and lifecycle records for the serve subsystem.
//
// A JobSpec is what a tenant hands the JobService: an ExecutionRequest
// plus a tenant identity, a priority, an optional dispatch deadline and
// a readout-mitigation flag. At submission the service freezes the
// spec's request in place: it owns the request's seed (when kAutoSeed),
// processor, readout snapshot and trace, and rejects a spec that sets
// the last two itself or whose deadline is NaN or above
// obs::kMaxSeconds. From then on the job's result is a pure function of
// that request, never of queue order, batching, or worker count (the
// serve determinism contract, see docs/ARCHITECTURE.md "Serve layer").
#ifndef QS_SERVE_JOB_H
#define QS_SERVE_JOB_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "exec/request.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace qs {

/// Monotonically increasing per-service job identifier (first job = 1).
using JobId = std::uint64_t;

/// Lifecycle of a job inside the service.
enum class JobStatus {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< dispatched onto a worker
  kDone,       ///< finished; result available
  kFailed,     ///< backend threw; error message available
  kCancelled,  ///< cancelled before dispatch (or at abort shutdown)
  kExpired,    ///< deadline passed before dispatch
};

/// Human-readable status name ("queued", "running", ...).
const char* to_string(JobStatus status);

/// True for the states a job can never leave.
inline bool is_terminal(JobStatus status) {
  return status != JobStatus::kQueued && status != JobStatus::kRunning;
}

/// One unit of tenant work: the ExecutionRequest to run plus serve's own
/// fields. Construct with the circuit, then chain `with_*` setters; set
/// the request's other fields on `request`:
///
///   JobSpec(circuit).with_tenant("qaoa").with_priority(2).with_shots(256);
///
/// `submit` owns four request fields. `seed`, when kAutoSeed, comes from
/// the tenant's stream: the k-th auto-seeded job of a tenant always gets
/// the same seed, so a workload replayed per tenant in order is bitwise
/// reproducible however tenants interleave. `processor` is retargeted to
/// a calibrated view once a calibration is published (the device itself
/// is never modified). `readout_calibration` is the pinned snapshot, set
/// exactly when `mitigate_readout` is, and `trace` is the job's trace
/// identity. A spec that sets either of the last two is rejected before
/// a job id or seed is drawn: a caller-set snapshot would bypass the
/// pinned epoch, and a caller-set tracer would record spans under the
/// caller's job id.
///
/// Jobs over one parametric circuit batch together whatever their
/// `parameters`: the plan-sharing key digests the unbound structure, and
/// the shared plan is bound per job at dispatch. `request.processor`
/// must outlive the service; jobs sharing (circuit, processor, transpile
/// options) fingerprints share one TranspiledCircuit through the
/// service's TranspileCache and may be batched together.
struct JobSpec {
  explicit JobSpec(Circuit c) : request(std::move(c)) {}

  ExecutionRequest request;
  /// Fair-share identity: the scheduler round-robins across tenants so no
  /// single tenant can monopolize the workers.
  std::string tenant = "default";
  /// Larger runs earlier. Jobs of equal priority are fair-shared.
  int priority = 0;
  /// Seconds after submission by which the job must have been *dispatched*
  /// (not finished); <= 0 = no deadline. Jobs still queued past the
  /// deadline are marked kExpired instead of running. `submit` rejects
  /// NaN and values above obs::kMaxSeconds.
  double deadline_seconds = 0.0;
  /// Apply calibrated per-site readout mitigation to the job's sampled
  /// histogram (ExecutionResult::mitigated). Requires the service to
  /// have a published calibration snapshot at submission.
  bool mitigate_readout = false;

  JobSpec& with_tenant(std::string t) {
    tenant = std::move(t);
    return *this;
  }
  JobSpec& with_priority(int p) {
    priority = p;
    return *this;
  }
  JobSpec& with_deadline(double seconds) {
    deadline_seconds = seconds;
    return *this;
  }
  JobSpec& with_readout_mitigation(bool on = true) {
    mitigate_readout = on;
    return *this;
  }

  JobSpec& with_shots(std::size_t n) {
    request.with_shots(n);
    return *this;
  }
  JobSpec& with_parameters(std::vector<double> values) {
    request.with_parameters(std::move(values));
    return *this;
  }
  JobSpec& with_observable(std::string name, std::vector<double> diagonal) {
    request.with_observable(std::move(name), std::move(diagonal));
    return *this;
  }
  JobSpec& with_seed(std::uint64_t s) {
    request.with_seed(s);
    return *this;
  }
  JobSpec& with_max_dim(std::size_t dim) {
    request.with_max_dim(dim);
    return *this;
  }
  JobSpec& with_compilation(const Processor& proc,
                            TranspileOptions options = {}) {
    request.with_compilation(proc, options);
    return *this;
  }
};

/// Terminal snapshot of a job: its final status plus the result (kDone)
/// or the error message (kFailed).
struct JobOutcome {
  JobStatus status = JobStatus::kQueued;
  ExecutionResult result;
  std::string error;
};

namespace detail {

/// Shared lifecycle record of one submitted job. Owned jointly by the
/// service (queue + bookkeeping) and every JobHandle; `mutex` guards the
/// mutable tail (status/result/error) and `cv` signals terminal
/// transitions. Everything above the mutex is `const`, set by the
/// constructor from what `submit` froze, and may be read without
/// locking: after submission nothing rewrites a job's request, pinned
/// epoch or device view.
///
/// Lock order: ServiceCore::mutex -> JobRecord::mutex (core -> record).
/// Code holding a record mutex must never reach back into the service
/// core; see thread_annotations.h's registry.
struct JobRecord {
  JobRecord(JobId job_id, std::string tenant_name, int prio,
            std::uint64_t key, ExecutionRequest req, obs::TimePoint now,
            double deadline_s, obs::HistogramId latency_hist = {},
            std::uint64_t epoch = 0,
            std::shared_ptr<const Processor> calibrated = nullptr)
      : id(job_id),
        tenant(std::move(tenant_name)),
        priority(prio),
        plan_key(key),
        submitted_at(now),
        has_deadline(deadline_s > 0.0),
        deadline(now + obs::to_duration(deadline_s)),
        tenant_latency_id(latency_hist),
        calib_epoch(epoch),
        calibrated_proc(std::move(calibrated)),
        request(std::move(req)) {}

  // --- frozen at submission ---------------------------------------------
  const JobId id;
  const std::string tenant;
  const int priority;
  /// Plan-sharing group: jobs with equal keys execute the same
  /// structural circuit's compiled plan (on the same device, when
  /// hardware-targeted) -- possibly under different parameter bindings
  /// -- and may be batched together.
  const std::uint64_t plan_key;
  /// Timestamps on the service's injected obs::Clock (real or virtual).
  const obs::TimePoint submitted_at;
  const bool has_deadline;
  const obs::TimePoint deadline;
  /// The tenant's latency histogram in the service registry, resolved
  /// once at submission so workers record without a name lookup.
  const obs::HistogramId tenant_latency_id;
  /// Epoch of the calibration snapshot the job pinned at submission (0 =
  /// uncalibrated). The snapshot itself stays pinned where it is used:
  /// by `calibrated_proc` and by `request.readout_calibration`.
  const std::uint64_t calib_epoch;
  /// The service-owned calibrated device view `request.processor` points
  /// to (null when the job is logical or the store was empty), so the
  /// caller's device is never modified.
  const std::shared_ptr<const Processor> calibrated_proc;
  /// Fully seeded request; the job's result is a pure function of it.
  const ExecutionRequest request;

  // --- guarded by `mutex` ------------------------------------------------
  mutable Mutex mutex;
  CondVar cv;
  JobStatus status QS_GUARDED_BY(mutex) = JobStatus::kQueued;
  ExecutionResult result QS_GUARDED_BY(mutex);
  std::string error QS_GUARDED_BY(mutex);

  /// Locked status read.
  JobStatus current_status() const QS_EXCLUDES(mutex) {
    MutexLock lock(mutex);
    return status;
  }

  /// THE one sanctioned mutation point of `status`: moves the state
  /// machine and records the matching flight-recorder event, stamped at
  /// `at` (the service's injected clock), into `journal` (null =
  /// journaling off). kQueued is the admission edge, journalled as
  /// kSubmitted with the frozen seed, deadline and calibration epoch.
  /// Only ServiceCore::transition calls it; the `job-state` rule in
  /// tools/lint_invariants.py bans other calls and every other write of
  /// `status` in src/serve/, so no code path can skip the journal.
  /// `digest` is the result digest for kDone transitions; `label` is a
  /// short detail tag (error class, cancel reason).
  void transition_locked(obs::Journal* journal, JobStatus to,
                         obs::TimePoint at, const char* label = nullptr,
                         std::uint64_t digest = 0) QS_REQUIRES(mutex) {
    status = to;  // lint:allow(job-state): the transition helper itself
    if (journal == nullptr) return;
    obs::JournalEvent event;
    event.time_ns = obs::nanos_since_epoch(at);
    event.job = id;
    event.tenant = tenant;
    switch (to) {
      case JobStatus::kQueued:
        event.type = obs::JournalEventType::kSubmitted;
        event.seed = request.seed;
        if (has_deadline) event.deadline_ns = obs::nanos_since_epoch(deadline);
        event.epoch = calib_epoch;
        break;
      case JobStatus::kRunning:
        event.type = obs::JournalEventType::kDispatched;
        break;
      case JobStatus::kDone:
        event.type = obs::JournalEventType::kCompleted;
        event.digest = digest;
        break;
      case JobStatus::kFailed:
        event.type = obs::JournalEventType::kFailed;
        break;
      case JobStatus::kCancelled:
        event.type = obs::JournalEventType::kCancelled;
        break;
      case JobStatus::kExpired:
        event.type = obs::JournalEventType::kExpired;
        break;
    }
    if (label != nullptr) event.detail = label;
    journal->record(std::move(event));
  }
};

}  // namespace detail
}  // namespace qs

#endif  // QS_SERVE_JOB_H
