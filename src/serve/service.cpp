#include "serve/service.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "common/fingerprint.h"
#include "common/thread_annotations.h"
#include "common/require.h"
#include "common/rng.h"
#include "compiler/transpile_cache.h"

namespace qs {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
    case JobStatus::kExpired:
      return "expired";
  }
  return "unknown";
}

namespace detail {
namespace {

/// Capacity of the transpile-artifact cache the workers share
/// (hardware-targeted jobs transpile once per (circuit, processor,
/// options) shape).
constexpr std::size_t kTranspileCacheCapacity = 32;
/// Capacity of the compiled-plan cache the workers share.
constexpr std::size_t kPlanCacheCapacity = 64;

/// FNV-1a of a tenant name: selects the tenant's seed stream.
std::uint64_t tenant_hash(const std::string& tenant) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : tenant) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Digest of an ExecutionResult's *deterministic* payload, journalled on
/// every kCompleted event: the strongest replay-divergence detector (a
/// single flipped probability bit changes the journal byte stream).
/// Deliberately excludes wall_seconds and compile_summary -- both vary
/// run to run without breaking the determinism contract.
std::uint64_t result_digest(const ExecutionResult& r) {
  std::uint64_t h = fnv::kOffset;
  h = fnv::bytes(r.backend.data(), r.backend.size(), h);
  h = fnv::u64(r.seed, h);
  h = fnv::u64(r.shots, h);
  h = fnv::u64(r.trajectories, h);
  h = fnv::u64(r.counts.size(), h);
  for (std::size_t c : r.counts) h = fnv::u64(c, h);
  h = fnv::u64(r.probabilities.size(), h);
  for (double p : r.probabilities) h = fnv::f64(p, h);
  h = fnv::u64(r.expectations.size(), h);
  for (const auto& [name, value] : r.expectations) {  // std::map: ordered
    h = fnv::bytes(name.data(), name.size(), h);
    h = fnv::f64(value, h);
  }
  h = fnv::u64(r.mitigated.size(), h);
  for (double m : r.mitigated) h = fnv::f64(m, h);
  h = fnv::u64(r.calib_epoch, h);
  return h;
}

}  // namespace

/// Shared state of one service. Kept alive by the JobService and by every
/// JobHandle, so handles keep working (status/wait/cancel) after the
/// service object is gone -- by then every job is terminal.
struct ServiceCore {
  ServiceCore(const Backend& b, const ServiceOptions& o)
      : backend(b),
        opts(o),
        registry(o.workers + 2),
        tracer(o.tracer),
        time_source(o.clock != nullptr
                        ? o.clock
                  : o.tracer != nullptr ? &o.tracer->time_source()
                                        : &obs::SteadyClock::instance()),
        plan_cache(kPlanCacheCapacity, &registry),
        transpile_cache(kTranspileCacheCapacity, &registry),
        calib_store(CalibrationStore::kDefaultCapacity, &registry, tracer),
        store(o.result_store_capacity, o.result_ttl_seconds, time_source,
              &registry),
        paused(o.start_paused) {
    submitted_id = registry.counter("serve.jobs.submitted");
    completed_id = registry.counter("serve.jobs.completed");
    failed_id = registry.counter("serve.jobs.failed");
    cancelled_id = registry.counter("serve.jobs.cancelled");
    expired_id = registry.counter("serve.jobs.expired");
    recalibrations_id = registry.counter("serve.recalibrations");
    stale_hits_id = registry.counter("serve.calib.stale_hits");
    kernel_specialized_id =
        registry.counter("exec.kernels.dispatch.specialized");
    kernel_generic_id = registry.counter("exec.kernels.dispatch.generic");
    kernel_scalar_id = registry.counter("exec.kernels.dispatch.scalar");
    kernel_batched_id = registry.counter("exec.kernels.dispatch.batched");
    queued_id = registry.gauge("serve.jobs.queued");
    running_id = registry.gauge("serve.jobs.running");
    batch_hist_id = registry.histogram(
        "serve.batch.jobs", obs::MetricsRegistry::pow2_bounds(1024.0));
    queue_wait_id =
        registry.histogram("serve.queue.wait_seconds",
                           obs::MetricsRegistry::latency_bounds_seconds());
    latency_id =
        registry.histogram("serve.job.latency_seconds",
                           obs::MetricsRegistry::latency_bounds_seconds());
  }

  using Record = std::shared_ptr<JobRecord>;

  const Backend& backend;  ///< used only while workers run (see shutdown)
  const ServiceOptions opts;
  /// Sized to the thread population (workers + client threads).
  obs::MetricsRegistry registry;
  obs::Tracer* const tracer;            ///< null = tracing off
  const obs::Clock* const time_source;  ///< never null
  PlanCache plan_cache;
  TranspileCache transpile_cache;
  CalibrationStore calib_store;
  ResultStore store;

  // Metric handles, resolved once at construction (plain fields: written
  // only in the ctor, read-only afterwards).
  obs::CounterId submitted_id, completed_id, failed_id, cancelled_id,
      expired_id, recalibrations_id, stale_hits_id;
  /// Kernel-layer SIMD dispatch tier hits (exec.kernels.dispatch.*),
  /// accumulated from every finished job's ExecutionResult.
  obs::CounterId kernel_specialized_id, kernel_generic_id, kernel_scalar_id,
      kernel_batched_id;
  obs::GaugeId queued_id, running_id;
  obs::HistogramId batch_hist_id, queue_wait_id, latency_id;

  /// Guards every member annotated with it (scheduler state); acquired
  /// before any JobRecord::mutex, never after one (the core -> record
  /// lock order), and before the calibration store's and the clock's
  /// leaf locks (see thread_annotations.h).
  Mutex mutex;
  CondVar cv;  ///< wakes workers (work ready / shutdown)
  FairShareQueue queue QS_GUARDED_BY(mutex);
  bool accepting QS_GUARDED_BY(mutex) = true;
  bool paused QS_GUARDED_BY(mutex) = false;
  /// Workers exit once the queue is empty.
  bool draining QS_GUARDED_BY(mutex) = false;
  JobId next_id QS_GUARDED_BY(mutex) = 0;
  /// Next auto-seed stream index per tenant.
  std::map<std::string, std::uint64_t> tenant_streams QS_GUARDED_BY(mutex);
  /// Per-tenant latency histograms, registered lazily at first submit.
  std::map<std::string, obs::HistogramId> tenant_hists QS_GUARDED_BY(mutex);

  /// THE one emission point of the job state machine: moves `jobs` along
  /// one lifecycle edge into `to`, stamped at `at`. Admission (kQueued,
  /// journalled as kSubmitted), dispatch, expiry, client and abort
  /// cancel, and finish all come through here, in a fixed order:
  ///   1. one MetricsTxn moves the jobs between the balance-law buckets
  ///      (submitted = queued + running + completed + failed + cancelled
  ///      + expired), balance ops first so they land in the first atomic
  ///      chunk even when the edge's histogram observations overflow it;
  ///      the dispatch edge counts its stale hits in the same txn;
  ///   2. the kQueue span closes as a job leaves the queue, the kJob
  ///      span as it becomes terminal;
  ///   3. per record, transition_locked moves status and journals the
  ///      edge, and a terminal edge wakes the record's waiters -- after
  ///      step 1, so a woken client always finds its job counted.
  /// A terminal edge out of the queue sets each record's `error`; the
  /// journal gets `label`. The finish edge passes `to` = kDone and
  /// `outcomes` parallel to `jobs`: each job ends in its outcome's
  /// status (kDone or kFailed) and takes its result and error.
  /// Admission and edges out of kQueued run under `mutex` (the core ->
  /// record nesting); finish edges run without it.
  void transition(const std::vector<Record>& jobs, JobStatus to,
                  obs::TimePoint at, const char* label = nullptr,
                  const char* error = nullptr,
                  std::vector<JobOutcome>* outcomes = nullptr) {
    if (jobs.empty()) return;
    const std::size_t n = jobs.size();
    {
      obs::MetricsTxn txn(registry);
      const auto signed_n = static_cast<std::int64_t>(n);
      switch (to) {
        case JobStatus::kQueued:
          txn.add(submitted_id, n);
          txn.gauge_add(queued_id, signed_n);
          break;
        case JobStatus::kRunning: {
          txn.gauge_add(queued_id, -signed_n);
          txn.gauge_add(running_id, signed_n);
          txn.observe(batch_hist_id, static_cast<double>(n));
          // A job that reads the device dispatches stale when a newer
          // epoch landed while it was queued; it still runs on the
          // snapshot it pinned. recalibrate() publishes under `mutex`,
          // which every dispatch edge holds, so the epoch read here is
          // the one current at dispatch.
          const std::uint64_t latest = calib_store.latest_epoch();
          std::size_t stale = 0;
          for (const Record& r : jobs) {
            txn.observe(queue_wait_id,
                        obs::seconds_between(r->submitted_at, at));
            const bool reads_device =
                r->request.processor != nullptr ||
                r->request.readout_calibration != nullptr;
            if (reads_device && r->calib_epoch < latest) ++stale;
          }
          txn.add(stale_hits_id, stale);
          break;
        }
        case JobStatus::kCancelled:
        case JobStatus::kExpired:
          txn.gauge_add(queued_id, -signed_n);
          txn.add(to == JobStatus::kCancelled ? cancelled_id : expired_id, n);
          break;
        case JobStatus::kDone:
        case JobStatus::kFailed: {
          std::size_t done = 0;
          kernels::DispatchCounts dispatch;
          for (const JobOutcome& o : *outcomes) {
            if (o.status != JobStatus::kDone) continue;
            ++done;
            dispatch += o.result.kernel_dispatch;
          }
          txn.gauge_add(running_id, -signed_n);
          txn.add(completed_id, done);
          txn.add(failed_id, n - done);
          txn.add(kernel_specialized_id, dispatch.specialized);
          txn.add(kernel_generic_id, dispatch.generic);
          txn.add(kernel_scalar_id, dispatch.scalar);
          txn.add(kernel_batched_id, dispatch.batched);
          for (const Record& r : jobs) {
            const double latency = obs::seconds_between(r->submitted_at, at);
            txn.observe(latency_id, latency);
            txn.observe(r->tenant_latency_id, latency);
          }
          break;
        }
      }
    }
    if (tracer != nullptr) {
      const bool leaves_queue = to == JobStatus::kRunning ||
                                to == JobStatus::kCancelled ||
                                to == JobStatus::kExpired;
      for (std::size_t i = 0; i < n; ++i) {
        const JobRecord& r = *jobs[i];
        const JobStatus s = outcomes != nullptr ? (*outcomes)[i].status : to;
        const char* detail =
            s == JobStatus::kRunning || s == JobStatus::kDone ? nullptr
                                                              : to_string(s);
        const auto record_span = [&](obs::Phase phase) {
          obs::Span span = obs::Tracer::make(phase, r.id, r.tenant.c_str(),
                                             r.submitted_at, at);
          if (phase == obs::Phase::kJob) span.epoch = r.calib_epoch;
          if (detail != nullptr) span.set_detail(detail);
          tracer->record(span);
        };
        if (leaves_queue) record_span(obs::Phase::kQueue);
        if (is_terminal(s)) record_span(obs::Phase::kJob);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      JobRecord& r = *jobs[i];
      if (outcomes != nullptr) {
        JobOutcome& o = (*outcomes)[i];
        const std::uint64_t digest =
            o.status == JobStatus::kDone && opts.journal != nullptr
                ? result_digest(o.result)
                : 0;
        MutexLock lock(r.mutex);
        r.transition_locked(opts.journal, o.status, at,
                            o.error.empty() ? nullptr : o.error.c_str(),
                            digest);
        r.result = std::move(o.result);
        r.error = std::move(o.error);
        r.cv.notify_all();
        continue;
      }
      MutexLock lock(r.mutex);
      r.transition_locked(opts.journal, to, at, label);
      if (!is_terminal(to)) continue;
      if (error != nullptr) r.error = error;
      r.cv.notify_all();
    }
  }

  /// Journals a service-level mark (job 0) stamped at `at`; no-op with
  /// journaling off.
  void journal_mark(obs::JournalEventType type, obs::TimePoint at,
                    const char* detail = nullptr,
                    std::uint64_t epoch = 0) const {
    if (opts.journal == nullptr) return;
    obs::JournalEvent event;
    event.time_ns = obs::nanos_since_epoch(at);
    event.type = type;
    event.epoch = epoch;
    if (detail != nullptr) event.detail = detail;
    opts.journal->record(std::move(event));
  }

  bool cancel_job(const Record& record) QS_EXCLUDES(mutex) {
    const obs::TimePoint at = time_source->now();
    MutexLock lock(mutex);
    // Every edge out of kQueued runs under `mutex`, so this read cannot
    // go stale before the transition below.
    if (record->current_status() != JobStatus::kQueued) return false;
    // Eagerly drop the queue's entries (and with them the circuit copy):
    // a cancelled job in a lane no pop ever revisits must not pin its
    // record for the service's lifetime.
    queue.remove(record);
    transition({record}, JobStatus::kCancelled, at, "client-cancel",
               "cancelled by client");
    // No wake: shrinking the queue can satisfy the workers' wait only
    // through "draining && queue empty", and draining implies !paused
    // (shutdown clears `paused`; pause() is a no-op once draining), so
    // with this job queued no worker was waiting.
    return true;
  }

  /// Runs one batch. All jobs share `plan_key`, so the transpile artifact
  /// (hardware-targeted jobs) and the compiled plan are resolved once,
  /// from the seed job's request, through the shared caches, and every
  /// job executes on them. A resolution failure fails the whole batch
  /// (every member would fail the same way); a job whose execution throws
  /// fails alone.
  void execute_batch(const std::vector<Record>& batch) QS_EXCLUDES(mutex) {
    obs::SpanTimer batch_span = tracer != nullptr
                                    ? tracer->span(obs::Phase::kBatch)
                                    : obs::SpanTimer();
    std::string batch_detail;
    if (batch_span.armed()) {
      batch_detail = "n=" + std::to_string(batch.size());
      batch_span.set_detail(batch_detail.c_str());
    }
    std::vector<JobOutcome> outcomes(batch.size());
    ExecutionArtifacts artifacts;
    try {
      artifacts = resolve_artifacts(batch[0]->request, backend.noise_model(),
                                    &transpile_cache, &plan_cache);
    } catch (const std::exception& e) {
      outcomes.assign(batch.size(), {JobStatus::kFailed, {}, e.what()});
    } catch (...) {
      outcomes.assign(batch.size(),
                      {JobStatus::kFailed, {}, "unknown resolution error"});
    }
    if (artifacts.plan != nullptr) {
      obs::SpanTimer dispatch_span = tracer != nullptr
                                         ? tracer->span(obs::Phase::kDispatch)
                                         : obs::SpanTimer();
      dispatch_span.set_detail(batch_detail.c_str());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          outcomes[i] = {JobStatus::kDone,
                         backend.execute(batch[i]->request, artifacts), {}};
        } catch (const std::exception& e) {
          outcomes[i] = {JobStatus::kFailed, {}, e.what()};
        } catch (...) {
          outcomes[i] = {JobStatus::kFailed, {}, "unknown execution error"};
        }
      }
    }

    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (outcomes[i].status != JobStatus::kDone) continue;
      obs::SpanTimer span = batch[i]->request.trace.span(obs::Phase::kStore);
      store.put(batch[i]->id, outcomes[i].result);
    }
    // One finish timestamp for the whole batch: latency histograms and
    // the kJob root spans close on it.
    transition(batch, JobStatus::kDone, time_source->now(), nullptr, nullptr,
               &outcomes);
  }

  void worker_loop() QS_EXCLUDES(mutex) {
    for (;;) {
      FairShareQueue::Pop pop;
      {
        MutexLock lock(mutex);
        // Inline predicate loop (not a lambda) so the analysis sees the
        // guarded reads under the held lock; see CondVar's header note.
        // Wakes come only where this predicate can turn true: submit()
        // wakes one worker unless paused (a paused submit cannot make it
        // true, and submits stop once draining starts); resume() and
        // shutdown() wake every worker; a worker that pops wakes one
        // more while work remains, and all once a drain empties the
        // queue. cancel_job() wakes nobody: draining implies !paused,
        // so while draining no worker waits on a non-empty queue.
        while (!((draining && queue.size() == 0) ||
                 (!paused && queue.size() > 0)))
          cv.wait(mutex);
        if (queue.size() == 0) return;  // draining and nothing left
        const obs::TimePoint now = time_source->now();
        pop = queue.pop_batch(opts.max_batch, now);
        transition(pop.expired, JobStatus::kExpired, now,
                   "deadline-before-dispatch",
                   "deadline passed before dispatch");
        transition(pop.batch, JobStatus::kRunning, now);
        if (queue.size() > 0) cv.notify_one();  // more work for idle workers
        if (draining && queue.size() == 0) cv.notify_all();
      }
      if (!pop.batch.empty()) execute_batch(pop.batch);
    }
  }
};

}  // namespace detail

// --- JobHandle -----------------------------------------------------------

JobId JobHandle::id() const {
  require(valid(), "JobHandle::id: invalid handle");
  return record_->id;
}

std::uint64_t JobHandle::seed() const {
  require(valid(), "JobHandle::seed: invalid handle");
  return record_->request.seed;
}

JobStatus JobHandle::status() const {
  require(valid(), "JobHandle::status: invalid handle");
  return record_->current_status();
}

JobOutcome JobHandle::wait() const {
  require(valid(), "JobHandle::wait: invalid handle");
  MutexLock lock(record_->mutex);
  while (!is_terminal(record_->status)) record_->cv.wait(record_->mutex);
  return {record_->status, record_->result, record_->error};
}

ExecutionResult JobHandle::result() const {
  JobOutcome outcome = wait();
  if (outcome.status != JobStatus::kDone)
    throw std::runtime_error(
        "JobHandle::result: job " + std::to_string(record_->id) + " " +
        to_string(outcome.status) +
        (outcome.error.empty() ? "" : ": " + outcome.error));
  return std::move(outcome.result);
}

bool JobHandle::cancel() {
  require(valid(), "JobHandle::cancel: invalid handle");
  return core_->cancel_job(record_);
}

// --- JobService ----------------------------------------------------------

JobService::JobService(const Backend& backend, ServiceOptions options)
    : options_(options) {
  require(options_.workers > 0, "JobService: need at least one worker");
  if (options_.max_batch == 0) options_.max_batch = 1;
  core_ = std::make_shared<detail::ServiceCore>(backend, options_);
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w)
    workers_.emplace_back(
        [core = core_] { core->worker_loop(); });
}

JobService::~JobService() { shutdown(ShutdownMode::kAbort); }

JobHandle JobService::submit(JobSpec spec) {
  // Door checks run before any job id or seed-stream index is consumed,
  // so a rejected spec leaves the next job's id and seed unchanged.
  require(spec.request.readout_calibration == nullptr &&
              spec.request.trace.tracer == nullptr,
          "JobService::submit: the service sets the request's readout "
          "calibration and trace (use with_readout_mitigation())");
  require(spec.deadline_seconds <= obs::kMaxSeconds,
          "JobService::submit: deadline must be a number of at most 1e9 s");
  // kSubmit covers the whole admission path; the job id and tenant are
  // attached once allocated below.
  obs::SpanTimer submit_span = core_->tracer != nullptr
                                   ? core_->tracer->span(obs::Phase::kSubmit)
                                   : obs::SpanTimer();
  // Pin the device's current calibration at the submission door: the
  // calibrated view's fingerprint folds in the snapshot epoch, so after
  // a recalibration new jobs land in fresh transpile/plan/batching
  // groups while queued jobs keep their frozen view. The record owns the
  // calibrated device copy, so the caller's device is never modified.
  ExecutionRequest& request = spec.request;
  const CalibrationStore::Ptr calib = core_->calib_store.latest();
  std::shared_ptr<const Processor> calibrated;
  if (request.processor != nullptr && calib != nullptr) {
    calibrated = std::make_shared<const Processor>(
        request.processor->with_calibration(calib));
    request.processor = calibrated.get();
  }
  if (spec.mitigate_readout) {
    require(calib != nullptr,
            "JobService::submit: readout mitigation requested but no "
            "calibration snapshot has been published (recalibrate() first)");
    request.readout_calibration = calib;
  }
  const std::uint64_t epoch =
      calibrated != nullptr || spec.mitigate_readout ? calib->epoch : 0;
  // Malformed bindings fail at the submission door (no handle is ever
  // issued), not as a job failure at dispatch.
  (void)effective_parameters(request);

  // The plan key is the batching identity of the job: jobs with equal
  // keys resolve to one CompiledCircuit and may be batched. The digest is
  // structural -- parametric sweep points differ only in bound values, so
  // they share one key, one transpile, one plan, and one batch group,
  // each point binding the shared plan at dispatch. Fingerprinting walks
  // the circuit, so it happens outside the service lock.
  std::uint64_t key = structural_fingerprint(request.circuit);
  if (request.processor != nullptr) {
    // Hardware-targeted jobs only batch with jobs transpiling to the
    // same physical circuit: fold the (calibrated) device and transpile
    // options into the plan-sharing key.
    key = fnv::combine(fingerprint(*request.processor), key);
    key = fnv::combine(fingerprint(request.transpile_options), key);
  }

  const obs::TimePoint now = core_->time_source->now();
  MutexLock lock(core_->mutex);
  if (!core_->accepting)
    throw std::runtime_error("JobService::submit: service is shut down");
  if (options_.max_queued != 0 && core_->queue.size() >= options_.max_queued)
    throw std::runtime_error("JobService::submit: queue is full (" +
                             std::to_string(core_->queue.size()) + " jobs)");

  if (request.seed == kAutoSeed) {
    // Tenant seed stream: pure function of (service seed, tenant, k) --
    // independent of how tenants interleave at the submission door.
    std::uint64_t& next_stream = core_->tenant_streams[spec.tenant];
    const std::uint64_t tenant_root =
        split_seed(options_.seed, detail::tenant_hash(spec.tenant));
    request.seed = split_seed(tenant_root, next_stream++);
  }

  // Observability identity: the tenant's latency histogram handle
  // (registered on the tenant's first submit) and the job's trace
  // context.
  const JobId id = ++core_->next_id;
  obs::HistogramId& tenant_hist = core_->tenant_hists[spec.tenant];
  if (!tenant_hist.valid())
    tenant_hist = core_->registry.histogram(
        "serve.tenant." + spec.tenant + ".latency_seconds",
        obs::MetricsRegistry::latency_bounds_seconds());
  if (core_->tracer != nullptr) {
    request.with_trace(core_->tracer, id, spec.tenant.c_str());
    submit_span.set_job(id);
    submit_span.set_tenant(spec.tenant.c_str());
    submit_span.set_epoch(epoch);
  }

  auto record = std::make_shared<detail::JobRecord>(
      id, std::move(spec.tenant), spec.priority, key, std::move(request), now,
      spec.deadline_seconds, tenant_hist, epoch, std::move(calibrated));
  // The admission edge precedes the record's visibility to workers, so
  // no later edge can be counted or journalled ahead of it.
  core_->transition({record}, JobStatus::kQueued, now);
  core_->queue.push(record);
  // While paused no worker can take the job; resume() wakes them all.
  if (!core_->paused) core_->cv.notify_one();
  return JobHandle(core_, std::move(record));
}

std::optional<ExecutionResult> JobService::fetch(JobId id) const {
  return core_->store.get(id);
}

std::uint64_t JobService::recalibrate(CalibrationSnapshot snapshot) {
  // The epoch fix-up and the publish ride under the service mutex so two
  // concurrent recalibrations serialize instead of racing the "strictly
  // increasing epoch" contract of the store.
  const obs::TimePoint now = core_->time_source->now();
  MutexLock lock(core_->mutex);
  const std::uint64_t latest = core_->calib_store.latest_epoch();
  if (snapshot.epoch <= latest) snapshot.epoch = latest + 1;
  const auto stored = core_->calib_store.publish(std::move(snapshot));
  core_->registry.add(core_->recalibrations_id);
  core_->journal_mark(obs::JournalEventType::kRecalibrated, now, nullptr,
                      stored->epoch);
  return stored->epoch;
}

const CalibrationStore& JobService::calibration_store() const {
  return core_->calib_store;
}

void JobService::pause() {
  const obs::TimePoint now = core_->time_source->now();
  MutexLock lock(core_->mutex);
  // No-op once shutdown started: re-pausing a draining service would
  // strand its workers (they must keep popping until the queue is empty).
  if (core_->draining) return;
  if (!core_->paused) core_->journal_mark(obs::JournalEventType::kPaused, now);
  core_->paused = true;
}

void JobService::resume() {
  const obs::TimePoint now = core_->time_source->now();
  MutexLock lock(core_->mutex);
  if (core_->paused) core_->journal_mark(obs::JournalEventType::kResumed, now);
  core_->paused = false;
  core_->cv.notify_all();
}

void JobService::shutdown(ShutdownMode mode) {
  const obs::TimePoint now = core_->time_source->now();
  {
    MutexLock lock(core_->mutex);
    if (core_->accepting)
      core_->journal_mark(obs::JournalEventType::kShutdown, now,
                          mode == ShutdownMode::kDrain ? "drain" : "abort");
    core_->accepting = false;
    core_->draining = true;
    core_->paused = false;  // a paused drain would never finish
    if (mode == ShutdownMode::kAbort)
      core_->transition(core_->queue.take_all(), JobStatus::kCancelled, now,
                        "abort-shutdown",
                        "service shut down (abort) before dispatch");
    core_->cv.notify_all();
  }
  // Joining outside the lock: workers need it to finish their batches.
  // Idempotent (joinable() is false after the first join); like the rest
  // of the service API it must not be raced from two threads.
  for (std::thread& worker : workers_)
    if (worker.joinable()) worker.join();
}

ServiceTelemetry JobService::telemetry() const {
  // ONE consistent cut: every field except calib_epoch and
  // trace_dropped_spans comes from the same registry snapshot (the
  // registry holds all shard locks while merging), fixing the historical
  // torn read between the scheduler counters and the cache/store gauges.
  const obs::MetricsSnapshot snap = core_->registry.snapshot();
  ServiceTelemetry t;
  t.submitted = snap.counter("serve.jobs.submitted");
  t.completed = snap.counter("serve.jobs.completed");
  t.failed = snap.counter("serve.jobs.failed");
  t.cancelled = snap.counter("serve.jobs.cancelled");
  t.expired = snap.counter("serve.jobs.expired");
  t.queued = static_cast<std::size_t>(snap.gauge("serve.jobs.queued"));
  t.running = static_cast<std::size_t>(snap.gauge("serve.jobs.running"));
  if (const obs::HistogramSnapshot* h = snap.histogram("serve.batch.jobs")) {
    t.batches = h->count;
    t.batched_jobs = static_cast<std::size_t>(h->sum);
    t.largest_batch = static_cast<std::size_t>(h->max);
  }
  if (const obs::HistogramSnapshot* h =
          snap.histogram("serve.queue.wait_seconds"))
    t.queue_seconds_total = h->sum;
  t.plan_cache_hits = snap.counter("exec.plan_cache.hits");
  t.plan_cache_misses = snap.counter("exec.plan_cache.misses");
  t.transpile_cache_hits = snap.counter("compiler.transpile_cache.hits");
  t.transpile_cache_misses = snap.counter("compiler.transpile_cache.misses");
  t.results_stored =
      static_cast<std::size_t>(snap.gauge("serve.result_store.size"));
  t.recalibrations = snap.counter("serve.recalibrations");
  t.stale_hits = snap.counter("serve.calib.stale_hits");
  t.kernel_specialized = snap.counter("exec.kernels.dispatch.specialized");
  t.kernel_generic = snap.counter("exec.kernels.dispatch.generic");
  t.kernel_scalar = snap.counter("exec.kernels.dispatch.scalar");
  t.kernel_batched = snap.counter("exec.kernels.dispatch.batched");
  t.calib_epoch = core_->calib_store.latest_epoch();
  if (core_->tracer != nullptr)
    t.trace_dropped_spans = core_->tracer->dropped();
  return t;
}

TenantLatency JobService::tenant_latency(const std::string& tenant) const {
  TenantLatency out;
  const obs::MetricsSnapshot snap = core_->registry.snapshot();
  const obs::HistogramSnapshot* h =
      snap.histogram("serve.tenant." + tenant + ".latency_seconds");
  if (h == nullptr) return out;
  out.count = h->count;
  out.mean = h->mean();
  out.p50 = h->quantile(0.50);
  out.p95 = h->quantile(0.95);
  out.p99 = h->quantile(0.99);
  return out;
}

obs::MetricsSnapshot JobService::metrics() const {
  return core_->registry.snapshot();
}

}  // namespace qs
