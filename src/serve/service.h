// Asynchronous multi-tenant job service over the exec layer.
//
// The paper frames near-term qudit processors as shared, oversubscribed
// resources: many applications (QAOA coloring sweeps, reservoir batches,
// SQED quench scans) compete for one device, and the engineering
// bottleneck is the software that queues, batches, and schedules them. A
// JobService is that software for the simulator stack: any number of
// client threads submit JobSpecs and get future-style JobHandles back,
// while a fixed pool of workers -- all sharing one thread-safe
// TranspileCache and PlanCache -- drains a priority queue with fair-share
// tenant interleaving and plan-aware batching (jobs with equal
// structural circuit fingerprints -- and, when hardware-targeted, equal
// device and transpile options -- dispatch as one batch over one
// CompiledCircuit, resolved once; parametric sweep points share the
// group and bind the plan per job).
//
// Determinism contract (the headline guarantee): every job's seed and
// calibration are fixed at submission. The seed is explicit or comes
// from its tenant's stream (the k-th auto-seeded job of a tenant gets
// split_seed(tenant_root, k)); the calibration is the snapshot latest at
// submission, kept even when a recalibration lands while the job is
// queued. A result is therefore a pure function of (request, seed,
// pinned epoch): bitwise identical regardless of queue order, batching
// decisions, worker count, or when recalibrations land. See
// docs/ARCHITECTURE.md "Serve layer".
#ifndef QS_SERVE_SERVICE_H
#define QS_SERVE_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calib/store.h"
#include "exec/backend.h"
#include "exec/plan.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job.h"
#include "serve/job_queue.h"
#include "serve/result_store.h"

namespace qs {

namespace detail {
struct ServiceCore;
}

/// Service-level knobs.
struct ServiceOptions {
  /// Worker threads draining the queue. Each runs its batches serially;
  /// workers parallelize across batches.
  std::size_t workers = 2;
  /// Max jobs dispatched as one batch (same plan key). 1 disables
  /// batching (one job per dispatch).
  std::size_t max_batch = 16;
  /// Queued-job bound; submit throws std::runtime_error when the queue is
  /// full. 0 = unbounded.
  std::size_t max_queued = 0;
  /// Root seed of the per-tenant auto-seed streams.
  std::uint64_t seed = 0x5e4ce5eedf005e4cull;
  /// ResultStore bounds (see result_store.h).
  std::size_t result_store_capacity = 1024;
  double result_ttl_seconds = 300.0;
  /// Start with dispatch paused (jobs queue up until resume()); useful for
  /// deterministic tests and for accumulating bursts into full batches.
  bool start_paused = false;

  // --- observability (all optional, non-owning; must outlive the
  // service) ---------------------------------------------------------

  /// Span sink for the job lifecycle (kSubmit/kQueue/kBatch/...). Null =
  /// tracing disabled; instrumentation then costs one null check per
  /// site (see obs/trace.h).
  obs::Tracer* tracer = nullptr;
  /// Time source for every service timestamp (submission, deadlines,
  /// queue waits, result TTL). Null = the tracer's clock when a tracer
  /// is given, else the real steady clock. Inject a ManualClock to
  /// drive deadlines and TTLs in virtual time.
  const obs::Clock* clock = nullptr;
  /// Flight recorder: every job lifecycle transition (submit, dispatch,
  /// complete/fail, cancel, expire) and every service-level event
  /// (recalibrate, pause/resume, shutdown) is appended as a
  /// JournalEvent stamped on the service clock. Null = journaling off.
  /// Must outlive every JobHandle (terminal transitions after the
  /// service is destroyed still emit). Under a ManualClock the exported
  /// journal is bitwise identical for any worker count -- the replay
  /// contract the scenario engine (src/sim/) is built on.
  obs::Journal* journal = nullptr;
};

/// How shutdown treats queued jobs.
enum class ShutdownMode {
  kDrain,  ///< stop accepting, run everything queued, then stop workers
  kAbort,  ///< stop accepting, cancel everything queued, finish in-flight
};

/// Monotonic counters + gauges describing the service, assembled from
/// ONE MetricsRegistry snapshot: scheduler counters, cache counters, and
/// store gauges all come from the same consistent cut (the registry
/// holds every shard lock while merging), so invariants like
/// completed + failed + cancelled + expired + queued + running ==
/// submitted hold in every snapshot. Only `calib_epoch` (the calibration
/// store's latest epoch) and `trace_dropped_spans` (Tracer::dropped())
/// are read adjacently.
struct ServiceTelemetry {
  std::size_t submitted = 0;   ///< jobs accepted
  std::size_t completed = 0;   ///< jobs finished with a result
  std::size_t failed = 0;      ///< jobs whose backend threw
  std::size_t cancelled = 0;   ///< jobs cancelled before dispatch
  std::size_t expired = 0;     ///< jobs whose deadline passed undispatched
  std::size_t queued = 0;      ///< gauge: jobs waiting now
  std::size_t running = 0;     ///< gauge: jobs on workers now
  std::size_t batches = 0;      ///< dispatches (scheduler batches)
  std::size_t batched_jobs = 0; ///< jobs dispatched across all batches
  std::size_t largest_batch = 0;
  double queue_seconds_total = 0.0;  ///< sum of per-job submit->dispatch
  std::size_t plan_cache_hits = 0;
  std::size_t plan_cache_misses = 0;
  std::size_t transpile_cache_hits = 0;
  std::size_t transpile_cache_misses = 0;
  std::size_t results_stored = 0;  ///< gauge: ResultStore entries
  std::uint64_t calib_epoch = 0;   ///< gauge: latest published epoch
  std::size_t recalibrations = 0;  ///< successful recalibrate() calls
  /// Jobs that read the device (processor or readout mitigation) and
  /// dispatched with a pinned epoch older than the store's latest (a
  /// recalibration landed while they were queued). They still ran on the
  /// snapshot they pinned.
  std::size_t stale_hits = 0;
  /// Kernel-layer SIMD dispatch tier hits accumulated from every finished
  /// job (see kernels::DispatchCounts): compile-time-specialized applies,
  /// runtime-block vector applies, scalar-fallback applies, and batched
  /// (SoA trajectory) applies.
  std::uint64_t kernel_specialized = 0;
  std::uint64_t kernel_generic = 0;
  std::uint64_t kernel_scalar = 0;
  std::uint64_t kernel_batched = 0;
  /// Spans the tracer dropped because a ring filled (0 when tracing is
  /// off). Nonzero means trace-derived latency views undercount; surface
  /// it (serve_daemon warns on it).
  std::uint64_t trace_dropped_spans = 0;

  /// Mean dispatched batch size (0 when nothing dispatched yet).
  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_jobs) /
                              static_cast<double>(batches);
  }
};

/// Summary of one tenant's submit->finish latency distribution,
/// estimated from the tenant's `serve.tenant.<tenant>.latency_seconds`
/// histogram (bucket-interpolated quantiles; see obs/metrics.h).
struct TenantLatency {
  std::uint64_t count = 0;  ///< finished jobs observed
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Future-style view of one submitted job. Copyable; all copies observe
/// the same job. Handles stay valid after the service is destroyed (the
/// job is then in a terminal state).
class JobHandle {
 public:
  JobHandle() = default;  ///< invalid handle (valid() == false)

  bool valid() const { return record_ != nullptr; }
  JobId id() const;
  std::uint64_t seed() const;  ///< the seed frozen at submission

  /// Current lifecycle state (poll).
  JobStatus status() const;

  /// Blocks until the job reaches a terminal state and returns it.
  JobOutcome wait() const;

  /// wait() + unwrap: returns the result, throwing std::runtime_error
  /// unless the job finished kDone.
  ExecutionResult result() const;

  /// Cancels the job if it has not been dispatched yet. Returns true when
  /// the job was still queued (now kCancelled); false when it is already
  /// running or terminal.
  bool cancel();

 private:
  friend class JobService;
  JobHandle(std::shared_ptr<detail::ServiceCore> core,
            std::shared_ptr<detail::JobRecord> record)
      : core_(std::move(core)), record_(std::move(record)) {}

  std::shared_ptr<detail::ServiceCore> core_;
  std::shared_ptr<detail::JobRecord> record_;
};

class JobService {
 public:
  /// The backend outlives the service (workers call it concurrently;
  /// Backend implementations are stateless with respect to execute()).
  explicit JobService(const Backend& backend, ServiceOptions options = {});

  /// Equivalent to shutdown(ShutdownMode::kAbort) when still running.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  const ServiceOptions& options() const { return options_; }

  /// Accepts a job: freezes its seed, calibration and plan key, enqueues
  /// it, and returns a handle. Thread-safe (any number of client threads).
  /// Throws std::runtime_error after shutdown or when the queue is full.
  JobHandle submit(JobSpec spec);

  /// Fetches a finished job's result from the ResultStore (for clients
  /// that dropped the handle), subject to its TTL/capacity bounds.
  std::optional<ExecutionResult> fetch(JobId id) const;

  /// Pauses dispatch: workers stop popping (in-flight batches finish).
  void pause();
  /// Resumes dispatch.
  void resume();

  /// Publishes `snapshot` as the device's current calibration and
  /// returns its epoch. The epoch is advanced to latest + 1 when the
  /// snapshot does not already exceed it, so drift replays and repeated
  /// characterization runs publish without manual epoch bookkeeping.
  /// Jobs submitted afterwards pin the new snapshot; their processor
  /// fingerprints change, so the shared transpile/plan caches miss once
  /// and recompile against the recalibrated device. Queued jobs keep the
  /// snapshot they pinned and count as stale hits when they dispatch.
  /// Thread-safe; allowed after shutdown (publishes, affects nothing).
  std::uint64_t recalibrate(CalibrationSnapshot snapshot);

  /// The service's calibration store, behind recalibrate(). While it is
  /// empty jobs run uncalibrated; once a snapshot is published,
  /// hardware-targeted jobs are pinned to a calibrated device view at
  /// submission (their transpile/plan keys fold in the epoch, so caches
  /// invalidate on recalibration).
  const CalibrationStore& calibration_store() const;

  /// Stops the service: no further submissions; queued jobs run (kDrain)
  /// or are cancelled (kAbort); blocks until every worker exited.
  /// Idempotent -- later calls (any mode) are no-ops.
  void shutdown(ShutdownMode mode);

  /// Counter snapshot (see ServiceTelemetry's consistency note).
  ServiceTelemetry telemetry() const;

  /// Latency percentiles of one tenant's finished jobs (zeros when the
  /// tenant never submitted). Reads one registry snapshot.
  TenantLatency tenant_latency(const std::string& tenant) const;

  /// One consistent cut of every metric in the service's registry
  /// (scheduler, caches, result store, calibration store, per-tenant
  /// latency histograms).
  obs::MetricsSnapshot metrics() const;

 private:
  ServiceOptions options_;
  std::shared_ptr<detail::ServiceCore> core_;
  std::vector<std::thread> workers_;
};

}  // namespace qs

#endif  // QS_SERVE_SERVICE_H
