#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamics/trotter.h"
#include "exec/exec.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "noise/noise_model.h"
#include "qaoa/coloring_qaoa.h"
#include "qaoa/graph.h"
#include "serve/serve.h"
#include "sqed/gauge_model.h"

namespace qs {
namespace {

// ---------------------------------------------------------------------
// The mixed 3-tenant workload: one circuit family per paper application.
// ---------------------------------------------------------------------

NoiseModel device_noise() {
  NoiseParams p;
  p.depol_2q = 0.02;
  p.loss_per_gate = 0.01;
  return NoiseModel(p);
}

/// QAOA tenant: p=1 coloring ansatz on a triangle, 3 colors (dim 27).
Circuit qaoa_circuit(double gamma) {
  Graph triangle;
  triangle.n = 3;
  triangle.edges = {{0, 1}, {1, 2}, {0, 2}};
  const ColoringQaoa qaoa(triangle, 3);
  return qaoa.build_circuit({gamma}, {0.4}, {0, 0, 0});
}

/// QRC tenant: a displacement/probe-style circuit on {2, 4} (dim 8).
Circuit qrc_circuit(double drive) {
  Circuit c(QuditSpace({2, 4}));
  c.add("F", fourier(2), {0});
  c.add("D", displacement(4, cplx(drive, 0.2)), {1});
  c.add("CSUM", csum(2, 4), {0, 1});
  c.add("F2", fourier(4), {1});
  return c;
}

/// SQED tenant: one Trotter step of a 2-rotor gauge chain (dim 9).
Circuit sqed_circuit(int steps) {
  GaugeModelParams params;
  params.d = 3;
  TrotterOptions opt;
  opt.dt = 0.2;
  opt.steps = steps;
  return trotter_circuit(gauge_chain(2, params), opt);
}

struct TenantJob {
  std::string tenant;
  int priority;
  Circuit circuit;
  std::vector<double> observable;
};

/// Per-tenant job lists with distinct priorities: the QAOA tenant sweeps
/// gamma, the QRC tenant sweeps its drive, the SQED tenant sweeps Trotter
/// depth -- plus same-circuit repeats so plan-aware batching has bursts
/// to merge.
std::vector<std::vector<TenantJob>> mixed_workload() {
  std::vector<std::vector<TenantJob>> tenants(3);
  for (int k = 0; k < 4; ++k) {
    Circuit c = qaoa_circuit(0.5 + 0.1 * (k / 2));  // two jobs per circuit
    std::vector<double> cost(c.space().dimension());
    for (std::size_t i = 0; i < cost.size(); ++i)
      cost[i] = static_cast<double>(i % 5);
    tenants[0].push_back({"qaoa", 2, std::move(c), std::move(cost)});
  }
  for (int k = 0; k < 4; ++k) {
    Circuit c = qrc_circuit(0.3 + 0.2 * (k / 2));
    std::vector<double> number(c.space().dimension());
    for (std::size_t i = 0; i < number.size(); ++i)
      number[i] = static_cast<double>(i % 4);
    tenants[1].push_back({"qrc", 1, std::move(c), std::move(number)});
  }
  for (int k = 0; k < 3; ++k) {
    Circuit c = sqed_circuit(1 + k / 2);
    std::vector<double> electric = electric_energy_diagonal(c.space());
    tenants[2].push_back({"sqed", 0, std::move(c), std::move(electric)});
  }
  return tenants;
}

JobSpec make_spec(const TenantJob& job) {
  return JobSpec(job.circuit)
      .with_tenant(job.tenant)
      .with_priority(job.priority)
      .with_shots(96)
      .with_observable("obs", job.observable);
}

/// Runs the workload through a service, submitting each tenant's jobs in
/// order from its own thread when `concurrent_submitters` is set, and
/// returns outcomes grouped as [tenant][job index].
std::vector<std::vector<JobOutcome>> run_workload(
    const Backend& backend, const ServiceOptions& options,
    const std::vector<std::vector<TenantJob>>& tenants,
    bool concurrent_submitters) {
  JobService service(backend, options);
  std::vector<std::vector<JobHandle>> handles(tenants.size());
  auto submit_tenant = [&](std::size_t t) {
    for (const TenantJob& job : tenants[t])
      handles[t].push_back(service.submit(make_spec(job)));
  };
  if (concurrent_submitters) {
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < tenants.size(); ++t)
      submitters.emplace_back(submit_tenant, t);
    for (std::thread& s : submitters) s.join();
  } else {
    for (std::size_t t = 0; t < tenants.size(); ++t) submit_tenant(t);
  }
  std::vector<std::vector<JobOutcome>> outcomes(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t)
    for (const JobHandle& h : handles[t]) outcomes[t].push_back(h.wait());
  service.shutdown(ShutdownMode::kDrain);
  return outcomes;
}

// The acceptance-criterion test: N concurrent submitter threads over K
// workers produce results bitwise identical to serial single-worker
// submission -- queue order, batching, and worker count never leak into
// results.
TEST(ServeDeterminism, ConcurrentMixedWorkloadMatchesSerialBitwise) {
  const TrajectoryBackend backend{device_noise()};
  const auto tenants = mixed_workload();

  ServiceOptions serial;
  serial.workers = 1;
  serial.max_batch = 1;  // one job per dispatch: the naive reference
  const auto reference = run_workload(backend, serial, tenants, false);

  ServiceOptions pooled;
  pooled.workers = 3;
  pooled.max_batch = 8;
  const auto concurrent = run_workload(backend, pooled, tenants, true);

  ASSERT_EQ(reference.size(), concurrent.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(reference[t].size(), concurrent[t].size());
    for (std::size_t j = 0; j < reference[t].size(); ++j) {
      const JobOutcome& a = reference[t][j];
      const JobOutcome& b = concurrent[t][j];
      ASSERT_EQ(a.status, JobStatus::kDone);
      ASSERT_EQ(b.status, JobStatus::kDone);
      // Same tenant-stream seed regardless of global interleaving...
      EXPECT_EQ(a.result.seed, b.result.seed);
      // ...and bitwise identical payloads, not approximately equal.
      EXPECT_EQ(a.result.counts, b.result.counts);
      ASSERT_EQ(a.result.probabilities.size(), b.result.probabilities.size());
      for (std::size_t i = 0; i < a.result.probabilities.size(); ++i)
        EXPECT_EQ(a.result.probabilities[i], b.result.probabilities[i]);
      EXPECT_EQ(a.result.expectation("obs"), b.result.expectation("obs"));
    }
  }
}

TEST(ServeDeterminism, TenantSeedStreamsAreOrderedAndExplicitSeedsPass) {
  const StateVectorBackend backend;
  ServiceOptions options;
  options.start_paused = true;
  JobService service(backend, options);
  JobHandle a1 = service.submit(JobSpec(qrc_circuit(0.1)).with_tenant("a"));
  JobHandle b1 = service.submit(JobSpec(qrc_circuit(0.1)).with_tenant("b"));
  JobHandle a2 = service.submit(JobSpec(qrc_circuit(0.1)).with_tenant("a"));
  JobHandle ex =
      service.submit(JobSpec(qrc_circuit(0.1)).with_tenant("a").with_seed(7));
  // Streams are per tenant: a's seeds differ from each other and from b's.
  EXPECT_NE(a1.seed(), a2.seed());
  EXPECT_NE(a1.seed(), b1.seed());
  EXPECT_EQ(ex.seed(), 7u);

  // A second service with the same root seed reproduces the streams even
  // though the tenants interleave differently.
  JobService replay(backend, options);
  JobHandle b1r =
      replay.submit(JobSpec(qrc_circuit(0.1)).with_tenant("b"));
  JobHandle a1r =
      replay.submit(JobSpec(qrc_circuit(0.1)).with_tenant("a"));
  EXPECT_EQ(a1.seed(), a1r.seed());
  EXPECT_EQ(b1.seed(), b1r.seed());
  service.shutdown(ShutdownMode::kAbort);
  replay.shutdown(ShutdownMode::kAbort);
}

// ---------------------------------------------------------------------
// FairShareQueue scheduling policy (unit level).
// ---------------------------------------------------------------------

using Record = std::shared_ptr<detail::JobRecord>;

Record make_record(JobId id, const std::string& tenant, int priority,
                   std::uint64_t plan_key, double deadline_seconds = 0.0) {
  Circuit c(QuditSpace::uniform(1, 2));
  c.add("F", fourier(2), {0});
  return std::make_shared<detail::JobRecord>(
      id, tenant, priority, plan_key, ExecutionRequest(std::move(c)),
      std::chrono::steady_clock::now(), deadline_seconds);
}

std::vector<JobId> drain_ids(FairShareQueue& queue, std::size_t max_batch) {
  std::vector<JobId> ids;
  for (;;) {
    auto pop = queue.pop_batch(max_batch, std::chrono::steady_clock::now());
    if (pop.batch.empty() && pop.expired.empty()) break;
    for (const Record& r : pop.batch) ids.push_back(r->id);
  }
  return ids;
}

TEST(FairShareQueue, RoundRobinsTenantsWithinAPriority) {
  FairShareQueue queue;
  // Heavy tenant a (4 jobs), light tenants b and c (1 each); distinct
  // plan keys so nothing merges into batches.
  queue.push(make_record(1, "a", 0, 101));
  queue.push(make_record(2, "a", 0, 102));
  queue.push(make_record(3, "a", 0, 103));
  queue.push(make_record(4, "a", 0, 104));
  queue.push(make_record(5, "b", 0, 105));
  queue.push(make_record(6, "c", 0, 106));
  // a cannot starve b and c: they are served on a's first lap.
  EXPECT_EQ(drain_ids(queue, 1),
            (std::vector<JobId>{1, 5, 6, 2, 3, 4}));
}

TEST(FairShareQueue, HigherPriorityPreemptsFairShare) {
  FairShareQueue queue;
  queue.push(make_record(1, "a", 0, 101));
  queue.push(make_record(2, "a", 0, 102));
  queue.push(make_record(3, "b", 5, 103));  // arrives later, runs first
  EXPECT_EQ(drain_ids(queue, 1), (std::vector<JobId>{3, 1, 2}));
}

TEST(FairShareQueue, BatchesSamePlanKeyAcrossTenants) {
  FairShareQueue queue;
  queue.push(make_record(1, "a", 0, 77));
  queue.push(make_record(2, "b", 0, 77));
  queue.push(make_record(3, "c", 0, 88));
  queue.push(make_record(4, "a", 0, 77));
  auto pop = queue.pop_batch(8, std::chrono::steady_clock::now());
  // Seed job 1 pulls every queued key-77 job along, in submission order.
  std::vector<JobId> ids;
  for (const Record& r : pop.batch) ids.push_back(r->id);
  EXPECT_EQ(ids, (std::vector<JobId>{1, 2, 4}));
  for (const Record& r : pop.batch)
    EXPECT_EQ(r->current_status(), JobStatus::kQueued);
  // Job 3 (key 88) is untouched and pops next.
  EXPECT_EQ(drain_ids(queue, 8), (std::vector<JobId>{3}));
}

TEST(FairShareQueue, MaxBatchCapsTheMerge) {
  FairShareQueue queue;
  for (JobId id = 1; id <= 5; ++id)
    queue.push(make_record(id, "a", 0, 42));
  auto pop = queue.pop_batch(2, std::chrono::steady_clock::now());
  EXPECT_EQ(pop.batch.size(), 2u);
  EXPECT_EQ(drain_ids(queue, 2), (std::vector<JobId>{3, 4, 5}));
}

TEST(FairShareQueue, NoRecordOutlivesItsQueueLifetime) {
  // Regression: every exit path -- unbatched dispatch (max_batch == 1),
  // batched dispatch, expiry, and cancellation -- must erase the record
  // from BOTH index structures, or a long-running service leaks one
  // circuit copy per job.
  FairShareQueue queue;
  queue.push(make_record(1, "a", 0, 50));        // dispatched, no mates
  queue.push(make_record(2, "a", 0, 60));        // gathered batch mate
  queue.push(make_record(3, "b", 0, 60));        // batch seed
  queue.push(make_record(4, "b", 0, 70, 1e-9));  // expires in its lane
  Record dropped = make_record(5, "c", 0, 60);   // cancelled
  queue.push(dropped);
  EXPECT_EQ(queue.indexed_records(), 5u);

  {
    qs::MutexLock lock(dropped->mutex);
    dropped->status = JobStatus::kCancelled;
  }
  queue.remove(dropped);
  EXPECT_EQ(queue.indexed_records(), 4u);

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  while (true) {
    auto pop = queue.pop_batch(8, std::chrono::steady_clock::now());
    if (pop.batch.empty() && pop.expired.empty()) break;
  }
  EXPECT_EQ(queue.indexed_records(), 0u);

  // The unbatched configuration (max_batch == 1) skips the gather loop
  // entirely; the seed's plan-key entry must still be reclaimed.
  queue.push(make_record(6, "a", 0, 90));
  EXPECT_EQ(queue.pop_batch(1, std::chrono::steady_clock::now()).batch.size(),
            1u);
  EXPECT_EQ(queue.indexed_records(), 0u);
}

TEST(FairShareQueue, ExpiredJobsAreDivertedNotDispatched) {
  FairShareQueue queue;
  queue.push(make_record(1, "a", 0, 1, 1e-9));  // expires immediately
  queue.push(make_record(2, "a", 0, 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto pop = queue.pop_batch(4, std::chrono::steady_clock::now());
  ASSERT_EQ(pop.expired.size(), 1u);
  EXPECT_EQ(pop.expired[0]->id, 1u);
  EXPECT_EQ(pop.expired[0]->current_status(), JobStatus::kQueued);
  ASSERT_EQ(pop.batch.size(), 1u);
  EXPECT_EQ(pop.batch[0]->id, 2u);
}

// ---------------------------------------------------------------------
// Service lifecycle: batching telemetry, cancel, deadlines, shutdown.
// ---------------------------------------------------------------------

TEST(JobService, BurstOfIdenticalCircuitsBatchesAndCompilesOnce) {
  const TrajectoryBackend backend{device_noise()};
  ServiceOptions options;
  options.workers = 2;
  options.max_batch = 16;
  options.start_paused = true;  // let the burst accumulate, then release
  JobService service(backend, options);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 12; ++i)
    handles.push_back(
        service.submit(JobSpec(qaoa_circuit(0.5)).with_shots(16)));
  EXPECT_EQ(service.telemetry().queued, 12u);
  service.resume();
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.wait().status, JobStatus::kDone);
  service.shutdown(ShutdownMode::kDrain);

  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.submitted, 12u);
  EXPECT_EQ(t.completed, 12u);
  EXPECT_EQ(t.queued, 0u);
  EXPECT_EQ(t.running, 0u);
  // Plan-aware batching: far fewer dispatches than jobs, and the circuit
  // was compiled exactly once for the whole burst. Each dispatch looks
  // the plan up once for the whole batch, never once per job.
  EXPECT_LT(t.batches, 12u);
  EXPECT_GT(t.largest_batch, 1u);
  EXPECT_EQ(t.batched_jobs, 12u);
  EXPECT_EQ(t.plan_cache_misses, 1u);
  EXPECT_EQ(t.plan_cache_hits + t.plan_cache_misses, t.batches);
  EXPECT_GE(t.queue_seconds_total, 0.0);
  EXPECT_EQ(t.results_stored, 12u);
}

TEST(JobService, HardwareTargetedBurstTranspilesOnceAndBatches) {
  // A burst of same-shape hardware-targeted jobs across tenants: the
  // (circuit, processor, transpile options) triple is folded into the
  // plan-sharing key, so the burst batches together, transpiles exactly
  // once through the shared TranspileCache, and compiles one plan from
  // the physical circuit.
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 2;
  options.max_batch = 16;
  options.start_paused = true;
  JobService service(backend, options);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 10; ++i)
    handles.push_back(service.submit(JobSpec(qaoa_circuit(0.5))
                                         .with_tenant(i % 2 ? "a" : "b")
                                         .with_compilation(proc)
                                         .with_shots(16)));
  service.resume();
  std::vector<ExecutionResult> results;
  for (const JobHandle& h : handles) results.push_back(h.result());
  service.shutdown(ShutdownMode::kDrain);

  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.completed, 10u);
  EXPECT_GT(t.largest_batch, 1u);
  EXPECT_EQ(t.transpile_cache_misses, 1u);
  EXPECT_EQ(t.plan_cache_misses, 1u);
  // One transpile and one plan lookup per dispatch, not per job.
  EXPECT_EQ(t.transpile_cache_hits + t.transpile_cache_misses, t.batches);
  EXPECT_EQ(t.plan_cache_hits + t.plan_cache_misses, t.batches);
  // Every result ran the routed physical register (one site per mode)
  // and reports the transpile summary.
  for (const ExecutionResult& r : results) {
    EXPECT_EQ(r.probabilities.size(), 27u);  // 3 modes x d = 3
    EXPECT_FALSE(r.compile_summary.empty());
  }

  // Jobs targeting a different device must NOT share the batch key: the
  // key folds the processor fingerprint.
  ProcessorConfig other = cfg;
  other.mode_t1 = 2e-3;
  const Processor proc2(other);
  ServiceOptions opts2;
  opts2.workers = 1;
  opts2.start_paused = true;
  JobService split(backend, opts2);
  const JobHandle x =
      split.submit(JobSpec(qaoa_circuit(0.5)).with_compilation(proc));
  const JobHandle y =
      split.submit(JobSpec(qaoa_circuit(0.5)).with_compilation(proc2));
  split.resume();
  x.wait();
  y.wait();
  split.shutdown(ShutdownMode::kDrain);
  const ServiceTelemetry t2 = split.telemetry();
  EXPECT_EQ(t2.transpile_cache_misses, 2u);
  EXPECT_EQ(t2.largest_batch, 1u);
}

TEST(JobService, ParametricSweepTranspilesAndLowersExactlyOnce) {
  // The parametric-compilation acceptance pin: a 100-point two-tenant
  // QAOA angle sweep over one symbolic circuit, hardware-targeted,
  // transpiles exactly once and lowers exactly one plan -- the telemetry
  // counters say so -- and every point's result is bitwise identical to
  // submitting the fully-bound circuit built from scratch.
  Graph triangle;
  triangle.n = 3;
  triangle.edges = {{0, 1}, {1, 2}, {0, 2}};
  const ColoringQaoa qaoa(triangle, 3);
  const std::vector<int> offsets = {0, 0, 0};
  const Circuit symbolic = qaoa.parametric_circuit(1, offsets);
  const std::vector<double> cost = qaoa.cost_diagonal(offsets);

  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const StateVectorBackend backend;

  constexpr std::size_t kPoints = 100;
  auto angles_of = [](std::size_t k) {
    const double t = static_cast<double>(k) / kPoints;
    return std::vector<double>{4.0 * t, 2.0 * (1.0 - t)};
  };

  ServiceOptions options;
  options.workers = 2;
  options.max_batch = 16;
  options.start_paused = true;  // accumulate the full sweep, then release
  JobService service(backend, options);
  std::vector<JobHandle> handles;
  for (std::size_t k = 0; k < kPoints; ++k)
    handles.push_back(service.submit(JobSpec(symbolic)
                                         .with_tenant(k % 2 ? "qaoa-a"
                                                            : "qaoa-b")
                                         .with_parameters(angles_of(k))
                                         .with_compilation(proc)
                                         .with_shots(16)
                                         .with_seed(1000 + k)
                                         .with_observable("cost", cost)));
  service.resume();
  std::vector<ExecutionResult> swept;
  for (const JobHandle& h : handles) swept.push_back(h.result());
  service.shutdown(ShutdownMode::kDrain);

  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.completed, kPoints);
  // The whole sweep shares one structural plan key: one transpile, one
  // lowering, everything else hits -- regardless of bindings or tenants.
  EXPECT_EQ(t.transpile_cache_misses, 1u);
  EXPECT_EQ(t.plan_cache_misses, 1u);
  EXPECT_GT(t.largest_batch, 1u);  // bindings batch together

  // From-scratch reference: the same points as concrete bound circuits
  // (distinct fingerprints, so this service recompiles per point).
  ServiceOptions ref_options;
  ref_options.workers = 1;
  ref_options.max_batch = 1;
  JobService reference(backend, ref_options);
  std::vector<JobHandle> ref_handles;
  for (std::size_t k = 0; k < kPoints; ++k) {
    const std::vector<double> angles = angles_of(k);
    ref_handles.push_back(
        reference.submit(JobSpec(qaoa.build_circuit({angles[0]}, {angles[1]},
                                                    offsets))
                             .with_compilation(proc)
                             .with_shots(16)
                             .with_seed(1000 + k)
                             .with_observable("cost", cost)));
  }
  for (std::size_t k = 0; k < kPoints; ++k) {
    const JobOutcome ref = ref_handles[k].wait();
    ASSERT_EQ(ref.status, JobStatus::kDone);
    EXPECT_EQ(swept[k].counts, ref.result.counts);
    EXPECT_EQ(swept[k].expectation("cost"), ref.result.expectation("cost"));
    ASSERT_EQ(swept[k].probabilities.size(), ref.result.probabilities.size());
    for (std::size_t i = 0; i < ref.result.probabilities.size(); ++i)
      EXPECT_EQ(swept[k].probabilities[i], ref.result.probabilities[i])
          << "point " << k << " index " << i;
  }
  reference.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(reference.telemetry().transpile_cache_misses, kPoints);
}

TEST(JobService, CancelBeforeDispatchWinsAfterDispatchLoses) {
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobService service(backend, options);
  JobHandle keep = service.submit(JobSpec(qrc_circuit(0.2)).with_shots(8));
  JobHandle drop = service.submit(JobSpec(qrc_circuit(0.9)).with_shots(8));
  EXPECT_EQ(drop.status(), JobStatus::kQueued);
  EXPECT_TRUE(drop.cancel());
  EXPECT_FALSE(drop.cancel());  // already cancelled
  service.resume();
  EXPECT_EQ(keep.wait().status, JobStatus::kDone);
  EXPECT_EQ(drop.status(), JobStatus::kCancelled);
  EXPECT_THROW(drop.result(), std::runtime_error);
  EXPECT_FALSE(keep.cancel());  // terminal jobs cannot be cancelled
  service.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(service.telemetry().cancelled, 1u);
  EXPECT_EQ(service.telemetry().completed, 1u);
}

TEST(JobService, DeadlineExpiresQueuedJobs) {
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobService service(backend, options);
  JobHandle late = service.submit(
      JobSpec(qrc_circuit(0.3)).with_shots(8).with_deadline(1e-6));
  JobHandle fine = service.submit(JobSpec(qrc_circuit(0.4)).with_shots(8));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.resume();
  const JobOutcome expired = late.wait();
  EXPECT_EQ(expired.status, JobStatus::kExpired);
  EXPECT_FALSE(expired.error.empty());
  EXPECT_EQ(fine.wait().status, JobStatus::kDone);
  service.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(service.telemetry().expired, 1u);
}

/// Submits `rejected`, which must throw std::invalid_argument, into a
/// paused service, then a plain job of the same tenant. That job must get
/// the id and seed a fresh service gives its first job: the rejected
/// submit consumed no job id and no seed-stream index.
void expect_rejected_at_the_door(JobSpec rejected) {
  const StateVectorBackend backend;
  ServiceOptions options;
  options.start_paused = true;
  JobService service(backend, options);
  JobService fresh(backend, options);
  EXPECT_THROW(service.submit(std::move(rejected)), std::invalid_argument);
  EXPECT_EQ(service.telemetry().submitted, 0u);
  const JobHandle next = service.submit(JobSpec(qrc_circuit(0.1)));
  const JobHandle first = fresh.submit(JobSpec(qrc_circuit(0.1)));
  EXPECT_EQ(next.id(), first.id());
  EXPECT_EQ(next.seed(), first.seed());
}

TEST(JobService, OverlongDeadlineOrTtlIsRejected) {
  // A Duration counts int64 nanoseconds, so 1e10 s used to wrap: a
  // deadline meant as "never" expired at the first pop, and a store with
  // that TTL returned nothing right after put.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double seconds : {1e10, inf, nan})
    expect_rejected_at_the_door(
        JobSpec(qrc_circuit(0.1)).with_deadline(seconds));

  const StateVectorBackend backend;
  ServiceOptions long_ttl;
  long_ttl.result_ttl_seconds = 1e10;
  EXPECT_THROW(JobService service(backend, long_ttl), std::invalid_argument);
  EXPECT_THROW(ResultStore store(4, 1e10), std::invalid_argument);

  // The bound itself is accepted, and is "never" in practice.
  ServiceOptions options;
  options.result_ttl_seconds = obs::kMaxSeconds;
  JobService service(backend, options);
  const JobHandle h = service.submit(
      JobSpec(qrc_circuit(0.1)).with_shots(8).with_deadline(obs::kMaxSeconds));
  EXPECT_EQ(h.wait().status, JobStatus::kDone);
  EXPECT_TRUE(service.fetch(h.id()).has_value());
}

TEST(JobService, ServedJobRunsExactlyItsRequest) {
  // Every request field reaches the backend unchanged: a served job's
  // result equals, bit for bit, the backend's on the same request --
  // logical with an initial state and a trajectory count, and
  // hardware-targeted before any calibration is published.
  Graph triangle;
  triangle.n = 3;
  triangle.edges = {{0, 1}, {1, 2}, {0, 2}};
  const ColoringQaoa qaoa(triangle, 3);
  const std::vector<int> offsets = {0, 0, 0};
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const TrajectoryBackend backend{device_noise()};

  JobSpec logical(qaoa.parametric_circuit(1, offsets));
  logical.with_tenant("exact")
      .with_shots(0)
      .with_parameters({0.7, 0.3})
      .with_observable("cost", qaoa.cost_diagonal(offsets))
      .with_seed(4242)
      .with_max_dim(64);
  logical.request.with_initial({1, 0, 2}).with_trajectories(40);
  JobSpec targeted = logical;
  targeted.with_compilation(proc);

  JobService service(backend);
  for (const JobSpec& spec : {logical, targeted}) {
    const ExecutionResult want = backend.execute(spec.request);
    const ExecutionResult got = service.submit(spec).result();
    EXPECT_EQ(got.seed, 4242u);
    EXPECT_EQ(got.trajectories, 40u);
    EXPECT_EQ(got.counts, want.counts);
    EXPECT_EQ(got.probabilities, want.probabilities);
    EXPECT_EQ(got.expectations, want.expectations);
  }

  // `submit` owns the request's readout snapshot and trace: a spec that
  // sets either itself is rejected before an id or seed is drawn.
  obs::Tracer tracer;
  JobSpec traced(qrc_circuit(0.1));
  traced.request.with_trace(&tracer);
  expect_rejected_at_the_door(traced);
  JobSpec pinned(qrc_circuit(0.1));
  pinned.request.with_readout_mitigation(
      std::make_shared<const CalibrationSnapshot>(
          CalibrationSnapshot::nominal(proc)));
  expect_rejected_at_the_door(pinned);
}

TEST(JobService, WokenClientSeesItsJobCounted) {
  // Every terminal edge commits its counters before it wakes the job's
  // waiters, so a client that reads telemetry() the moment wait()
  // returns finds its job already counted. The 2000-job backlog keeps
  // an expiry or abort edge busy with the other jobs after the first
  // job's wake-up, which is the window an early wake would expose.
  enum class Path { kExpire, kAbort, kCancel, kDone };
  for (const Path path :
       {Path::kExpire, Path::kAbort, Path::kCancel, Path::kDone}) {
    SCOPED_TRACE(static_cast<int>(path));
    obs::ManualClock clock(0);
    const StateVectorBackend backend;
    ServiceOptions options;
    options.workers = 1;
    options.start_paused = true;
    options.clock = &clock;
    JobService service(backend, options);
    std::vector<JobHandle> handles;
    for (int i = 0; i < 2000; ++i) {
      JobSpec spec = JobSpec(qrc_circuit(0.1)).with_shots(4);
      if (path == Path::kExpire) spec.with_deadline(1.0);
      handles.push_back(service.submit(std::move(spec)));
    }
    JobStatus status = JobStatus::kQueued;
    ServiceTelemetry seen;
    std::thread waiter([&] {
      status = handles.front().wait().status;
      seen = service.telemetry();
    });
    // Give the waiter time to block first; the assertions below hold
    // either way.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    switch (path) {
      case Path::kExpire:
        clock.advance_seconds(2.0);
        service.resume();
        break;
      case Path::kAbort:
        service.shutdown(ShutdownMode::kAbort);
        break;
      case Path::kCancel:
        EXPECT_TRUE(handles.front().cancel());
        break;
      case Path::kDone:
        service.resume();
        break;
    }
    waiter.join();
    service.shutdown(ShutdownMode::kAbort);

    EXPECT_EQ(seen.submitted, seen.queued + seen.running + seen.completed +
                                  seen.failed + seen.cancelled + seen.expired);
    switch (path) {
      case Path::kExpire:  // one pop expires the whole backlog
        EXPECT_EQ(status, JobStatus::kExpired);
        EXPECT_EQ(seen.expired, 2000u);
        break;
      case Path::kAbort:  // one edge cancels the whole backlog
        EXPECT_EQ(status, JobStatus::kCancelled);
        EXPECT_EQ(seen.cancelled, 2000u);
        break;
      case Path::kCancel:
        EXPECT_EQ(status, JobStatus::kCancelled);
        EXPECT_EQ(seen.cancelled, 1u);
        break;
      case Path::kDone:
        EXPECT_EQ(status, JobStatus::kDone);
        EXPECT_GE(seen.completed, 1u);
        break;
    }
  }
}

TEST(JobService, ShutdownDrainRunsEverythingAbortCancelsQueued) {
  const StateVectorBackend backend;
  {
    ServiceOptions options;
    options.workers = 2;
    options.start_paused = true;
    JobService service(backend, options);
    std::vector<JobHandle> handles;
    for (int i = 0; i < 6; ++i)
      handles.push_back(
          service.submit(JobSpec(qrc_circuit(0.5)).with_shots(4)));
    service.shutdown(ShutdownMode::kDrain);  // resumes, runs all, stops
    for (const JobHandle& h : handles)
      EXPECT_EQ(h.status(), JobStatus::kDone);
    EXPECT_THROW(service.submit(JobSpec(qrc_circuit(0.5))),
                 std::runtime_error);
  }
  {
    ServiceOptions options;
    options.workers = 2;
    options.start_paused = true;
    JobService service(backend, options);
    std::vector<JobHandle> handles;
    for (int i = 0; i < 6; ++i)
      handles.push_back(
          service.submit(JobSpec(qrc_circuit(0.5)).with_shots(4)));
    service.shutdown(ShutdownMode::kAbort);
    for (const JobHandle& h : handles)
      EXPECT_EQ(h.status(), JobStatus::kCancelled);
    EXPECT_EQ(service.telemetry().cancelled, 6u);
  }
}

TEST(JobService, PauseAfterShutdownIsANoOp) {
  // pause() racing shutdown(kDrain) must not strand draining workers.
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobService service(backend, options);
  JobHandle h = service.submit(JobSpec(qrc_circuit(0.7)).with_shots(4));
  std::thread racer([&] { service.shutdown(ShutdownMode::kDrain); });
  service.pause();  // may land before or after the drain flag; must not
                    // stop the drain from finishing either way
  racer.join();
  EXPECT_EQ(h.status(), JobStatus::kDone);
}

TEST(JobService, QueueBoundRejectsOverflow) {
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.max_queued = 2;
  options.start_paused = true;
  JobService service(backend, options);
  JobHandle a = service.submit(JobSpec(qrc_circuit(0.1)));
  JobHandle b = service.submit(JobSpec(qrc_circuit(0.2)));
  EXPECT_THROW(service.submit(JobSpec(qrc_circuit(0.3))),
               std::runtime_error);
  EXPECT_TRUE(a.cancel());  // frees a slot
  JobHandle c = service.submit(JobSpec(qrc_circuit(0.4)));
  service.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(b.status(), JobStatus::kDone);
  EXPECT_EQ(c.status(), JobStatus::kDone);
}

TEST(JobService, FailedJobsSurfaceTheErrorAndSpareBatchMates) {
  // DensityMatrixBackend rejects oversized registers; a batch mixing a
  // poisoned job (tiny max_dim) with healthy ones must fail only the
  // poisoned one, and execute every job exactly once.
  const DensityMatrixBackend backend;
  obs::Tracer tracer;
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 8;
  options.start_paused = true;
  options.tracer = &tracer;
  JobService service(backend, options);
  JobHandle good1 = service.submit(JobSpec(qrc_circuit(0.2)).with_shots(4));
  JobHandle poisoned =
      service.submit(JobSpec(qrc_circuit(0.2)).with_max_dim(2));
  JobHandle good2 = service.submit(JobSpec(qrc_circuit(0.2)).with_shots(4));
  service.resume();
  EXPECT_EQ(good1.wait().status, JobStatus::kDone);
  EXPECT_EQ(good2.wait().status, JobStatus::kDone);
  const JobOutcome failure = poisoned.wait();
  EXPECT_EQ(failure.status, JobStatus::kFailed);
  EXPECT_FALSE(failure.error.empty());
  EXPECT_THROW(poisoned.result(), std::runtime_error);
  service.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(service.telemetry().failed, 1u);
  EXPECT_EQ(service.telemetry().completed, 2u);

  // One kExecute span per job: the healthy batch-mates are not re-run to
  // isolate the failure.
  EXPECT_EQ(tracer.dropped(), 0u);
  std::map<JobId, int> executions;
  for (const obs::Span& s : tracer.spans())
    if (s.phase == obs::Phase::kExecute) ++executions[s.job];
  const std::map<JobId, int> once = {
      {good1.id(), 1}, {poisoned.id(), 1}, {good2.id(), 1}};
  EXPECT_EQ(executions, once);
}

TEST(JobService, UnresolvableBatchFailsOnceWithItsError) {
  // A 3-site circuit cannot be mapped onto a 2-mode device. Its jobs share
  // one plan key, so they batch together and would all fail the same way:
  // the batch resolves once and every member fails with that error, while
  // a job that fits the device still runs.
  ProcessorConfig cfg;
  cfg.num_cavities = 2;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  Circuit wide(QuditSpace::uniform(3, 3));
  wide.add("F", fourier(3), {0});
  wide.add("CSUM", csum(3, 3), {0, 1});
  wide.add("CSUM", csum(3, 3), {1, 2});
  Circuit fits(QuditSpace::uniform(2, 3));
  fits.add("F", fourier(3), {0});
  fits.add("CSUM", csum(3, 3), {0, 1});

  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.max_batch = 8;
  options.start_paused = true;
  JobService service(backend, options);
  const std::vector<JobHandle> doomed = {
      service.submit(JobSpec(wide).with_compilation(proc).with_shots(8)),
      service.submit(JobSpec(wide).with_compilation(proc).with_shots(8))};
  const JobHandle ok =
      service.submit(JobSpec(fits).with_compilation(proc).with_shots(8));
  service.resume();
  for (const JobHandle& h : doomed) {
    const JobOutcome outcome = h.wait();
    EXPECT_EQ(outcome.status, JobStatus::kFailed);
    EXPECT_NE(outcome.error.find("map_qudits: not enough modes"),
              std::string::npos)
        << outcome.error;
  }
  EXPECT_EQ(ok.wait().status, JobStatus::kDone);
  service.shutdown(ShutdownMode::kDrain);

  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.completed, 1u);
  EXPECT_EQ(t.batches, 2u);
  // One transpile lookup per batch, the failed one included.
  EXPECT_EQ(t.transpile_cache_misses, 2u);
}

TEST(JobService, FetchServesResultsAfterHandlesAreGone) {
  const StateVectorBackend backend;
  JobService service(backend, {});
  JobId id = 0;
  {
    JobHandle h = service.submit(JobSpec(qrc_circuit(0.6)).with_shots(32));
    id = h.id();
    EXPECT_EQ(h.wait().status, JobStatus::kDone);
  }
  const auto fetched = service.fetch(id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->total_counts(), 32u);
  EXPECT_FALSE(service.fetch(id + 999).has_value());
  service.shutdown(ShutdownMode::kDrain);
}

// ---------------------------------------------------------------------
// Lock-order contract hammer (core -> record, see thread_annotations.h).
// ---------------------------------------------------------------------

TEST(JobService, LockOrderHammerWaitCancelAbortRecalibrate) {
  // Stresses the documented core -> record lock order from every side at
  // once: client threads block in JobHandle::wait (record mutex), others
  // race cancel() (core -> record nesting), a recalibration storm churns
  // the core mutex + calibration store, telemetry polls the core mutex,
  // and shutdown(kAbort) lands mid-flight, cancelling whatever is still
  // queued (core mutex, then every queued record's mutex). Under TSan
  // (full-suite CI job) and the clang -Wthread-safety build, an order
  // violation or unlocked guarded access here fails the build or the
  // run -- this test pins the contract, not a particular schedule.
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const StateVectorBackend backend;
  // Tracing rides along: the hammer doubles as the span-coverage and
  // timestamp-monotonicity stress (assertions after shutdown).
  obs::TracerOptions tracer_options;
  tracer_options.shards = 4;
  tracer_options.capacity_per_shard = 16384;
  obs::Tracer tracer(tracer_options);
  ServiceOptions options;
  options.workers = 3;
  options.max_batch = 4;
  options.start_paused = true;  // build a backlog for abort to hit
  options.tracer = &tracer;
  JobService service(backend, options);

  std::vector<JobHandle> handles;
  for (int i = 0; i < 60; ++i)
    handles.push_back(service.submit(JobSpec(qaoa_circuit(0.5))
                                         .with_tenant(i % 2 ? "a" : "b")
                                         .with_compilation(proc)
                                         .with_shots(8)));

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    for (std::size_t i = 0; i < handles.size(); i += 3)
      handles[i].cancel();
  });
  std::thread recalibrator([&] {
    for (int e = 0; e < 8; ++e)
      service.recalibrate(CalibrationSnapshot::nominal(proc));
  });
  std::thread poller([&] {
    while (!stop.load()) {
      // Mid-flight balance invariant: telemetry is ONE registry cut, so
      // the lifecycle books must balance exactly in every poll, not
      // just after quiescence (the historical torn-read regression).
      const ServiceTelemetry t = service.telemetry();
      EXPECT_EQ(t.completed + t.failed + t.cancelled + t.expired +
                    t.queued + t.running,
                t.submitted);
    }
  });
  std::vector<std::thread> waiters;
  for (std::size_t t = 0; t < 4; ++t)
    waiters.emplace_back([&, t] {
      for (std::size_t i = t; i < handles.size(); i += 4)
        (void)handles[i].wait();
    });

  service.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.shutdown(ShutdownMode::kAbort);  // races in-flight batches

  canceller.join();
  recalibrator.join();
  for (std::thread& w : waiters) w.join();
  stop = true;
  poller.join();

  // Every job is terminal and the books balance exactly.
  for (const JobHandle& h : handles) EXPECT_TRUE(is_terminal(h.status()));
  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.submitted, handles.size());
  EXPECT_EQ(t.completed + t.failed + t.cancelled + t.expired,
            handles.size());
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.queued, 0u);
  EXPECT_EQ(t.running, 0u);
  EXPECT_EQ(t.recalibrations, 8u);
  // Submission raced no recalibration epochs backwards.
  EXPECT_EQ(t.calib_epoch, 8u);

  // --- span coverage + ordering under the same hammer -------------------
  EXPECT_EQ(tracer.dropped(), 0u);  // rings sized to retain everything
  const std::vector<obs::Span> spans = tracer.spans();
  // Timestamps are monotone within every span, and the deterministic
  // sort is by start time: monotone across the merged list too.
  std::uint64_t last_start = 0;
  for (const obs::Span& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    EXPECT_GE(s.start_ns, last_start);
    last_start = s.start_ns;
  }
  // Index per job: which phases were recorded, and the kJob root span.
  std::map<std::uint64_t, std::set<obs::Phase>> phases;
  std::map<std::uint64_t, obs::Span> roots;
  for (const obs::Span& s : spans) {
    phases[s.job].insert(s.phase);
    if (s.phase == obs::Phase::kJob) roots[s.job] = s;
  }
  std::size_t done_jobs = 0;
  for (const JobHandle& h : handles) {
    // Every submitted job carries a kSubmit span.
    EXPECT_TRUE(phases[h.id()].count(obs::Phase::kSubmit)) << h.id();
    if (h.status() != JobStatus::kDone) continue;
    ++done_jobs;
    // Completed jobs cover the full lifecycle: queue wait, execution,
    // store insert, and the kJob root.
    for (const obs::Phase p :
         {obs::Phase::kQueue, obs::Phase::kExecute, obs::Phase::kStore,
          obs::Phase::kJob})
      EXPECT_TRUE(phases[h.id()].count(p))
          << "job " << h.id() << " missing phase "
          << obs::phase_name(p);
    // Parent/child ordering: every job-phase span nests inside the
    // job's kJob root interval.
    ASSERT_TRUE(roots.count(h.id()));
    const obs::Span& root = roots[h.id()];
    for (const obs::Span& s : spans) {
      if (s.job != h.id() || s.phase == obs::Phase::kJob ||
          s.phase == obs::Phase::kSubmit)
        continue;  // kSubmit starts before the root by design
      EXPECT_GE(s.start_ns, root.start_ns) << obs::phase_name(s.phase);
      EXPECT_LE(s.end_ns, root.end_ns) << obs::phase_name(s.phase);
    }
  }
  EXPECT_GT(done_jobs, 0u);  // the hammer must have completed something
  // Per-tenant latency percentiles are queryable, and every finished
  // (done or failed) job was observed in exactly one tenant histogram.
  const TenantLatency lat_a = service.tenant_latency("a");
  const TenantLatency lat_b = service.tenant_latency("b");
  EXPECT_EQ(lat_a.count + lat_b.count, t.completed + t.failed);
  if (lat_a.count > 0) {
    EXPECT_GT(lat_a.p50, 0.0);
    EXPECT_LE(lat_a.p50, lat_a.p95);
    EXPECT_LE(lat_a.p95, lat_a.p99);
  }
  // The Chrome export of the hammer's trace is well-formed JSON prose.
  std::ostringstream json;
  tracer.export_chrome_json(json);
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
}

// ---------------------------------------------------------------------
// ResultStore bounds.
// ---------------------------------------------------------------------

ExecutionResult dummy_result(std::size_t shots) {
  ExecutionResult r;
  r.backend = "test";
  r.shots = shots;
  return r;
}

TEST(ResultStore, TtlEvictsOldEntries) {
  using Clock = ResultStore::Clock;
  ResultStore store(8, 10.0);  // 10 s TTL
  const Clock::time_point t0 = Clock::now();
  store.put(1, dummy_result(100), t0);
  store.put(2, dummy_result(200), t0 + std::chrono::seconds(6));
  ASSERT_TRUE(store.get(1, t0 + std::chrono::seconds(9)).has_value());
  // At t0+11s entry 1 is past its TTL, entry 2 is not.
  EXPECT_FALSE(store.get(1, t0 + std::chrono::seconds(11)).has_value());
  const auto live = store.get(2, t0 + std::chrono::seconds(11));
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->shots, 200u);
  EXPECT_EQ(store.expired(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, CapacityEvictsOldestFirst) {
  using Clock = ResultStore::Clock;
  ResultStore store(3, 1000.0);
  const Clock::time_point t0 = Clock::now();
  for (JobId id = 1; id <= 5; ++id) store.put(id, dummy_result(id), t0);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evicted(), 2u);
  EXPECT_FALSE(store.get(1, t0).has_value());
  EXPECT_FALSE(store.get(2, t0).has_value());
  for (JobId id = 3; id <= 5; ++id)
    EXPECT_TRUE(store.get(id, t0).has_value());
  // Re-putting an id refreshes it instead of duplicating.
  store.put(4, dummy_result(44), t0);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.get(4, t0)->shots, 44u);
}

}  // namespace
}  // namespace qs
