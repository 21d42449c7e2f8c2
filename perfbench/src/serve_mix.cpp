// serve-mix: the paper's shared device under drift, through a live
// JobService (see perfbench/README.md for why it exists and what it
// predicts).
//
// One burst = one generator thread submitting 16384 background jobs, all
// due at once, round-robin over four tenants (a hardware-compiled
// parametric QAOA sweep and three sim::make_job probes), publishing a
// drifted calibration every 2048 submissions. Once the burst is queued,
// one interactive client runs a closed loop of priority-10 copies of the
// QAOA job until the last background job completes. A job is one
// background job; jobs_per_s = 16384 / (first submit -> last completion),
// median over the run's bursts.
//
// Why the interactive loop starts when the last submit returns: during
// the ~0.2 s submission flood its round trip is 13-22 ms (lock contention
// with the generator plus a full batch of same-key background jobs), and
// those ~8 samples per burst are about 1% of the burst's samples -- p99
// sat on the edge between them and the drain-phase tail and jumped
// between ~9 and ~15 ms from run to run.
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"

#include "calib/drift.h"
#include "calib/snapshot.h"
#include "common/rng.h"
#include "exec/trajectory_backend.h"
#include "hardware/processor.h"
#include "noise/noise_model.h"
#include "qaoa/coloring_qaoa.h"
#include "qaoa/graph.h"
#include "serve/service.h"
#include "sim/workload.h"

namespace perfbench {
namespace {

using qs::JobHandle;
using qs::JobSpec;
using qs::JobStatus;
using qs::obs::Phase;

constexpr std::size_t kBurstJobs = 16384;
constexpr std::size_t kRecalibrateEvery = 2048;
constexpr std::size_t kCalibrations = kBurstJobs / kRecalibrateEvery;
constexpr std::size_t kShots = 8;
constexpr std::size_t kVariants = 4;
constexpr std::size_t kWarmupJobs = kRecalibrateEvery;
constexpr int kInteractivePriority = 10;
constexpr const char* kInteractive = "interactive";

/// Seed streams split from --seed.
constexpr std::uint64_t kBackgroundStream = 1;
constexpr std::uint64_t kInteractiveStream = 2;
constexpr std::uint64_t kWarmupStream = 3;
constexpr std::uint64_t kDriftStream = 4;

/// bench_param_sweep's 4-mode qutrit device (2 cavities x 2 modes x 3
/// levels): the routed QAOA circuit stays small (81 amplitudes).
qs::Processor sweep_device() {
  qs::ProcessorConfig config;
  config.num_cavities = 2;
  config.modes_per_cavity = 2;
  config.levels_per_mode = 3;
  return qs::Processor(config);
}

qs::NoiseModel serve_noise() {
  qs::NoiseParams p;
  p.depol_2q = 0.02;
  p.loss_per_gate = 0.01;
  return qs::NoiseModel(p);
}

/// The p=1 3-coloring of the 4-ring, symbolic (bound per job), compiled
/// for `device`.
JobSpec qaoa_job(const qs::Processor& device) {
  qs::Graph ring;
  ring.n = 4;
  ring.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const qs::ColoringQaoa qaoa(ring, 3);
  JobSpec job(qaoa.parametric_circuit(1, std::vector<int>(4, 0)));
  job.with_tenant("qaoa").with_shots(kShots).with_compilation(device);
  return job;
}

/// qrc, sqed and tomo probes, kVariants sweep points each.
std::vector<JobSpec> probe_jobs() {
  std::vector<JobSpec> jobs;
  for (qs::sim::JobKind kind :
       {qs::sim::JobKind::kQrc, qs::sim::JobKind::kSqed,
        qs::sim::JobKind::kTomo}) {
    qs::sim::TenantSpec tenant;
    tenant.name = qs::sim::to_string(kind);
    tenant.kind = kind;
    tenant.shots = kShots;
    tenant.variants = kVariants;
    for (std::size_t v = 0; v < kVariants; ++v)
      jobs.push_back(qs::sim::make_job(tenant, v));
  }
  return jobs;
}

/// Long-lived objects of the workload. Heap-allocated once and never
/// moved: job specs point at `device`, the service at `backend`, and the
/// service's options at `tracer`.
struct State {
  qs::Processor device = sweep_device();
  qs::TrajectoryBackend backend{serve_noise()};
  JobSpec qaoa = qaoa_job(device);
  std::vector<JobSpec> probes = probe_jobs();
  /// Drifted calibrations published every kRecalibrateEvery submissions.
  std::vector<qs::CalibrationSnapshot> calibrations;
  std::unique_ptr<qs::obs::Tracer> tracer;  ///< trace runs only
  std::unique_ptr<qs::JobService> service;
};

std::vector<double> angles(std::uint64_t seed) {
  qs::Rng rng(seed);
  const double gamma = 4.0 * rng.uniform();
  return {gamma, 2.0 * rng.uniform()};
}

JobSpec background_job(const State& s, std::uint64_t root, std::size_t k) {
  const std::size_t tenant = k % 4;
  const std::uint64_t seed = qs::split_seed(root, k);
  if (tenant == 0) {
    JobSpec job = s.qaoa;
    job.with_parameters(angles(seed)).with_seed(seed);
    return job;
  }
  JobSpec job = s.probes[(tenant - 1) * kVariants + (k / 4) % kVariants];
  job.with_seed(seed);
  return job;
}

JobSpec interactive_job(const State& s, std::uint64_t root, std::size_t i) {
  const std::uint64_t seed = qs::split_seed(root, i);
  JobSpec job = s.qaoa;
  job.with_tenant(kInteractive)
      .with_priority(kInteractivePriority)
      .with_parameters(angles(seed))
      .with_seed(seed);
  return job;
}

std::unique_ptr<State> make_state(const Options& options) {
  auto s = std::make_unique<State>();
  const qs::DriftModel drift(qs::split_seed(options.seed, kDriftStream));
  s->calibrations = drift.replay(
      qs::CalibrationSnapshot::nominal(s->device, 0.02), 60.0,
      static_cast<int>(kCalibrations));

  qs::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.max_batch = 16;
  if (options.trace) {
    qs::obs::TracerOptions tracer_options;
    tracer_options.shards = 8;
    tracer_options.capacity_per_shard = std::size_t{1} << 16;
    tracer_options.start_enabled = false;
    s->tracer = std::make_unique<qs::obs::Tracer>(tracer_options);
    service_options.tracer = s->tracer.get();
  }
  s->service = std::make_unique<qs::JobService>(s->backend, service_options);

  // Warm-up: fill the plan/transpile caches and the allocator.
  const std::uint64_t warm = qs::split_seed(options.seed, kWarmupStream);
  s->service->recalibrate(s->calibrations.front());
  std::vector<JobHandle> handles;
  for (std::size_t k = 0; k < kWarmupJobs; ++k)
    handles.push_back(s->service->submit(background_job(*s, warm, k)));
  handles.push_back(s->service->submit(interactive_job(*s, warm, 0)));
  for (const JobHandle& h : handles) h.wait();
  return s;
}

std::uint64_t result_digest(const qs::ExecutionResult& r) {
  const std::uint64_t h =
      fnv1a(r.counts.data(), r.counts.size() * sizeof(r.counts[0]));
  return fnv1a(r.probabilities.data(),
               r.probabilities.size() * sizeof(double), h);
}

struct Burst {
  double seconds = 0.0;  ///< first submit -> last background completion
  Usage usage;           ///< getrusage delta over the burst
  std::vector<double> interactive_ms;
  std::size_t interactive_bad = 0;
  qs::ServiceTelemetry before, after;
};

/// Runs one burst. With a span log (trace runs) every submit and
/// recalibrate call and every interactive round trip is a span under one
/// `root_name` span.
Burst run_burst(State& s, std::uint64_t root, SpanLog* spans,
                const char* root_name, std::vector<JobHandle>& handles) {
  qs::JobService& service = *s.service;
  Burst b;
  SpanScope burst_span(spans, root_name);
  b.before = service.telemetry();
  handles.clear();
  handles.reserve(kBurstJobs);
  std::atomic<bool> stop{false};
  std::promise<void> go;
  std::shared_future<void> started = go.get_future().share();
  const std::uint64_t interactive_root =
      qs::split_seed(root, kInteractiveStream);
  std::string interactive_error;  // written by the client thread only
  std::thread interactive([&] {
    started.wait();
    try {
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        JobSpec job = interactive_job(s, interactive_root, i);
        SpanScope round_trip(spans, "serve.interactive_round_trip",
                             burst_span.id());
        const Clock::time_point t0 = Clock::now();
        const qs::JobOutcome outcome = service.submit(std::move(job)).wait();
        b.interactive_ms.push_back(1e3 * seconds_since(t0));
        if (outcome.status != JobStatus::kDone ||
            outcome.result.total_counts() != kShots)
          ++b.interactive_bad;
      }
    } catch (const std::exception& e) {
      interactive_error = e.what();
    }
  });
  // Releases and joins the client on every path out of this function.
  bool released = false;
  auto finish_client = [&] {
    stop.store(true, std::memory_order_relaxed);
    if (!released) go.set_value();
    released = true;
    interactive.join();
  };

  const std::uint64_t background_root =
      qs::split_seed(root, kBackgroundStream);
  const Usage u0 = Usage::now();
  const Clock::time_point first = Clock::now();
  try {
    for (std::size_t k = 0; k < kBurstJobs; ++k) {
      if (k % kRecalibrateEvery == 0) {
        SpanScope call(spans, "serve.recalibrate", burst_span.id());
        service.recalibrate(s.calibrations[k / kRecalibrateEvery]);
      }
      JobSpec job = background_job(s, background_root, k);
      SpanScope call(spans, "serve.submit", burst_span.id());
      handles.push_back(service.submit(std::move(job)));
    }
    go.set_value();
    released = true;
    // The latest submissions finish last (FIFO within a tenant): waiting
    // on them first keeps the generator asleep through the drain instead
    // of waking it once per completion.
    SpanScope wait(spans, "serve.wait_all", burst_span.id());
    for (auto h = handles.rbegin(); h != handles.rend(); ++h)
      if (!qs::is_terminal(h->status())) h->wait();
  } catch (...) {
    finish_client();
    throw;
  }
  b.seconds = seconds_since(first);
  finish_client();
  if (!interactive_error.empty())
    throw std::runtime_error("interactive client: " + interactive_error);
  b.usage = Usage::now().since(u0);
  b.after = service.telemetry();
  return b;
}

/// Output checks of one burst: every background job kDone with its
/// shots counted, per-job digests equal to the first burst's, and the
/// service telemetry balanced and quiescent.
void check(Report& report, const Burst& b,
           const std::vector<JobHandle>& handles,
           std::vector<std::uint64_t>& digests) {
  const bool first = digests.empty();
  std::size_t bad = 0, mismatched = 0;
  for (std::size_t k = 0; k < handles.size(); ++k) {
    const qs::JobOutcome outcome = handles[k].wait();
    const std::uint64_t d = result_digest(outcome.result);
    if (first) digests.push_back(d);
    if (outcome.status != JobStatus::kDone ||
        outcome.result.total_counts() != kShots)
      ++bad;
    else if (digests[k] != d)
      ++mismatched;
  }
  const std::size_t interactive = b.interactive_ms.size();
  report.attempted += kBurstJobs + interactive;
  if (bad > 0)
    report.fail_check(std::to_string(bad) +
                          " background jobs not kDone with kShots counts",
                      bad);
  if (mismatched > 0)
    report.fail_check(std::to_string(mismatched) +
                          " result digests differ from the first burst",
                      mismatched);
  if (b.interactive_bad > 0)
    report.fail_check(std::to_string(b.interactive_bad) +
                          " interactive jobs not kDone with kShots counts",
                      b.interactive_bad);
  const qs::ServiceTelemetry& t = b.after;
  const bool balanced =
      t.submitted ==
          t.completed + t.failed + t.cancelled + t.expired + t.queued +
              t.running &&
      t.queued == 0 && t.running == 0 && t.failed == 0 &&
      t.submitted - b.before.submitted == kBurstJobs + interactive &&
      t.completed - b.before.completed == kBurstJobs + interactive;
  if (!balanced)
    report.fail_check("service telemetry unbalanced after the burst",
                      kBurstJobs + interactive);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_telemetry_metrics(Report& report, const qs::ServiceTelemetry& a,
                           const qs::ServiceTelemetry& b) {
  auto d = [](std::size_t later, std::size_t earlier) {
    return static_cast<double>(later - earlier);
  };
  const double jobs = d(b.completed, a.completed);
  report.add("serve.batch_jobs_mean",
             ratio(d(b.batched_jobs, a.batched_jobs), d(b.batches, a.batches)),
             "count");
  const double plan_hits = d(b.plan_cache_hits, a.plan_cache_hits);
  report.add("exec.plan_cache_hit_ratio",
             ratio(plan_hits,
                   plan_hits + d(b.plan_cache_misses, a.plan_cache_misses)),
             "ratio");
  const double transpile_hits =
      d(b.transpile_cache_hits, a.transpile_cache_hits);
  report.add("compiler.transpile_cache_hit_ratio",
             ratio(transpile_hits,
                   transpile_hits + d(b.transpile_cache_misses,
                                      a.transpile_cache_misses)),
             "ratio");
  report.add("serve.stale_hits_per_job",
             ratio(d(b.stale_hits, a.stale_hits), jobs), "count");
  auto per_job = [&](std::uint64_t later, std::uint64_t earlier) {
    return ratio(static_cast<double>(later - earlier), jobs);
  };
  report.add("qudit.dispatch_specialized_per_job",
             per_job(b.kernel_specialized, a.kernel_specialized), "count");
  report.add("qudit.dispatch_generic_per_job",
             per_job(b.kernel_generic, a.kernel_generic), "count");
  report.add("qudit.dispatch_scalar_per_job",
             per_job(b.kernel_scalar, a.kernel_scalar), "count");
  report.add("qudit.dispatch_batched_per_job",
             per_job(b.kernel_batched, a.kernel_batched), "count");
}

/// Tracer phases reported per job, with their metric names.
struct PhaseMetric {
  Phase phase;
  const char* name;
};
constexpr PhaseMetric kPhaseMetrics[] = {
    {Phase::kSubmit, "serve.submit_self_us"},
    {Phase::kQueue, "serve.queue_wait_us"},
    {Phase::kBatch, "serve.batch_self_us"},
    {Phase::kTranspile, "compiler.transpile_self_us"},
    {Phase::kPass, "compiler.pass_self_us"},
    {Phase::kLower, "exec.lower_self_us"},
    {Phase::kBind, "exec.bind_self_us"},
    {Phase::kDispatch, "exec.dispatch_self_us"},
    {Phase::kExecute, "exec.execute_self_us"},
    {Phase::kStore, "serve.store_self_us"},
};

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  pin_to_cpus(4);  // generator, interactive client, 2 workers
  double setup_s = 0.0;
  std::unique_ptr<State> state = repeated_setup<State>(
      [&] { return make_state(options); }, options, &setup_s);

  // Trace runs alternate untraced and traced bursts (tracer toggled on
  // the same service) so the overhead compares like with like.
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::vector<JobHandle> handles;
  std::vector<std::uint64_t> digests;
  std::vector<Burst> plain, traced;
  PhaseBudget budget;
  std::uint64_t dropped = 0;
  std::size_t traced_jobs = 0;
  const qs::ServiceTelemetry start = state->service->telemetry();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool with_tracer = options.trace && i % 2 == 1;
    if (with_tracer) state->tracer->set_enabled(true);
    Burst b = run_burst(*state, options.seed, log,
                        with_tracer ? "serve.burst.traced" : "serve.burst",
                        handles);
    if (with_tracer) {
      state->tracer->set_enabled(false);
      dropped += state->tracer->dropped();
      budget.add(state->tracer->spans(), kInteractive);
      state->tracer->clear();
      traced_jobs += kBurstJobs + b.interactive_ms.size();
    }
    check(report, b, handles, digests);
    (with_tracer ? traced : plain).push_back(std::move(b));
    if (options.rss_probe) break;
    if (seconds_since(t0) >= options.seconds &&
        (!options.trace || !traced.empty()))
      break;
  }
  handles.clear();
  const qs::ServiceTelemetry end = state->service->telemetry();

  std::vector<double> rates, latencies_ms;
  Usage usage;
  for (const Burst& b : plain) {
    rates.push_back(static_cast<double>(kBurstJobs) / b.seconds);
    latencies_ms.insert(latencies_ms.end(), b.interactive_ms.begin(),
                        b.interactive_ms.end());
    usage.add(b.usage);
  }
  const double jobs = static_cast<double>(plain.size() * kBurstJobs);
  report.note("serve-mix: " + std::to_string(plain.size()) +
              " untraced bursts of " + std::to_string(kBurstJobs) +
              " background jobs + " + std::to_string(latencies_ms.size()) +
              " interactive round trips");
  if (options.rss_probe) {
    report.add("peak_rss_mb", Usage::now().max_rss_mib, "MiB");
    return report;
  }
  if (!options.trace) {
    add_end_to_end(report, setup_s, median(rates), usage, jobs, latencies_ms,
                   "interactive client's submit() -> wait() round trip");
    return report;
  }

  add_proc_metrics(report, usage, jobs);
  // Call timings from the untraced bursts only.
  const std::vector<double> submit_us =
      spans.durations_us("serve.submit", "serve.burst");
  report.add("serve.submit_call_us.mean", mean(submit_us), "us");
  report.add("serve.submit_call_us.p99", quantile(submit_us, 0.99), "us");
  report.add("serve.recalibrate_call_us",
             mean(spans.durations_us("serve.recalibrate", "serve.burst")),
             "us");
  add_telemetry_metrics(report, start, end);
  for (const PhaseMetric& m : kPhaseMetrics) {
    report.add(m.name,
               1e6 * budget.self_s(m.phase) / static_cast<double>(traced_jobs),
               "us");
    report.add(std::string(m.name) + ".interactive",
               budget.focus_mean_us(m.phase), "us");
  }
  std::vector<double> traced_rates;
  for (const Burst& b : traced)
    traced_rates.push_back(static_cast<double>(kBurstJobs) / b.seconds);
  report.add("obs.tracing_overhead_pct",
             100.0 * (median(rates) / median(traced_rates) - 1.0), "%");
  report.add("obs.trace_dropped_spans", static_cast<double>(dropped),
             "count");
  report.note("serve-mix trace: " + std::to_string(traced.size()) +
              " traced bursts, " + std::to_string(traced_jobs) +
              " traced jobs; per-job self times divide by all traced jobs, "
              ".interactive by interactive jobs along their own batch; " +
              std::to_string(budget.unmatched_batches()) +
              " unmatched batch spans; submit calls timed=" +
              std::to_string(submit_us.size()));
  if (dropped > 0)
    report.fail_check("tracer dropped " + std::to_string(dropped) + " spans",
                      0);
  if (!options.spans_out.empty()) spans.write_json(options.spans_out);
  return report;
}

}  // namespace perfbench
