#include "sim/scenario.h"

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calib/drift.h"
#include "calib/snapshot.h"
#include "common/rng.h"
#include "hardware/processor.h"
#include "obs/clock.h"
#include "serve/service.h"

namespace qs {
namespace sim {
namespace {

/// Stream tags separating the spec's derived seed streams. Arrival
/// streams are per (tenant index, tick): a pure function of the spec,
/// never of submission history.
constexpr std::uint64_t kTenantStream = 0xa11c0de5ull;
constexpr std::uint64_t kStormStream = 0x570a2ull;

/// Knuth Poisson sampler (chunked so large rates never underflow
/// exp(-lambda)). Deterministic given the RNG state.
std::uint64_t poisson(Rng& rng, double lambda) {
  std::uint64_t n = 0;
  while (lambda > 400.0) {
    n += poisson(rng, 400.0);
    lambda -= 400.0;
  }
  if (lambda <= 0.0) return n;
  const double limit = std::exp(-lambda);
  double p = 1.0;
  for (;;) {
    p *= rng.uniform();
    if (p <= limit) return n;
    ++n;
  }
}

bool in_burst(const TenantSpec& tenant, std::uint64_t tick) {
  return tenant.burst_period > 0 && tenant.burst_factor > 1.0 &&
         tick % tenant.burst_period < tenant.burst_length;
}

/// One kSnapshot cut: the worker-count-invariant counter subset of the
/// telemetry, stamped at virtual `now`. Per-batch counters (batches,
/// cache hits) are deliberately absent -- batch composition varies with
/// worker count, and journalling it would break the replay contract.
obs::JournalEvent snapshot_event(const ServiceTelemetry& t,
                                 obs::TimePoint now) {
  obs::JournalEvent event;
  event.time_ns = obs::nanos_since_epoch(now);
  event.type = obs::JournalEventType::kSnapshot;
  event.counters.submitted = t.submitted;
  event.counters.completed = t.completed;
  event.counters.failed = t.failed;
  event.counters.cancelled = t.cancelled;
  event.counters.expired = t.expired;
  event.counters.queued = t.queued;
  event.counters.running = t.running;
  event.counters.recalibrations = t.recalibrations;
  event.counters.stale_hits = t.stale_hits;
  event.counters.results_stored = t.results_stored;
  event.counters.calib_epoch = t.calib_epoch;
  return event;
}

}  // namespace

ScenarioReport run_scenario(const Backend& backend, const WorkloadSpec& spec,
                            obs::Journal& journal,
                            const ScenarioOptions& options) {
  if (spec.tenants.empty())
    throw std::runtime_error("run_scenario: spec has no tenants");
  journal.set_header("spec", spec.serialize());
  journal.set_header("rng", std::to_string(kRngStreamVersion));

  // lint:allow(nondeterminism): ManualClock ctor, not a clock() read
  obs::ManualClock clock(0);
  ServiceOptions service_options;
  service_options.workers = options.workers;
  service_options.max_batch = options.max_batch;
  service_options.start_paused = true;
  service_options.clock = &clock;
  service_options.journal = &journal;
  service_options.seed = split_seed(spec.seed, 0x5eedull);
  service_options.result_ttl_seconds = spec.result_ttl_seconds;
  // Capacity must never bind: FIFO eviction order depends on worker
  // interleaving, while TTL expiry is a pure function of virtual time.
  // Only the latter is allowed to evict in a replayable scenario.
  service_options.result_store_capacity = 1u << 20;
  JobService service(backend, service_options);

  // Recalibration storms drift a testbed device's calibration chain;
  // advance() derives its RNG from (storm seed, input epoch), so the
  // chain is a pure function of the spec.
  const Processor device = Processor::testbed_device();
  CalibrationSnapshot calibration = CalibrationSnapshot::nominal(device, 0.02);
  const DriftModel drift(split_seed(spec.seed, kStormStream));

  // Each (tenant index, variant) job is built the first time it is
  // drawn and copied for every later arrival: building one computes its
  // circuit's gate exponentials. Filled lazily, never sized by the
  // spec's `variants`, which is outside input.
  std::map<std::pair<std::size_t, std::size_t>, JobSpec> jobs;
  const auto job_for = [&](std::size_t ti, std::size_t variant) {
    auto it = jobs.find({ti, variant});
    if (it == jobs.end())
      it = jobs.emplace(std::make_pair(ti, variant),
                        make_job(spec.tenants[ti], variant))
               .first;
    return it->second;
  };

  std::vector<JobHandle> open;
  std::uint64_t snapshots = 0;
  for (std::uint64_t tick = 0; tick < spec.ticks; ++tick) {
    if (tick > 0) {
      clock.advance_seconds(spec.tick_seconds);
      // Every event of the previous tick is recorded by now: the driver
      // records its own submits, cancels, marks and cuts, and a drain
      // waits on every handle (a paused tick dispatches nothing).
      journal.seal_before(obs::nanos_since_epoch(clock.now()));
    }
    const obs::TimePoint now = clock.now();
    const bool flood = spec.flood_at(tick);

    // (1) Arrivals, cancels: driver-thread-only, dispatch paused, so
    // every submitted job is still kQueued when its cancel coin lands.
    for (std::size_t ti = 0; ti < spec.tenants.size(); ++ti) {
      const TenantSpec& tenant = spec.tenants[ti];
      Rng rng(split_seed(split_seed(spec.seed, kTenantStream + ti), tick));
      const double rate =
          tenant.rate * (in_burst(tenant, tick) ? tenant.burst_factor : 1.0);
      const std::uint64_t arrivals = poisson(rng, rate);
      for (std::uint64_t k = 0; k < arrivals; ++k) {
        JobSpec job =
            job_for(ti, rng.index(std::max<std::size_t>(1, tenant.variants)));
        if (tenant.deadline_fraction > 0.0 &&
            rng.bernoulli(tenant.deadline_fraction))
          job.with_deadline(tenant.deadline_seconds);
        const double cancel_p =
            flood ? spec.flood_cancel_fraction : tenant.cancel_fraction;
        const bool cancel = cancel_p > 0.0 && rng.bernoulli(cancel_p);
        JobHandle handle = service.submit(std::move(job));
        if (cancel)
          handle.cancel();
        else
          open.push_back(std::move(handle));
      }
    }

    // (2) Recalibration storm: a burst of drifted snapshot publishes.
    if (spec.storm_at(tick)) {
      const double dt =
          spec.tick_seconds / static_cast<double>(
                                  std::max<std::size_t>(1,
                                                        spec.storm_publishes));
      for (std::size_t s = 0; s < spec.storm_publishes; ++s) {
        calibration = drift.advance(calibration, dt);
        service.recalibrate(calibration);
      }
    }

    // (3) Drain (unless inside a pause window: then the queue builds
    // and the ticking clock ages deadlines and result TTLs). The clock
    // is frozen during the drain, so every dispatch, expiry, and finish
    // in it is stamped at this tick's timestamp. A job's counters commit
    // before its waiters wake, so once every handle has returned the
    // telemetry cut below already counts every job.
    if (!spec.paused_at(tick)) {
      service.resume();
      for (const JobHandle& handle : open) handle.wait();
      open.clear();
      service.pause();
    }

    // (4) Snapshot cut when due (the final tick always cuts, after
    // shutdown below).
    const bool last_tick = tick + 1 == spec.ticks;
    if (!last_tick && spec.snapshot_every > 0 &&
        (tick + 1) % spec.snapshot_every == 0) {
      const ServiceTelemetry t = service.telemetry();
      obs::JournalEvent cut = snapshot_event(t, now);
      if (!cut.counters.balanced())
        throw std::runtime_error(
            "run_scenario: unbalanced telemetry at tick " +
            std::to_string(tick));
      journal.record(std::move(cut));
      ++snapshots;
    }
  }

  // Final drain + shutdown + closing cut. Pause windows may leave jobs
  // queued; kDrain runs them at the final timestamp.
  service.resume();
  for (const JobHandle& handle : open) handle.wait();
  open.clear();
  service.shutdown(ShutdownMode::kDrain);
  const ServiceTelemetry final_telemetry = service.telemetry();
  obs::JournalEvent cut = snapshot_event(final_telemetry, clock.now());
  if (!cut.counters.balanced())
    throw std::runtime_error("run_scenario: unbalanced final telemetry");
  journal.record(std::move(cut));
  ++snapshots;

  ScenarioReport report;
  report.submitted = final_telemetry.submitted;
  report.completed = final_telemetry.completed;
  report.failed = final_telemetry.failed;
  report.cancelled = final_telemetry.cancelled;
  report.expired = final_telemetry.expired;
  report.recalibrations = final_telemetry.recalibrations;
  report.snapshots = snapshots;
  report.final_epoch = final_telemetry.calib_epoch;
  return report;
}

}  // namespace sim
}  // namespace qs
