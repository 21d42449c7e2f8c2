// Serve daemon: a mixed QAOA + QRC + SQED workload through the
// multi-tenant JobService (see docs/ARCHITECTURE.md "Serve layer").
//
// Three tenants -- the paper's three application studies -- submit
// concurrently from their own threads, with distinct priorities, onto one
// shared noisy trajectory backend. The service fair-shares the tenants,
// batches same-circuit bursts onto shared compiled plans, and stays
// bitwise deterministic: the whole run is replayed afterwards and every
// expectation value must match exactly.
//
// The first (verbose) run records the full span timeline of every job
// and writes it as Chrome trace_event JSON to TRACE_serve_daemon.json
// (load it in chrome://tracing or https://ui.perfetto.dev); CI's
// perf-smoke job archives that file as an artifact.
//
//   ./examples/example_serve_daemon
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/quditsim.h"

using namespace qs;

namespace {

NoiseModel device_noise() {
  NoiseParams p;
  p.depol_2q = 0.02;
  p.loss_per_gate = 0.01;
  return NoiseModel(p);
}

/// One tenant's job list (kept identical across replays).
std::vector<JobSpec> qaoa_jobs() {
  // Coloring QAOA on a 4-node graph, 3 colors: a gamma sweep where each
  // parameter point is submitted twice (shot halves) -- a same-circuit
  // burst the scheduler can batch onto one compiled plan.
  Rng rng(5);
  const Graph graph = random_graph(4, 0.7, rng);
  const ColoringQaoa qaoa(graph, 3);
  const std::vector<int> offsets(4, 0);
  std::vector<double> cost = qaoa.cost_diagonal(offsets);
  std::vector<JobSpec> jobs;
  for (double gamma : {0.4, 0.55, 0.7})
    for (int repeat = 0; repeat < 2; ++repeat)
      jobs.push_back(JobSpec(qaoa.build_circuit({gamma}, {0.35}, offsets))
                         .with_tenant("qaoa")
                         .with_priority(2)
                         .with_shots(192)
                         .with_observable("cost", cost));
  return jobs;
}

std::vector<JobSpec> qrc_jobs() {
  // Probe-style reservoir circuits on {2, 8} (transmon + cavity qudit):
  // an input-drive sweep reading out the cavity photon number.
  std::vector<JobSpec> jobs;
  for (double drive : {0.2, 0.5, 0.8, 1.1}) {
    Circuit c(QuditSpace({2, 8}));
    c.add("F", fourier(2), {0});
    c.add("D", displacement(8, cplx(drive, 0.15)), {1});
    c.add("CSUM", csum(2, 8), {0, 1});
    c.add("F8", fourier(8), {1});
    std::vector<double> photon_number(c.space().dimension());
    for (std::size_t i = 0; i < photon_number.size(); ++i)
      photon_number[i] = static_cast<double>(i % 8);
    jobs.push_back(JobSpec(std::move(c))
                       .with_tenant("qrc")
                       .with_priority(1)
                       .with_shots(128)
                       .with_observable("n_cavity", photon_number));
  }
  return jobs;
}

std::vector<JobSpec> sqed_jobs() {
  // Quench steps of a 3-rotor gauge chain (d = 3): Trotter depth sweep
  // recording the electric energy.
  GaugeModelParams params;
  params.d = 3;
  std::vector<JobSpec> jobs;
  for (int steps : {1, 2, 3}) {
    TrotterOptions opt;
    opt.dt = 0.25;
    opt.steps = steps;
    Circuit c = trotter_circuit(gauge_chain(3, params), opt);
    std::vector<double> electric = electric_energy_diagonal(c.space());
    jobs.push_back(JobSpec(std::move(c))
                       .with_tenant("sqed")
                       .with_priority(0)
                       .with_shots(128)
                       .with_observable("electric", electric));
  }
  return jobs;
}

/// Submits every tenant from its own thread and waits for all results.
/// Returns expectation values keyed by (tenant, job index).
std::map<std::string, std::vector<double>> run_workload(
    const Backend& backend, bool verbose, obs::Tracer* tracer = nullptr) {
  ServiceOptions options;
  options.workers = 4;
  options.max_batch = 8;
  options.tracer = tracer;
  JobService service(backend, options);

  std::vector<std::vector<JobSpec>> tenants;
  tenants.push_back(qaoa_jobs());
  tenants.push_back(qrc_jobs());
  tenants.push_back(sqed_jobs());

  std::vector<std::vector<JobHandle>> handles(tenants.size());
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < tenants.size(); ++t)
    submitters.emplace_back([&, t] {
      for (JobSpec& spec : tenants[t])
        handles[t].push_back(service.submit(std::move(spec)));
    });
  for (std::thread& s : submitters) s.join();

  std::map<std::string, std::vector<double>> expectations;
  const char* names[] = {"qaoa", "qrc", "sqed"};
  for (std::size_t t = 0; t < tenants.size(); ++t)
    for (const JobHandle& h : handles[t]) {
      const ExecutionResult r = h.result();  // waits; throws on failure
      expectations[names[t]].push_back(r.expectations.begin()->second);
    }

  if (verbose) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      std::printf("tenant %-5s:", names[t]);
      for (double e : expectations[names[t]]) std::printf("  %8.4f", e);
      std::printf("\n");
    }
    const ServiceTelemetry tl = service.telemetry();
    std::printf(
        "\ntelemetry: %zu submitted, %zu completed, %zu batches "
        "(mean %.2f jobs/batch, largest %zu)\n",
        tl.submitted, tl.completed, tl.batches, tl.mean_batch_size(),
        tl.largest_batch);
    std::printf(
        "plan cache: %zu compiles, %zu hits | queue wait total %.1f ms | "
        "%zu results stored\n",
        tl.plan_cache_misses, tl.plan_cache_hits,
        1e3 * tl.queue_seconds_total, tl.results_stored);
    // Ring overflow silently truncates job timelines; telemetry() reads
    // the tracer's drop counter into trace_dropped_spans so an operator
    // sees the gap instead of trusting a partial trace.
    if (tl.trace_dropped_spans > 0)
      std::printf("WARNING: tracer dropped %llu span(s) -- the exported "
                  "timeline is incomplete; raise "
                  "TracerOptions::capacity_per_shard\n",
                  static_cast<unsigned long long>(tl.trace_dropped_spans));
    std::printf("\nper-tenant submit->finish latency (ms):\n");
    for (const char* tenant : names) {
      const TenantLatency lat = service.tenant_latency(tenant);
      std::printf("  %-5s n=%-3zu mean %7.2f  p50 %7.2f  p95 %7.2f  "
                  "p99 %7.2f\n",
                  tenant, static_cast<std::size_t>(lat.count),
                  1e3 * lat.mean, 1e3 * lat.p50, 1e3 * lat.p95,
                  1e3 * lat.p99);
    }
  }
  service.shutdown(ShutdownMode::kDrain);
  return expectations;
}

}  // namespace

int main() {
  const TrajectoryBackend device{device_noise()};

  std::printf("mixed 3-tenant workload on backend '%s'\n\n",
              device.name().c_str());

  // Trace the verbose run end to end: every job's
  // submit->queue->batch->...->store timeline lands in the ring.
  obs::TracerOptions tracer_options;
  tracer_options.shards = 4;
  tracer_options.capacity_per_shard = 16384;
  obs::Tracer tracer(tracer_options);
  const auto first = run_workload(device, true, &tracer);

  const char* trace_path = "TRACE_serve_daemon.json";
  {
    std::ofstream trace_file(trace_path);
    tracer.export_chrome_json(trace_file);
  }
  std::printf("\ntrace: %llu spans (%llu dropped) -> %s "
              "(chrome://tracing)\n",
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()), trace_path);

  // The determinism contract: replaying the same per-tenant submissions
  // -- new service, new thread interleavings, same tenant streams --
  // reproduces every expectation value bitwise.
  const auto replay = run_workload(device, false);
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  for (const auto& [tenant, values] : first) {
    const auto& other = replay.at(tenant);
    for (std::size_t i = 0; i < values.size(); ++i, ++compared)
      if (values[i] != other[i]) ++mismatches;
  }
  std::printf("\nreplay check: %zu expectation values compared, "
              "%zu mismatches %s\n",
              compared, mismatches, mismatches == 0 ? "(bitwise equal)" : "");
  return mismatches == 0 ? 0 : 1;
}
