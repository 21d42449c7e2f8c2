// noisy-trajectories: kernel-bound noisy simulation through one
// ExecutionSession (see perfbench/README.md for why it exists and what it
// predicts).
//
// One client submits requests one at a time; each is bench_simulator_perf's
// layered 6-qutrit circuit (729 amplitudes, 4 layers) under that file's
// noise model, 64 shots, its own seed. The TrajectoryBackend spreads each
// request's trajectory blocks over 2 threads, pinned to 2 CPUs: spread
// over four idle vCPUs, the thread each request spawns waited for the
// hypervisor to wake one, which added up to 30% to the p95 latency. A job
// is one request.
#include <cmath>
#include <complex>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "harness.h"

#include "circuit/circuit.h"
#include "common/rng.h"
#include "exec/density_matrix_backend.h"
#include "exec/plan.h"
#include "exec/session.h"
#include "exec/trajectory_backend.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/matrix.h"
#include "noise/noise_model.h"

namespace perfbench {
namespace {

using qs::ExecutionRequest;
using qs::ExecutionResult;

constexpr std::size_t kShots = 64;
constexpr std::size_t kBackendThreads = 2;
constexpr std::size_t kWarmupRequests = 4;
/// Requests in the memory probe's single iteration.
constexpr std::size_t kProbeRequests = 16;
/// Chance that a correct program fails the total-variation check.
constexpr double kFalseAlarm = 1e-6;

/// bench_simulator_perf's noisy workload circuit: local unitaries, CSUM
/// entanglers and phase layers on 6 qutrits (fixed Rng(11) payloads).
qs::Circuit layered_qutrit_circuit(int layers) {
  qs::Circuit c(qs::QuditSpace::uniform(6, 3));
  qs::Rng rng(11);
  for (int layer = 0; layer < layers; ++layer) {
    for (int s = 0; s < 6; ++s) c.add("U", qs::random_unitary(3, rng), {s});
    for (int s = 0; s + 1 < 6; s += 2)
      c.add("CSUM", qs::csum(3, 3), {s, s + 1});
    std::vector<qs::cplx> diag(9);
    for (int i = 0; i < 9; ++i)
      diag[static_cast<std::size_t>(i)] =
          std::exp(qs::cplx{0.0, 0.07 * static_cast<double>(i)});
    for (int s = 1; s + 1 < 6; s += 2) c.add_diagonal("P", diag, {s, s + 1});
  }
  return c;
}

qs::NoiseModel workload_noise() {
  qs::NoiseParams p;
  p.depol_1q = 0.002;
  p.depol_2q = 0.01;
  p.dephase_1q = 0.001;
  p.loss_per_gate = 0.002;
  return qs::NoiseModel(p);
}

struct State {
  qs::Circuit circuit = layered_qutrit_circuit(4);
  qs::TrajectoryBackend backend{workload_noise(), kBackendThreads};
  qs::ExecutionSession session{backend, session_options()};

  static qs::SessionOptions session_options() {
    qs::SessionOptions options;
    options.threads = 1;  // one request at a time, on the client thread
    return options;
  }
};

/// Exact output populations from DensityMatrixBackend. Computing them
/// takes tens of seconds, so they are stored at `path` on first use,
/// tagged with the circuit and noise fingerprints they belong to.
std::vector<double> reference_populations(const State& s,
                                          const std::string& path) {
  const std::uint64_t tag =
      qs::fingerprint(s.circuit) ^ (qs::fingerprint(workload_noise()) << 1);
  const std::size_t dim = s.circuit.space().dimension();
  std::vector<double> p(dim);
  {
    std::ifstream is(path, std::ios::binary);
    std::uint64_t stored = 0;
    if (is && is.read(reinterpret_cast<char*>(&stored), sizeof stored) &&
        stored == tag &&
        is.read(reinterpret_cast<char*>(p.data()),
                static_cast<std::streamsize>(dim * sizeof(double))))
      return p;
  }
  const qs::DensityMatrixBackend exact(workload_noise());
  p = exact.execute(ExecutionRequest(s.circuit)).probabilities;
  if (p.size() != dim)
    throw std::runtime_error("density-matrix reference has wrong size");
  if (!path.empty()) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary);
      os.write(reinterpret_cast<const char*>(&tag), sizeof tag);
      os.write(reinterpret_cast<const char*>(p.data()),
               static_cast<std::streamsize>(dim * sizeof(double)));
      if (!os) throw std::runtime_error("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw std::runtime_error("cannot rename " + tmp);
  }
  return p;
}

ExecutionRequest request(const State& s, std::uint64_t seed, std::size_t i) {
  ExecutionRequest r(s.circuit);
  r.with_shots(kShots).with_seed(qs::split_seed(seed, i));
  return r;
}

}  // namespace

/// Precomputes the density-matrix reference into options.reference.
void make_noisy_reference(const Options& options) {
  const State state;
  reference_populations(state, options.reference);
}

Report run_noisy_trajectories(const Options& options) {
  Report report;
  pin_to_cpus(2);  // see the comment at the top
  double setup_s = 0.0;
  std::unique_ptr<State> state = repeated_setup<State>(
      [&] {
        auto s = std::make_unique<State>();
        for (std::size_t i = 0; i < kWarmupRequests; ++i)
          s->session.submit(request(*s, qs::split_seed(options.seed, 1), i));
        return s;
      },
      options, &setup_s);

  // Trace runs alternate untraced and traced requests.
  std::unique_ptr<qs::obs::Tracer> tracer;
  if (options.trace) {
    qs::obs::TracerOptions tracer_options;
    tracer_options.shards = 4;
    tracer_options.capacity_per_shard = std::size_t{1} << 14;
    tracer = std::make_unique<qs::obs::Tracer>(tracer_options);
  }
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  const std::size_t dim = state->circuit.space().dimension();
  std::vector<double> pooled(dim, 0.0);
  std::vector<double> plain_ms, traced_ms;
  qs::kernels::DispatchCounts dispatch;
  Usage usage;
  std::size_t bad = 0;
  std::uint64_t dropped = 0;
  PhaseBudget budget;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool with_tracer = options.trace && i % 2 == 1;
    ExecutionRequest r = request(*state, options.seed, i);
    if (with_tracer) r.with_trace(tracer.get(), i + 1, "noisy");
    const Usage u0 = Usage::now();
    const Clock::time_point start = Clock::now();
    ExecutionResult result;
    {
      SpanScope call(log, with_tracer ? "exec.submit.traced" : "exec.submit");
      result = state->session.submit(std::move(r));
    }
    (with_tracer ? traced_ms : plain_ms).push_back(1e3 * seconds_since(start));
    if (!with_tracer) usage.add(Usage::now().since(u0));
    if (result.total_counts() != kShots || result.counts.size() != dim) {
      ++bad;
    } else {
      for (std::size_t k = 0; k < dim; ++k)
        pooled[k] += static_cast<double>(result.counts[k]);
    }
    dispatch += result.kernel_dispatch;
    if (options.rss_probe ? i + 1 >= kProbeRequests
                          : seconds_since(t0) >= options.seconds &&
                                (!options.trace || !traced_ms.empty()))
      break;
  }
  if (options.trace) {
    dropped = tracer->dropped();
    budget.add(tracer->spans());
  }

  const std::size_t requests = plain_ms.size() + traced_ms.size();
  report.attempted = requests;
  if (bad > 0)
    report.fail_check(std::to_string(bad) + " requests without " +
                          std::to_string(kShots) + " counted shots",
                      bad);
  // Pooled histogram vs exact populations. For n independent shots over
  // K outcomes, E[TV] <= sqrt(K/n)/2 (Cauchy-Schwarz) and TV concentrates
  // within sqrt(ln(1/delta)/(2n)) of its mean (McDiarmid): a correct
  // sampler exceeds the bound with probability below delta.
  const std::vector<double> exact =
      reference_populations(*state, options.reference);
  const double n = static_cast<double>((requests - bad) * kShots);
  double tv = 0.0;
  for (std::size_t k = 0; k < dim; ++k)
    tv += 0.5 * std::fabs(pooled[k] / n - exact[k]);
  const double bound = 0.5 * std::sqrt(static_cast<double>(dim) / n) +
                       std::sqrt(std::log(1.0 / kFalseAlarm) / (2.0 * n));
  report.note("noisy-trajectories: " + std::to_string(requests) +
              " requests, " + std::to_string(static_cast<long long>(n)) +
              " shots; TV(pooled, density matrix) = " + std::to_string(tv) +
              ", bound " + std::to_string(bound));
  if (!(tv <= bound))
    report.fail_check("pooled histogram outside the total-variation bound",
                      requests - bad);

  if (options.rss_probe) {
    report.add("peak_rss_mb", Usage::now().max_rss_mib, "MiB");
    return report;
  }
  const double jobs = static_cast<double>(plain_ms.size());
  double plain_s = 0.0;
  for (double ms : plain_ms) plain_s += 1e-3 * ms;
  if (!options.trace) {
    add_end_to_end(report, setup_s, jobs / plain_s, usage, jobs, plain_ms,
                   "one ExecutionSession::submit round trip");
    return report;
  }
  add_proc_metrics(report, usage, jobs);
  report.add("exec.submit_call_us",
             mean(spans.durations_us("exec.submit")), "us");
  const double traced = static_cast<double>(traced_ms.size());
  report.add("exec.lower_self_us",
             1e6 * budget.self_s(qs::obs::Phase::kLower) / traced, "us");
  report.add("exec.execute_self_us",
             1e6 * budget.self_s(qs::obs::Phase::kExecute) / traced, "us");
  const double all = static_cast<double>(requests);
  report.add("qudit.dispatch_specialized_per_job",
             static_cast<double>(dispatch.specialized) / all, "count");
  report.add("qudit.dispatch_generic_per_job",
             static_cast<double>(dispatch.generic) / all, "count");
  report.add("qudit.dispatch_scalar_per_job",
             static_cast<double>(dispatch.scalar) / all, "count");
  report.add("qudit.dispatch_batched_per_job",
             static_cast<double>(dispatch.batched) / all, "count");
  double traced_s = 0.0;
  for (double ms : traced_ms) traced_s += 1e-3 * ms;
  report.add("obs.tracing_overhead_pct",
             100.0 * ((jobs / plain_s) / (traced / traced_s) - 1.0), "%");
  report.add("obs.trace_dropped_spans", static_cast<double>(dropped),
             "count");
  if (dropped > 0)
    report.fail_check("tracer dropped " + std::to_string(dropped) + " spans",
                      0);
  if (!options.spans_out.empty()) spans.write_json(options.spans_out);
  return report;
}

}  // namespace perfbench
