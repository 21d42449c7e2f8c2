// Parametric-compilation sweep microbenchmarks (google-benchmark): the
// bind fast path (transpile/lower once, bind per point) against the
// rebuild path (materialize a fresh circuit per point) on a QAOA angle
// sweep, logical and hardware-targeted, plus one hardware bind row under
// noise, whose bound plans carry channel lists.
//
// The CI perf-smoke job runs this binary with --benchmark_format=json and
// archives BENCH_param_sweep.json; items_per_second is sweep points/sec.
// Counters pin the artifact-reuse contract alongside the wall time:
// `lowerings` (plan-cache misses) and `transpiles` (transpile-cache
// misses) must stay 1 on the bind path no matter the point count, while
// the rebuild path pays one lowering (and transpile) per point.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/quditsim.h"

namespace {

using namespace qs;

constexpr double kGammaSpan = 4.0;
constexpr double kBetaSpan = 2.0;

ColoringQaoa sweep_instance() {
  Graph ring;
  ring.n = 4;
  ring.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  return {ring, 3};
}

/// A 4-mode qutrit device: small enough that the routed physical circuit
/// is state-vector simulable (3^4 amplitudes), so the sweep measures the
/// compile path rather than raw simulation volume.
Processor sweep_device() {
  ProcessorConfig config;
  config.num_cavities = 2;
  config.modes_per_cavity = 2;
  config.levels_per_mode = 3;
  return Processor(config);
}

/// The k-th point of an n-point p=1 angle grid (deterministic, spread
/// over both angles so consecutive points never repeat a binding).
std::vector<double> sweep_point(std::size_t k, std::size_t n) {
  const double t = static_cast<double>(k) / static_cast<double>(n);
  return {kGammaSpan * t, kBetaSpan * (1.0 - t)};
}

void report_reuse(benchmark::State& state, const ExecutionSession& session,
                  std::size_t points) {
  state.counters["sweep_points"] = static_cast<double>(points);
  state.counters["lowerings"] =
      static_cast<double>(session.plan_cache().misses());
  state.counters["plan_cache_hits"] =
      static_cast<double>(session.plan_cache().hits());
  state.counters["transpiles"] =
      static_cast<double>(session.transpile_cache().misses());
}

/// Two-site depolarizing plus per-gate loss, as in perfbench's serve-mix:
/// every routed gate carries noise channels.
NoiseModel sweep_noise() {
  NoiseParams p;
  p.depol_2q = 0.02;
  p.loss_per_gate = 0.01;
  return NoiseModel(p);
}

/// One sweep through an ExecutionSession on `backend`, `shots` per point.
/// Bind path: one symbolic circuit, per-point parameter vectors. Rebuild
/// path: one concrete circuit built per point (distinct fingerprints, so
/// every point transpiles and lowers afresh).
void run_sweep(benchmark::State& state, bool bind_path,
               const Processor* device, const Backend& backend,
               std::size_t shots = 0) {
  const std::size_t points = static_cast<std::size_t>(state.range(0));
  const ColoringQaoa qaoa = sweep_instance();
  const std::vector<int> offsets(4, 0);
  const std::vector<double> cost = qaoa.cost_diagonal(offsets);
  const Circuit symbolic = qaoa.parametric_circuit(1, offsets);

  SessionOptions options;
  options.threads = 1;  // measure the compile path, not the fan-out
  ExecutionSession session(backend, options);
  for (auto _ : state) {
    std::vector<ExecutionRequest> requests;
    requests.reserve(points);
    for (std::size_t k = 0; k < points; ++k) {
      const std::vector<double> angles = sweep_point(k, points);
      Circuit circuit = bind_path
                            ? symbolic
                            : qaoa.build_circuit({angles[0]}, {angles[1]},
                                                 offsets);
      ExecutionRequest request(std::move(circuit));
      if (bind_path) request.with_parameters(angles);
      request.with_observable("cost", cost).with_seed(17).with_shots(shots);
      if (device != nullptr) request.with_compilation(*device);
      requests.push_back(std::move(request));
    }
    std::vector<ExecutionResult> results =
        session.submit_batch(std::move(requests));
    benchmark::DoNotOptimize(results.back().expectations["cost"]);
  }
  // Lifetime counters of the session's caches: on the bind path they stay
  // at one lowering (and one transpile) across every iteration of every
  // sweep; the rebuild path pays per point.
  report_reuse(state, session, points);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points));
}

void BM_QaoaSweep_Bind(benchmark::State& state) {
  run_sweep(state, /*bind_path=*/true, nullptr, StateVectorBackend());
}
BENCHMARK(BM_QaoaSweep_Bind)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_QaoaSweep_Rebuild(benchmark::State& state) {
  run_sweep(state, /*bind_path=*/false, nullptr, StateVectorBackend());
}
BENCHMARK(BM_QaoaSweep_Rebuild)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_QaoaSweepHardware_Bind(benchmark::State& state) {
  const Processor device = sweep_device();
  run_sweep(state, /*bind_path=*/true, &device, StateVectorBackend());
}
BENCHMARK(BM_QaoaSweepHardware_Bind)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

/// serve-mix's QAOA job: 8 trajectories per point under sweep_noise().
void BM_QaoaSweepHardwareNoisy_Bind(benchmark::State& state) {
  const Processor device = sweep_device();
  run_sweep(state, /*bind_path=*/true, &device,
            TrajectoryBackend{sweep_noise()}, /*shots=*/8);
}
BENCHMARK(BM_QaoaSweepHardwareNoisy_Bind)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_QaoaSweepHardware_Rebuild(benchmark::State& state) {
  const Processor device = sweep_device();
  run_sweep(state, /*bind_path=*/false, &device, StateVectorBackend());
}
BENCHMARK(BM_QaoaSweepHardware_Rebuild)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
