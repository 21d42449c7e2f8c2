// Quickstart: build a two-qutrit circuit and run it through the unified
// Backend/ExecutionSession API -- noiselessly, exactly under a
// hardware-style noise model, and as a batch of seeded trajectory
// forecasts.
//
// One level up from sessions sits the multi-tenant job service
// (src/serve/, docs/ARCHITECTURE.md "Serve layer"): many client threads
// submitting JobSpecs against one shared backend, with fair-share
// scheduling and plan-aware batching -- see examples/serve_daemon.cpp.
//
//   ./examples/example_quickstart
#include <cstdio>

#include "core/quditsim.h"

int main() {
  using namespace qs;

  // A register of two qutrits (d = 3 cavity qudits).
  Circuit circuit(QuditSpace::uniform(2, 3));
  circuit.add("F", fourier(3), {0});          // qutrit "Hadamard"
  circuit.add("CSUM", csum(3, 3), {0, 1});    // qudit CNOT generalization
  std::printf("%s\n", circuit.to_string().c_str());

  // Noiseless run on the state-vector backend: a maximally entangled
  // qutrit pair. Every backend answers the same ExecutionRequest shape.
  const StateVectorBackend ideal;
  const ExecutionResult pure =
      ideal.execute(ExecutionRequest(circuit).with_shots(1000).with_seed(7));
  std::printf("populations of |kk> (backend '%s'):\n", pure.backend.c_str());
  for (int k = 0; k < 3; ++k) {
    const std::size_t idx = circuit.space().index_of({k, k});
    std::printf("  |%d%d>  %.4f\n", k, k, pure.probabilities[idx]);
  }
  std::printf("1000 shots (noiseless):\n");
  for (std::size_t i = 0; i < pure.counts.size(); ++i)
    if (pure.counts[i] > 0) {
      const auto digits = circuit.space().digits(i);
      std::printf("  |%d%d> : %zu\n", digits[0], digits[1], pure.counts[i]);
    }

  // The same circuit with photon loss and depolarizing noise, exactly
  // (density-matrix backend). Observables ride along in the request.
  NoiseParams noise;
  noise.depol_2q = 0.03;
  noise.loss_per_gate = 0.02;
  std::vector<double> ghz_weight(circuit.space().dimension(), 0.0);
  for (int k = 0; k < 3; ++k) ghz_weight[circuit.space().index_of({k, k})] = 1.0;
  const DensityMatrixBackend exact{NoiseModel(noise)};
  const ExecutionResult noisy = exact.execute(
      ExecutionRequest(circuit).with_observable("ghz_weight", ghz_weight));
  std::printf("\nnoisy run (backend '%s'): GHZ-support weight %.4f\n",
              noisy.backend.c_str(), noisy.expectation("ghz_weight"));

  // Hardware-forecast flavor: a batch of seeded trajectory requests,
  // fanned out over a thread pool by the session. A fixed session seed
  // makes the whole batch reproducible regardless of thread count.
  const TrajectoryBackend forecast{NoiseModel(noise)};
  SessionOptions opts;
  opts.seed = 2026;
  ExecutionSession session(forecast, opts);
  std::vector<ExecutionRequest> batch;
  for (int i = 0; i < 4; ++i)
    batch.push_back(ExecutionRequest(circuit)
                        .with_shots(250)
                        .with_observable("ghz_weight", ghz_weight));
  const auto results = session.submit_batch(std::move(batch));
  std::printf("\ntrajectory batch (4 x 250 shots, seeded):\n");
  double backend_seconds = 0.0;
  for (const ExecutionResult& r : results) {
    std::printf("  seed %016llx : GHZ-support weight %.4f\n",
                static_cast<unsigned long long>(r.seed),
                r.expectation("ghz_weight"));
    backend_seconds += r.wall_seconds;
  }
  std::printf("batch totals: %zu requests, %.1f ms backend time\n",
              results.size(), 1e3 * backend_seconds);
  return 0;
}
