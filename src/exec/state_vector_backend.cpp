#include "exec/state_vector_backend.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "exec/plan.h"

namespace qs {

void StateVectorBackend::apply(const Circuit& circuit, StateVector& psi) {
  require(psi.space() == circuit.space(),
          "StateVectorBackend::apply: space mismatch");
  for (const Operation& op : circuit.operations()) {
    if (op.diagonal)
      psi.apply_diagonal(op.diag, op.sites);
    else
      psi.apply(op.matrix, op.sites);
  }
}

Matrix circuit_unitary(const Circuit& circuit, std::size_t max_dim) {
  const std::size_t n = circuit.space().dimension();
  require(n <= max_dim,
          "circuit_unitary: space too large for dense construction");
  // Column j of the unitary is the circuit applied to basis state |j>.
  Matrix u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<cplx> col(n, cplx{0.0, 0.0});
    col[j] = 1.0;
    StateVector psi(circuit.space(), std::move(col));
    StateVectorBackend::apply(circuit, psi);
    for (std::size_t i = 0; i < n; ++i) u(i, j) = psi.amplitude(i);
  }
  return u;
}

void run_pure_state(const ExecutionRequest& request,
                    const CompiledCircuit& plan, std::uint64_t sampler_seed,
                    ExecutionResult& result) {
  StateVector psi = request.initial_digits.empty()
                        ? StateVector(plan.space())
                        : StateVector(plan.space(), request.initial_digits);
  kernels::Scratch scratch;
  scratch.reserve_block(plan.max_block());
  plan.run_pure(psi, scratch);
  result.kernel_dispatch = scratch.dispatch;

  result.trajectories = 1;
  result.probabilities.reserve(psi.dimension());
  for (const cplx& a : psi.amplitudes())
    result.probabilities.push_back(std::norm(a));
  if (request.shots > 0) {
    Rng rng(sampler_seed);
    result.counts = psi.sample_counts(request.shots, rng);
    result.shots = request.shots;
  }
}

void StateVectorBackend::run(const ExecutionRequest& request,
                             const CompiledCircuit& plan,
                             ExecutionResult& result) const {
  run_pure_state(request, plan, result.seed, result);
}

}  // namespace qs
