// Exact pure-state execution backend.
#ifndef QS_EXEC_STATE_VECTOR_BACKEND_H
#define QS_EXEC_STATE_VECTOR_BACKEND_H

#include <cstddef>
#include <cstdint>

#include "exec/backend.h"
#include "linalg/matrix.h"
#include "qudit/state_vector.h"

namespace qs {

/// Noiseless state-vector simulation: the final state is exact, and shots
/// (when requested) are multinomial samples from it.
class StateVectorBackend final : public Backend {
 public:
  StateVectorBackend() = default;

  std::string name() const override { return "statevector"; }

  /// Stateful primitive: applies every gate of `circuit` to `psi` in
  /// order. The gate-by-gate reference that compiled plans are pinned to
  /// (tests/test_plan.cpp), and the engine of circuit_unitary.
  static void apply(const Circuit& circuit, StateVector& psi);

 private:
  void run(const ExecutionRequest& request, const CompiledCircuit& plan,
           ExecutionResult& result) const override;
};

/// The noiseless run both pure-state backends share. Shots are sampled with
/// `sampler_seed`: `result.seed` for StateVectorBackend,
/// `split_seed(result.seed, 0)` for a noiseless TrajectoryBackend.
void run_pure_state(const ExecutionRequest& request,
                    const CompiledCircuit& plan, std::uint64_t sampler_seed,
                    ExecutionResult& result);

/// Builds the full-space unitary of a circuit (for small spaces only;
/// dimension is validated against `max_dim` to catch accidents). A
/// dense-synthesis utility, not an execution entry point.
Matrix circuit_unitary(const Circuit& circuit,
                       std::size_t max_dim = kDefaultMaxDenseDim);

}  // namespace qs

#endif  // QS_EXEC_STATE_VECTOR_BACKEND_H
