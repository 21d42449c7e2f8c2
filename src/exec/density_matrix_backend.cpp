#include "exec/density_matrix_backend.h"

#include <string>

#include "common/require.h"
#include "common/rng.h"
#include "exec/plan.h"
#include "linalg/matrix.h"
#include "qudit/state_vector.h"

namespace qs {

namespace {

void check_dense_dim(std::size_t dim, std::size_t max_dim) {
  require(dim <= max_dim,
          "DensityMatrixBackend: space dimension " + std::to_string(dim) +
              " exceeds the dense-allocation cap " + std::to_string(max_dim) +
              " (density-matrix evolution allocates dim^2 entries; raise "
              "ExecutionRequest::max_dim if this is intended)");
}

}  // namespace

void DensityMatrixBackend::apply(const Circuit& circuit, DensityMatrix& rho,
                                 const NoiseModel& noise,
                                 std::size_t max_dim) {
  require(rho.space() == circuit.space(),
          "DensityMatrixBackend::apply: space mismatch");
  check_dense_dim(circuit.space().dimension(), max_dim);
  const bool trivial = noise.is_trivial();
  for (const Operation& op : circuit.operations()) {
    if (op.diagonal)
      rho.apply_unitary(Matrix::diagonal(op.diag), op.sites);
    else
      rho.apply_unitary(op.matrix, op.sites);
    if (trivial) continue;
    for (const ChannelOp& ch : noise.channels_after(op, circuit.space()))
      rho.apply_channel(ch.kraus, ch.sites);
  }
}

void DensityMatrixBackend::run(const ExecutionRequest& request,
                               const CompiledCircuit& plan,
                               ExecutionResult& result) const {
  check_dense_dim(plan.space().dimension(), request.max_dim);
  DensityMatrix rho =
      request.initial_digits.empty()
          ? DensityMatrix(plan.space())
          : DensityMatrix(StateVector(plan.space(), request.initial_digits));
  kernels::Scratch scratch;
  scratch.reserve_block(plan.max_block());
  plan.run_density(rho, scratch);

  result.trajectories = 1;
  result.probabilities = rho.probabilities();
  if (request.shots > 0) {
    Rng rng(result.seed);
    result.counts = rho.sample_counts(request.shots, rng);
    result.shots = request.shots;
  }
}

}  // namespace qs
