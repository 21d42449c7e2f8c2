// Exact density-matrix execution backend (optionally noisy).
#ifndef QS_EXEC_DENSITY_MATRIX_BACKEND_H
#define QS_EXEC_DENSITY_MATRIX_BACKEND_H

#include "exec/backend.h"
#include "noise/noise_model.h"
#include "qudit/density_matrix.h"

namespace qs {

/// Exact mixed-state simulation: unitary conjugation per gate plus -- when
/// the backend carries a nontrivial NoiseModel -- the model's Kraus
/// channels after every gate. Cost grows with dim^2, so the full-space
/// dimension is validated against ExecutionRequest::max_dim before any
/// dense allocation.
class DensityMatrixBackend final : public Backend {
 public:
  explicit DensityMatrixBackend(NoiseModel noise = NoiseModel())
      : noise_(std::move(noise)) {}

  std::string name() const override { return "densitymatrix"; }
  const NoiseModel& noise_model() const override { return noise_; }

  /// Stateful primitive: applies every gate of `circuit` to `rho`
  /// (with `noise`'s channels after each gate) after validating that the
  /// space dimension stays within the dense-allocation cap. The
  /// gate-by-gate reference that compiled plans are pinned to
  /// (tests/test_plan.cpp), and the stepper of SQED's quench series.
  static void apply(const Circuit& circuit, DensityMatrix& rho,
                    const NoiseModel& noise = NoiseModel(),
                    std::size_t max_dim = kDefaultMaxDenseDim);

 private:
  void run(const ExecutionRequest& request, const CompiledCircuit& plan,
           ExecutionResult& result) const override;

  NoiseModel noise_;
};

}  // namespace qs

#endif  // QS_EXEC_DENSITY_MATRIX_BACKEND_H
