// Trajectory-sampled noisy execution backend.
#ifndef QS_EXEC_TRAJECTORY_BACKEND_H
#define QS_EXEC_TRAJECTORY_BACKEND_H

#include <cstddef>

#include "exec/backend.h"
#include "noise/noise_model.h"
#include "qudit/state_vector.h"

namespace qs {

/// Quantum-trajectory (Kraus-unravelled state-vector) simulation of the
/// carried NoiseModel. When shots > 0 every shot is an independent
/// trajectory with one sampled readout, matching the hardware acquisition
/// model; when shots == 0, `trajectories` paths are averaged to estimate
/// populations and expectations.
///
/// Each trajectory draws from its own RNG stream, derived from the request
/// seed and the trajectory index via split_seed. Trajectories are run in
/// fixed-size blocks whose partial results are reduced in block order, so
/// results are bitwise identical for any `threads` value.
class TrajectoryBackend final : public Backend {
 public:
  /// `threads` caps the worker threads used *within* one request
  /// (0 = hardware concurrency). The default of 1 keeps per-request work
  /// serial, which composes with ExecutionSession parallelizing across
  /// requests; raise it when submitting single large requests.
  explicit TrajectoryBackend(NoiseModel noise, std::size_t threads = 1)
      : noise_(std::move(noise)), threads_(threads) {}

  std::string name() const override { return "trajectory"; }
  const NoiseModel& noise_model() const override { return noise_; }

  /// Stateful primitive: one trajectory -- gates applied exactly, each of
  /// `noise`'s channels sampled to a single Kraus branch. The
  /// gate-by-gate reference that compiled plans are pinned to, RNG order
  /// included (tests/test_plan.cpp).
  static void apply(const Circuit& circuit, StateVector& psi,
                    const NoiseModel& noise, Rng& rng);

 private:
  void run(const ExecutionRequest& request, const CompiledCircuit& plan,
           ExecutionResult& result) const override;

  NoiseModel noise_;
  std::size_t threads_;
};

}  // namespace qs

#endif  // QS_EXEC_TRAJECTORY_BACKEND_H
