// Abstract execution backend: the single entry point for running circuits.
//
// Every execution substrate -- exact state-vector, exact density-matrix,
// and trajectory-sampled noisy simulation -- implements the same
// interface, so application code is written once and the substrate is an
// injection point (swap a noiseless backend for a hardware forecast
// without touching the workload). Execution is deterministic for a fixed
// ExecutionRequest::seed; batching and parallelism live one layer up in
// ExecutionSession.
//
// A request runs in two steps: resolve_artifacts compiles it (through
// caches when given them), and Backend::execute(request, artifacts) runs
// it. The standalone execute(request), ExecutionSession and the serve
// layer take that one path and differ only in which caches they resolve
// through and how often.
#ifndef QS_EXEC_BACKEND_H
#define QS_EXEC_BACKEND_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/request.h"

namespace qs {

class NoiseModel;
class TranspileCache;

/// The compiled artifacts one request executes.
struct ExecutionArtifacts {
  /// Transpile artifact of (circuit, processor, transpile_options); set
  /// exactly when the request has a processor.
  std::shared_ptr<const TranspiledCircuit> transpiled;
  /// Plan of the circuit that runs -- the logical circuit, or the
  /// transpiled physical one -- lowered under the backend's noise model.
  /// Parametric plans may be unbound: execute binds them per request.
  std::shared_ptr<const CompiledCircuit> plan;
};

/// Transpiles (hardware-targeted requests) and lowers `request` under
/// `noise`, through `transpiles` and `plans` when given them (each lookup
/// is a kTranspile / kLower span with its cache outcome). Deterministic:
/// the artifacts are pure functions of the request, so cached and uncached
/// resolution execute identically. Thread-safe when the caches are.
ExecutionArtifacts resolve_artifacts(const ExecutionRequest& request,
                                     const NoiseModel& noise,
                                     TranspileCache* transpiles = nullptr,
                                     PlanCache* plans = nullptr);

/// Interface of an execution substrate. Implementations must be stateless
/// with respect to run() (safe to call concurrently from the session's
/// worker threads).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Short identifier ("statevector", "densitymatrix", "trajectory").
  virtual std::string name() const = 0;

  /// The noise model this backend executes under; plans are lowered
  /// against it. The base returns a trivial (noiseless) model.
  virtual const NoiseModel& noise_model() const;

  /// True when the backend models a nontrivial noise channel set.
  bool is_noisy() const;

  /// Executes one request on its own: resolve_artifacts without caches,
  /// then execute(request, artifacts). Deterministic given request.seed;
  /// thread-safe.
  ExecutionResult execute(const ExecutionRequest& request) const;

  /// Executes one request on pre-resolved artifacts: binds a parametric
  /// plan at the request's effective parameters (kBind), runs it,
  /// evaluates the observables, and applies readout mitigation when the
  /// request carries a calibration (kMitigate), all inside one kExecute
  /// span. Throws std::invalid_argument when the artifacts do not belong
  /// to the request: no plan, a plan over another register, a processor
  /// request without its transpile artifact, or a transpile artifact on a
  /// request without a processor. Thread-safe.
  ExecutionResult execute(const ExecutionRequest& request,
                          const ExecutionArtifacts& artifacts) const;

  // --- conveniences over execute() ---------------------------------------

  /// Final-state populations of the circuit run from the vacuum (exact for
  /// deterministic backends, trajectory-averaged for stochastic ones).
  std::vector<double> run_state(const Circuit& circuit,
                                std::uint64_t seed = kAutoSeed) const;

  /// Counts histogram over basis indices from `shots` measurements.
  std::vector<std::size_t> sample_counts(const Circuit& circuit,
                                         std::size_t shots,
                                         std::uint64_t seed) const;

  /// Expectation of a full-space diagonal observable on the final state.
  double expectation(const Circuit& circuit, const std::vector<double>& diag,
                     std::uint64_t seed = kAutoSeed) const;

 protected:
  /// Evolves `plan` (bound, over the executed register) from the
  /// request's initial state and reads it out: fills result.trajectories,
  /// .probabilities, .counts and .shots when sampling, and
  /// .kernel_dispatch. result.seed already holds the seed to draw from.
  virtual void run(const ExecutionRequest& request,
                   const CompiledCircuit& plan,
                   ExecutionResult& result) const = 0;
};

}  // namespace qs

#endif  // QS_EXEC_BACKEND_H
