// Typed requests and results for the qs::Backend execution API.
//
// One ExecutionRequest bundles everything a backend needs to run a circuit
// reproducibly: the circuit itself, a shot budget, a deterministic seed,
// named diagonal observables, an optional initial basis state, and an
// optional hardware target (Processor + TranspileOptions) for transpiled
// execution. Backends answer with an ExecutionResult carrying a counts
// histogram, final-state populations, per-observable expectation values,
// and timing metadata.
#ifndef QS_EXEC_REQUEST_H
#define QS_EXEC_REQUEST_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/pipeline.h"
#include "exec/plan.h"
#include "hardware/processor.h"
#include "obs/trace.h"

namespace qs {

struct CalibrationSnapshot;  // calib/snapshot.h

/// Sentinel seed: "derive one for me". ExecutionSession replaces it with a
/// per-request stream seed (split_seed of the session seed and the request
/// index); backends called directly replace it with their default seed.
inline constexpr std::uint64_t kAutoSeed = ~std::uint64_t{0};

/// Default cap on the full-space dimension of dense (dim^2) allocations:
/// density-matrix execution and unitary construction validate against it
/// so an oversized register fails fast instead of exhausting memory.
inline constexpr std::size_t kDefaultMaxDenseDim = 4096;

/// A named observable that is diagonal in the computational basis, given
/// by its full-space diagonal (length = space dimension).
struct Observable {
  std::string name;
  std::vector<double> diagonal;
};

/// One unit of work for a Backend. Construct with the circuit, then chain
/// `with_*` setters for everything else:
///
///   ExecutionRequest(circuit).with_shots(256).with_seed(7)
///       .with_observable("cost", diag);
struct ExecutionRequest {
  explicit ExecutionRequest(Circuit c) : circuit(std::move(c)) {}

  Circuit circuit;
  /// Measurement shots. 0 = no sampling: exact populations/expectations
  /// only (stochastic backends still run trajectories, see below).
  std::size_t shots = 0;
  /// Seed of this request's RNG stream. kAutoSeed = derive (see above).
  std::uint64_t seed = kAutoSeed;
  /// Diagonal observables to evaluate on the final state.
  std::vector<Observable> observables;
  /// Initial computational-basis state; empty = vacuum |0...0>.
  std::vector<int> initial_digits;
  /// Stochastic backends only: trajectories to average when shots == 0
  /// (when shots > 0 every shot is its own trajectory). 0 = 1 trajectory.
  std::size_t trajectories = 0;
  /// Binding for a parametric circuit: values for the circuit's parameter
  /// symbols, applied at plan-bind time (the structural transpile/plan
  /// artifacts are shared across bindings; only parameter-dependent gate
  /// payloads are re-materialized per request). When empty, the values
  /// the circuit was bound with (Circuit::bind) apply; a request whose
  /// circuit is parametric must carry a binding one way or the other.
  /// Supplying parameters for a non-parametric circuit is an error.
  std::vector<double> parameters;
  /// When set, the circuit is transpiled for this processor (pass
  /// pipeline: commutation -> mapping -> routing -> scheduling) and the
  /// routed physical circuit is executed.
  const Processor* processor = nullptr;
  TranspileOptions transpile_options;
  /// Guard for dense dim^2 allocations (DensityMatrixBackend).
  std::size_t max_dim = kDefaultMaxDenseDim;
  /// When set and the request samples shots, Backend::execute applies
  /// calibrated per-site confusion-matrix readout mitigation to the
  /// returned histogram (factorized product inversion -- never the dense
  /// d^n x d^n matrix) and fills ExecutionResult::mitigated +
  /// calib_epoch. Site i of the executed circuit uses the snapshot's
  /// confusion matrix for mode i: for hardware-targeted requests the
  /// physical circuit has one site per device mode, so the alignment is
  /// exact; for logical requests the snapshot must cover the register's
  /// leading sites with matching dimensions. Mitigation is deterministic
  /// (pure linear algebra), so results stay bitwise reproducible for a
  /// fixed (snapshot, seed) pair.
  std::shared_ptr<const CalibrationSnapshot> readout_calibration;
  /// Trace identity (tracer + job id + tenant) attributing the spans
  /// this request generates in the exec/compiler layers to its
  /// serve-layer job. Inactive by default: standalone exec users pay
  /// nothing (POD copy, no allocation, one null check per site).
  obs::TraceContext trace;

  ExecutionRequest& with_shots(std::size_t n) {
    shots = n;
    return *this;
  }
  ExecutionRequest& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExecutionRequest& with_observable(std::string name,
                                    std::vector<double> diagonal) {
    observables.push_back({std::move(name), std::move(diagonal)});
    return *this;
  }
  ExecutionRequest& with_initial(std::vector<int> digits) {
    initial_digits = std::move(digits);
    return *this;
  }
  ExecutionRequest& with_trajectories(std::size_t n) {
    trajectories = n;
    return *this;
  }
  ExecutionRequest& with_parameters(std::vector<double> values) {
    parameters = std::move(values);
    return *this;
  }
  ExecutionRequest& with_compilation(const Processor& proc,
                                     TranspileOptions options = {}) {
    processor = &proc;
    transpile_options = options;
    return *this;
  }
  ExecutionRequest& with_max_dim(std::size_t dim) {
    max_dim = dim;
    return *this;
  }
  ExecutionRequest& with_readout_mitigation(
      std::shared_ptr<const CalibrationSnapshot> snapshot) {
    readout_calibration = std::move(snapshot);
    return *this;
  }
  ExecutionRequest& with_trace(obs::Tracer* tracer, std::uint64_t job = 0,
                               const char* tenant = nullptr) {
    trace.tracer = tracer;
    trace.job = job;
    trace.set_tenant(tenant);
    return *this;
  }
};

/// The binding a request executes under: request.parameters when
/// supplied, else the values its circuit was bound with (empty for
/// non-parametric circuits). Validates the pairing -- a parametric
/// circuit must end up bound, a non-parametric circuit must not carry
/// explicit parameters, and the count must match the circuit's
/// parameter-vector size. Shared by Backend::execute and the serve
/// layer's submit so every execution path normalizes identically.
const std::vector<double>& effective_parameters(
    const ExecutionRequest& request);

/// Structured outcome of one executed request.
struct ExecutionResult {
  std::string backend;                ///< Backend::name() that produced it
  std::uint64_t seed = 0;             ///< seed actually used
  std::size_t shots = 0;              ///< shots actually sampled
  std::size_t trajectories = 0;       ///< stochastic paths run (1 if exact)
  std::vector<std::size_t> counts;    ///< histogram over basis indices
                                      ///< (empty when shots == 0)
  std::vector<double> probabilities;  ///< final populations: exact for the
                                      ///< deterministic backends; for the
                                      ///< trajectory backend, exact
                                      ///< per-trajectory averages when
                                      ///< shots == 0 or observables were
                                      ///< requested, else the counts/shots
                                      ///< frequency estimate
  std::map<std::string, double> expectations;  ///< one per observable
  double wall_seconds = 0.0;          ///< wall time of Backend::execute on
                                      ///< resolved artifacts (bind, run,
                                      ///< observables, mitigation)
  std::string compile_summary;        ///< nonempty for compiled execution
  /// Readout-mitigated histogram (same total as `counts`); empty unless
  /// the request carried a readout calibration and sampled shots.
  std::vector<double> mitigated;
  /// Epoch of the calibration snapshot whose confusion matrices produced
  /// `mitigated` (0 = no mitigation applied).
  std::uint64_t calib_epoch = 0;
  /// Kernel invocations by SIMD dispatch tier (specialized / generic /
  /// scalar, plus batched SoA applies) accumulated across the execution --
  /// for the trajectory backend, reduced over worker blocks in block
  /// order. Zero for backends that do not drive the kernel layer.
  kernels::DispatchCounts kernel_dispatch;

  /// Expectation of the named observable; throws if it was not requested.
  double expectation(const std::string& name) const;

  /// Sum of the counts histogram (== shots when sampling was requested).
  std::size_t total_counts() const;
};

}  // namespace qs

#endif  // QS_EXEC_REQUEST_H
