// Compiled execution plans: lower a Circuit + NoiseModel once, run many.
//
// The paper's application studies (QAOA coloring sweeps, qudit reservoir
// batches, SQED quench series) execute the same circuit thousands of times
// under noise. The gate-by-gate path re-derives everything per call: block
// offset tables per gate, scratch allocations per matvec, and Kraus channel
// construction per operation per trajectory. A CompiledCircuit hoists all
// of that out of the hot loop:
//
//   Circuit + NoiseModel --compile once--> [CompiledStep...]
//     each step:  precomputed BlockPlan            (no index rebuilds)
//                 pre-resolved post-gate channels  (no Kraus re-construction)
//                 fused adjacent same-site gates   (fewer sweeps, optional)
//     run many:   shared immutable plan across threads,
//                 per-thread kernels::Scratch arenas (no allocations)
//
// Determinism contract: with fusion disabled (PlanOptions::none()), every
// run_* method performs bitwise the same arithmetic, in the same order,
// and consumes the RNG stream identically to the gate-by-gate seed path.
// Fusion reassociates floating-point products, so fused plans agree to
// ~1e-12 rather than bitwise; fusion never crosses a noise channel, so the
// RNG consumption order is preserved either way.
#ifndef QS_EXEC_PLAN_H
#define QS_EXEC_PLAN_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/fingerprint.h"
#include "common/keyed_cache.h"
#include "common/rng.h"
#include "noise/noise_model.h"
#include "qudit/block_plan.h"
#include "qudit/density_matrix.h"
#include "qudit/kernels.h"
#include "qudit/state_vector.h"

namespace qs {

/// Lowering knobs. The defaults fuse; use none() when bitwise agreement
/// with the gate-by-gate path is required (e.g. equivalence tests).
struct PlanOptions {
  /// Fuse adjacent gates of one kind on the identical site list when no
  /// noise channel intervenes: a dense gate's matrix left-multiplies the
  /// earlier dense step's, and consecutive diagonals merge.
  bool fuse = true;

  /// Lowering with fusion disabled: the compiled plan is a 1:1 image of
  /// the circuit and runs bitwise like the seed path.
  static PlanOptions none() { return {false}; }

  /// Encodes the options into cache-key bits.
  std::uint8_t bits() const { return fuse ? 1 : 0; }
};

/// One pre-resolved noise channel application: Kraus operators analyzed
/// into their kernel class (standard channels are all monomial, and the
/// no-error branch of depolarizing and dephasing is c I) + shared plan.
/// The sets come from NoiseModel::channels_after, so they are trace
/// preserving, as the Kraus samplers require.
struct CompiledChannel {
  std::vector<kernels::OpKernel> kraus;
  std::vector<int> sites;
  const detail::BlockPlan* plan = nullptr;  ///< owned by the CompiledCircuit
};

/// One lowered execution step: a gate (possibly standing for several fused
/// source operations) plus the noise channels that follow it.
struct CompiledStep {
  enum class Kind { kDense, kDiagonal };
  Kind kind = Kind::kDense;
  kernels::OpKernel op;    ///< analyzed operator (kind == kDense)
  std::vector<cplx> diag;  ///< diagonal entries (kind == kDiagonal)
  std::vector<int> sites;
  const detail::BlockPlan* plan = nullptr;  ///< owned by the CompiledCircuit
  std::vector<CompiledChannel> channels;    ///< post-gate noise, in order
  std::size_t source_ops = 1;  ///< circuit operations this step stands for
};

/// One source operation of a parametric step, in application order: a
/// constant factor (snapshot of non-parametric payload, possibly an
/// already-fused prefix product) or a parametric one re-evaluated at bind
/// time from its generator.
struct StepFactor {
  bool parametric = false;
  // Parametric factors:
  ParamExpr expr;
  std::shared_ptr<const ParamGenerator> generator;
  // Constant factors (payload snapshot at lowering time):
  Matrix dense;
  std::vector<cplx> diag;
};

/// Rebind recipe of one parametric step: re-evaluate the parametric
/// factors and refold the chain exactly as lowering folded it, so a bound
/// plan is bitwise the plan of the fully-bound circuit.
struct StepBinding {
  std::size_t step = 0;  ///< index into steps()
  std::vector<StepFactor> factors;
};

/// Immutable lowered form of (Circuit, NoiseModel) under PlanOptions.
/// Thread-compatible by construction: run_* methods only read the plan and
/// write through the caller's state + scratch, so one instance may be
/// shared across any number of worker threads.
///
/// Parametric circuits lower to parametric plans: structure, BlockPlans,
/// fused-step layout, and pre-resolved noise channels are computed once
/// against the symbolic circuit, and bind(params) re-materializes only the
/// steps that depend on parameters (diagonal steps refold their diagonal
/// product closed-form; dense steps re-evaluate the parametric factors of
/// their fusion chain and re-analyze). Noise channels never depend on
/// payload values (only sites/duration/multiplicity), so a bound plan
/// consumes the RNG stream identically to a from-scratch lowering of the
/// bound circuit -- bound execution is bitwise the from-scratch result.
class CompiledCircuit {
 public:
  CompiledCircuit(const Circuit& circuit, const NoiseModel& noise = {},
                  PlanOptions options = {});

  CompiledCircuit(const CompiledCircuit&) = delete;
  CompiledCircuit& operator=(const CompiledCircuit&) = delete;

  const QuditSpace& space() const { return space_; }
  const std::vector<CompiledStep>& steps() const { return steps_; }

  // --- parameters ---------------------------------------------------------

  /// True when any step re-materializes under bind().
  bool parametric() const { return bindings_ != nullptr; }

  /// Parameter-vector size the source circuit expects.
  std::size_t num_parameters() const { return num_parameters_; }

  /// The parameter vector this plan was bound with (empty for the shared
  /// structural plan and for plans of circuits without parameters).
  const std::vector<double>& bound_parameters() const {
    return bound_parameters_;
  }

  /// A plan executing this structure at `params`: shares the BlockPlans,
  /// channel set, and every parameter-independent step with this plan;
  /// only parametric steps are re-materialized. O(steps) + the parametric
  /// payload evaluations -- no circuit walk, no re-fusion, no channel
  /// resolution. Requires parametric(); non-parametric plans are shared
  /// as-is by callers.
  std::shared_ptr<const CompiledCircuit> bind(
      const std::vector<double>& params) const;

  /// True when any step carries noise channels.
  bool noisy() const { return total_channels_ > 0; }

  /// Operations in the source circuit.
  std::size_t source_operations() const { return source_operations_; }

  /// Source operations eliminated by fusion/merging.
  std::size_t fused_operations() const {
    return source_operations_ - steps_.size();
  }

  /// Channel applications per execution (sum over steps).
  std::size_t total_channels() const { return total_channels_; }

  /// Largest operator block across steps and channels (scratch sizing).
  std::size_t max_block() const { return max_block_; }

  /// One-line lowering report, e.g. "12 steps from 18 ops (6 fused), 24
  /// channels".
  std::string summary() const;

  /// Applies the gate steps to `psi` (requires a noiseless plan).
  void run_pure(StateVector& psi, kernels::Scratch& scratch) const;

  /// One quantum trajectory: gates exactly, each channel sampled to a
  /// single Kraus branch by kernels::sample_channel with one rng.uniform()
  /// per channel. Consumes `rng` in the identical order to, and ends
  /// bitwise equal to, the gate-by-gate TrajectoryBackend::apply.
  void run_trajectory(StateVector& psi, Rng& rng,
                      kernels::Scratch& scratch) const;

  /// `active` quantum trajectories at once over a StateBatch: every plan
  /// step is applied across the whole batch before advancing (operator
  /// rows load once per batch), each lane consuming its own RNG stream
  /// rngs[k] in the identical order to run_trajectory. Lane k of the batch
  /// ends bitwise-identical to run_trajectory with rngs[k] from the same
  /// initial state, for every `active` in [1, StateBatch::kLanes].
  /// Channels go through kernels::batch_sample_channel: lanes on a c I
  /// branch (the usual depolarizing/dephasing outcome) cost nothing, and
  /// each other branch chosen applies in one pass over its lanes.
  void run_trajectory_batch(kernels::StateBatch& batch, Rng* rngs,
                            std::size_t active,
                            kernels::Scratch& scratch) const;

  /// Exact mixed-state execution: unitary conjugation per step plus every
  /// channel applied in full.
  void run_density(DensityMatrix& rho, kernels::Scratch& scratch) const;

 private:
  /// Shell for bind(): fields are filled by hand from the source plan.
  CompiledCircuit() = default;

  const detail::BlockPlan* pooled_plan(const std::vector<int>& sites);

  QuditSpace space_;
  std::vector<CompiledStep> steps_;
  /// Plans deduplicated by site list; node-based map keeps them at stable
  /// addresses for the steps' raw pointers, and the shared_ptr keeps them
  /// alive (and shared, not re-derived) across every bound copy.
  std::shared_ptr<std::map<std::vector<int>, detail::BlockPlan>> plan_pool_;
  /// Rebind recipes, shared across bound copies (value-independent by
  /// construction: constant factors snapshot only non-parametric payload).
  std::shared_ptr<const std::vector<StepBinding>> bindings_;
  std::size_t num_parameters_ = 0;
  std::vector<double> bound_parameters_;
  std::size_t source_operations_ = 0;
  std::size_t total_channels_ = 0;
  std::size_t max_block_ = 0;
};

/// Digest of the noise parameters (exact double bits). The circuit digest
/// lives with the Circuit type (circuit/circuit.h).
std::uint64_t fingerprint(const NoiseModel& noise);

/// LRU cache of compiled plans keyed by (structural circuit, noise,
/// options) fingerprints, built on the shared keyed-artifact protocol
/// (common/keyed_cache.h): thread-safe, compilation outside the lock,
/// in-flight de-duplication, so the cache may be shared across threads
/// (an ExecutionSession's fan-out, the serve layer's workers). The cached
/// plans themselves are immutable and freely shared across threads.
///
/// The circuit key is structural_fingerprint, so every binding of one
/// parametric circuit maps to a single cached plan; callers needing a
/// specific binding call plan->bind(params) on the shared artifact
/// (correct whichever binding populated the slot -- bind() re-derives
/// every parametric step from value-independent factors).
class PlanCache {
 public:
  /// `registry` (non-owning, nullable) surfaces the cache's counters
  /// in the caller's unified metrics under `exec.plan_cache.*`.
  explicit PlanCache(std::size_t capacity = 32,
                     obs::MetricsRegistry* registry = nullptr)
      : cache_(capacity, registry, "exec.plan_cache") {}

  /// Returns the cached plan for the key, compiling and inserting on
  /// miss. `cache_hit` (optional) reports whether this call was served
  /// from cache.
  std::shared_ptr<const CompiledCircuit> get_or_compile(
      const Circuit& circuit, const NoiseModel& noise, PlanOptions options,
      bool* cache_hit = nullptr);

  std::size_t size() const { return cache_.size(); }
  std::size_t capacity() const { return cache_.capacity(); }
  std::size_t hits() const { return cache_.hits(); }
  std::size_t misses() const { return cache_.misses(); }
  std::size_t evictions() const { return cache_.evictions(); }
  detail::CacheStats stats() const { return cache_.stats(); }

 private:
  struct Key {
    std::uint64_t circuit_fp;
    std::uint64_t noise_fp;
    std::uint8_t option_bits;
    bool operator==(const Key& o) const {
      return circuit_fp == o.circuit_fp && noise_fp == o.noise_fp &&
             option_bits == o.option_bits;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.circuit_fp;
      h = fnv::combine(k.noise_fp, h);
      h = fnv::combine(k.option_bits, h);
      return static_cast<std::size_t>(h);
    }
  };

  detail::KeyedArtifactCache<Key, KeyHash, CompiledCircuit> cache_;
};

}  // namespace qs

#endif  // QS_EXEC_PLAN_H
