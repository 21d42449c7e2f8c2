// Pass-pipeline transpiler: logical circuit -> cached TranspiledCircuit.
//
// The paper's central engineering challenge is lowering application
// circuits (QAOA, QRC, SQED) onto the SRF cavity-chain processor:
// noise-aware placement, swap-network routing, and idle-decoherence-aware
// scheduling (paper SS II). This header turns that lowering into a
// configurable pass pipeline, mirroring the compile->execute split of the
// exec layer:
//
//   Circuit + Processor + TranspileOptions
//     --PassManager([Pass...])-->  TranspiledCircuit (immutable artifact)
//
// Each Pass reads and mutates a TranspileContext (working circuit,
// logical->mode permutation, diagnostics). The artifact carries the
// physical circuit, both end permutations, the schedule + fidelity
// forecast, and per-pass stats; it is deterministic given
// (circuit fingerprint, processor, options, seed) and therefore cacheable
// (see compiler/transpile_cache.h) and shareable across sessions and the
// serve layer's workers.
#ifndef QS_COMPILER_PIPELINE_H
#define QS_COMPILER_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/mapping.h"
#include "compiler/routing.h"
#include "compiler/scheduler.h"
#include "hardware/processor.h"

namespace qs {

/// Whether gates pack toward the start (ASAP) or toward their latest
/// dependency-feasible slot (ALAP) of the fixed-makespan schedule.
enum class ScheduleDirection { kAsap, kAlap };

/// Pipeline knobs. Transpilation is a pure function of
/// (circuit, processor, TranspileOptions): the mapping anneal draws from
/// `seed` (fixed default), never from caller-supplied RNG state, so two
/// identical requests produce bitwise-identical artifacts.
struct TranspileOptions {
  MappingOptions mapping;
  bool use_noise_aware_mapping = true;  ///< false = identity placement
  /// Commutation-aware inverse-pair cancellation plus clustering of
  /// commuting gates onto identical site sets (cuts routing churn and
  /// feeds the plan compiler's fusion).
  bool commute_gates = true;
  /// Score each routing swap against upcoming gate demand instead of
  /// greedily walking the second operand (see LookaheadOptions).
  bool lookahead_routing = true;
  LookaheadOptions lookahead;
  ScheduleDirection schedule = ScheduleDirection::kAsap;
  /// Seed of the stochastic mapping anneal. Part of the cache key.
  std::uint64_t seed = 0x7a11575eedc0de01ull;
};

/// Diagnostics of one executed pass.
struct PassStats {
  std::string pass;
  double seconds = 0.0;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  int swaps_added = 0;  ///< routing swaps this pass inserted
};

/// Immutable transpile artifact. Only ever handed out as
/// shared_ptr<const TranspiledCircuit>; safe to share across threads,
/// sessions, and the serve layer.
struct TranspiledCircuit {
  Circuit physical;  ///< one site per device mode
  std::vector<int> initial_logical_to_mode;
  std::vector<int> final_logical_to_mode;
  MappingResult mapping;
  ScheduleResult schedule;  ///< start times + fidelity forecast
  int swaps_inserted = 0;
  std::size_t logical_ops = 0;  ///< operations in the source circuit
  TranspileOptions options;
  std::vector<PassStats> pass_stats;

  /// One-line report: physical ops, swaps, makespan, fidelity forecast.
  std::string summary() const;
};

/// Mutable state threaded through the pass list. `working` starts as a
/// copy of the logical circuit; a routing pass replaces it with the
/// physical-register circuit and flips `routed`.
struct TranspileContext {
  TranspileContext(const Circuit& logical_circuit,
                   const Processor& processor, TranspileOptions opts)
      : proc(processor), options(opts), working(logical_circuit) {}

  const Processor& proc;
  TranspileOptions options;
  Circuit working;
  bool mapped = false;
  bool routed = false;
  bool scheduled = false;
  MappingResult mapping;
  std::vector<int> initial_logical_to_mode;
  std::vector<int> final_logical_to_mode;
  int swaps_inserted = 0;
  ScheduleResult schedule;
};

/// One pipeline stage. Implementations must be deterministic and
/// stateless with respect to run() (a PassManager may be shared).
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(TranspileContext& ctx) const = 0;
};

/// Ordered pass list bound to one TranspileOptions. The options are
/// fixed at construction -- the single source of truth for both the
/// passes' knobs and the artifact's recorded options, so a pass list
/// built for one configuration can never run under another. run()
/// validates the contract every pipeline must satisfy: by the end the
/// circuit is routed onto the device and scheduled, so the artifact is
/// always complete.
class PassManager {
 public:
  explicit PassManager(TranspileOptions options = {})
      : options_(options) {}

  PassManager& add(std::unique_ptr<Pass> pass);

  const TranspileOptions& options() const { return options_; }
  std::size_t size() const { return passes_.size(); }

  /// Runs every pass over a fresh context and freezes the artifact.
  std::shared_ptr<const TranspiledCircuit> run(const Circuit& logical,
                                               const Processor& proc) const;

 private:
  TranspileOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The standard pipeline for `options`:
///   [CommutationPass?] -> MappingPass ->
///   (LookaheadRoutingPass | GreedyRoutingPass) -> SchedulePass.
PassManager default_pipeline(const TranspileOptions& options = {});

/// Convenience: default_pipeline(options).run(logical, proc).
std::shared_ptr<const TranspiledCircuit> transpile(
    const Circuit& logical, const Processor& proc,
    const TranspileOptions& options = {});

/// Digest of every determinism-relevant option field (cache key part).
std::uint64_t fingerprint(const TranspileOptions& options);

/// Digest of the device: config, per-mode coherence/dims, transmons.
std::uint64_t fingerprint(const Processor& proc);

}  // namespace qs

#endif  // QS_COMPILER_PIPELINE_H
