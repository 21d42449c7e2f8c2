// Batched, seeded circuit execution over a Backend.
//
// An ExecutionSession owns the concerns that sit above a single request:
// fanning a batch out over worker threads, deriving a deterministic RNG
// stream per request (seed-splitting, so results are bitwise reproducible
// for any thread count), aggregating telemetry, and -- when a request
// carries a calibration snapshot (with_readout_mitigation) -- applying
// calibrated per-site confusion-matrix readout mitigation to the sampled
// histogram. The backend is an injection point: the same session code
// drives exact simulation and noisy hardware forecasts.
#ifndef QS_EXEC_SESSION_H
#define QS_EXEC_SESSION_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/transpile_cache.h"
#include "exec/backend.h"
#include "exec/plan.h"

namespace qs {

/// Session-level knobs.
struct SessionOptions {
  /// Worker threads for submit_batch. 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Root seed. Requests carrying kAutoSeed get stream seeds derived from
  /// it by submission order (split_seed(seed, k) for the k-th auto-seeded
  /// request of the session's lifetime).
  std::uint64_t seed = 0x51e55edbadc0ffeeull;
  /// When set, the session resolves plans through this externally owned
  /// cache instead of a private one (ExecutionSession::kPlanCacheCapacity
  /// entries), so several sessions (e.g. the serve layer's worker pool)
  /// share compiled plans. PlanCache is thread-safe, so the sessions may
  /// live on different threads.
  std::shared_ptr<PlanCache> shared_plan_cache;
  /// Externally owned transpile cache shared across sessions (serve's
  /// workers); same contract as shared_plan_cache. The private one holds
  /// ExecutionSession::kTranspileCacheCapacity artifacts.
  std::shared_ptr<TranspileCache> shared_transpile_cache;
};

/// Submits requests to a Backend, in batches or one at a time. Not
/// thread-safe itself (one session per driver thread); the parallelism it
/// provides is internal.
class ExecutionSession {
 public:
  /// Entries of the session's own caches (when SessionOptions shares
  /// none): compiled plans keyed by (circuit, noise, options)
  /// fingerprints, and transpile artifacts keyed by (circuit, processor,
  /// options) fingerprints.
  static constexpr std::size_t kPlanCacheCapacity = 32;
  static constexpr std::size_t kTranspileCacheCapacity = 16;

  explicit ExecutionSession(const Backend& backend,
                            SessionOptions options = {});

  const Backend& backend() const { return backend_; }
  const SessionOptions& options() const { return options_; }

  /// Executes one request on the calling thread.
  ExecutionResult submit(ExecutionRequest request);

  /// Executes every request, fanning out over the session's worker
  /// threads. Results are returned in request order, and each request's
  /// RNG stream depends only on its seed (explicit, or derived from the
  /// session seed by submission order) -- never on scheduling -- so a
  /// batch is bitwise identical run serially or on N threads.
  std::vector<ExecutionResult> submit_batch(
      std::vector<ExecutionRequest> requests);

  /// Attaches the cached transpile artifact (hardware-targeted requests)
  /// and the cached compiled plan to the request; a request that already
  /// carries a plan (and, when hardware-targeted, its artifact) is left
  /// as is. submit and submit_batch call it per request; the serve layer
  /// calls it once per batch of same-plan-key jobs. Thread-safe.
  void attach_plan(ExecutionRequest& request) const;

  // --- telemetry ----------------------------------------------------------

  /// Requests executed over the session's lifetime.
  std::size_t requests_executed() const { return requests_executed_; }

  /// Sum of per-request backend wall time (exceeds elapsed wall time when
  /// batches run in parallel).
  double total_backend_seconds() const { return total_backend_seconds_; }

  /// Kernel invocations by SIMD dispatch tier, summed over every result
  /// the session produced (see ExecutionResult::kernel_dispatch).
  const kernels::DispatchCounts& kernel_dispatch() const {
    return kernel_dispatch_;
  }

  /// The plan cache in use -- the session's own, or the shared one from
  /// SessionOptions::shared_plan_cache (telemetry: hits/misses/size).
  /// Batch submission resolves plans inside the worker fan-out (the
  /// cache's in-flight slots keep each key compiled exactly once), so
  /// repeated circuits -- e.g. the same ansatz re-run across a parameter
  /// sweep's shot batches -- compile once and execute from the cached
  /// plan, while distinct circuits compile concurrently.
  const PlanCache& plan_cache() const { return *plan_cache_; }

  /// The transpile cache in use (telemetry: hits/misses/size). A repeated
  /// hardware-targeted request transpiles exactly once; later submissions
  /// hit this cache and reuse the artifact (and its compiled plan).
  const TranspileCache& transpile_cache() const { return *transpile_cache_; }

 private:
  /// Replaces kAutoSeed with the next derived stream seed.
  void assign_seed(ExecutionRequest& request);

  const Backend& backend_;
  SessionOptions options_;
  /// The shared caches from options_, or the session's own.
  const std::shared_ptr<PlanCache> plan_cache_;
  const std::shared_ptr<TranspileCache> transpile_cache_;
  std::uint64_t next_stream_ = 0;
  std::size_t requests_executed_ = 0;
  double total_backend_seconds_ = 0.0;
  kernels::DispatchCounts kernel_dispatch_;
};

}  // namespace qs

#endif  // QS_EXEC_SESSION_H
