// Batched, seeded circuit execution over a Backend.
//
// An ExecutionSession owns the concerns that sit above a single request:
// fanning a batch out over worker threads, deriving a deterministic RNG
// stream per request (seed-splitting, so results are bitwise reproducible
// for any thread count), and caching the compiled artifacts repeated
// requests share. Each request then takes the one per-request path,
// resolve_artifacts + Backend::execute (exec/backend.h). The backend is
// an injection point: the same session code drives exact simulation and
// noisy hardware forecasts.
#ifndef QS_EXEC_SESSION_H
#define QS_EXEC_SESSION_H

#include <cstddef>
#include <cstdint>
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
};

/// Submits requests to a Backend, in batches or one at a time. Not
/// thread-safe itself (one session per driver thread); the parallelism it
/// provides is internal.
class ExecutionSession {
 public:
  /// Entries of the session's caches: compiled plans keyed by (circuit,
  /// noise, options) fingerprints, and transpile artifacts keyed by
  /// (circuit, processor, options) fingerprints.
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

  /// The session's plan cache (telemetry: hits/misses/size). Batch
  /// submission resolves plans inside the worker fan-out (the cache's
  /// in-flight slots keep each key compiled exactly once), so repeated
  /// circuits -- e.g. the same ansatz re-run across a parameter sweep's
  /// shot batches -- compile once and execute from the cached plan, while
  /// distinct circuits compile concurrently.
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// The session's transpile cache (telemetry: hits/misses/size). A
  /// repeated hardware-targeted request transpiles exactly once; later
  /// submissions hit this cache and reuse the artifact (and its compiled
  /// plan).
  const TranspileCache& transpile_cache() const { return transpile_cache_; }

 private:
  /// Replaces kAutoSeed with the next derived stream seed.
  void assign_seed(ExecutionRequest& request);

  /// resolve_artifacts through the session's caches, then
  /// Backend::execute. Thread-safe (the caches are).
  ExecutionResult execute(const ExecutionRequest& request);

  const Backend& backend_;
  SessionOptions options_;
  PlanCache plan_cache_;
  TranspileCache transpile_cache_;
  std::uint64_t next_stream_ = 0;
};

}  // namespace qs

#endif  // QS_EXEC_SESSION_H
