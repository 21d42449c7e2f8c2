#include "exec/session.h"

#include "common/rng.h"
#include "exec/pool.h"

namespace qs {

ExecutionSession::ExecutionSession(const Backend& backend,
                                   SessionOptions options)
    : backend_(backend),
      options_(options),
      plan_cache_(kPlanCacheCapacity),
      transpile_cache_(kTranspileCacheCapacity) {
  if (options_.threads == 0) options_.threads = default_thread_count();
}

void ExecutionSession::assign_seed(ExecutionRequest& request) {
  if (request.seed == kAutoSeed)
    request.seed = split_seed(options_.seed, next_stream_++);
}

ExecutionResult ExecutionSession::execute(const ExecutionRequest& request) {
  return backend_.execute(
      request, resolve_artifacts(request, backend_.noise_model(),
                                 &transpile_cache_, &plan_cache_));
}

ExecutionResult ExecutionSession::submit(ExecutionRequest request) {
  assign_seed(request);
  return execute(request);
}

std::vector<ExecutionResult> ExecutionSession::submit_batch(
    std::vector<ExecutionRequest> requests) {
  // Seeds are fixed up front, in submission order (they are the only
  // order-dependent state). Artifact resolution rides inside the
  // parallel region: the caches are thread-safe with in-flight
  // de-duplication, so same-key requests still compile once while
  // distinct keys -- e.g. a batch of different hardware-targeted
  // circuits, each paying the mapping anneal -- resolve concurrently.
  // Artifacts are pure functions of their request, so this does not
  // affect the bitwise-reproducibility contract.
  for (ExecutionRequest& request : requests) assign_seed(request);

  std::vector<ExecutionResult> results(requests.size());
  parallel_for(requests.size(), options_.threads,
               [&](std::size_t i) { results[i] = execute(requests[i]); });
  return results;
}

}  // namespace qs
