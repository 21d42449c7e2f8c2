#include "exec/session.h"

#include <utility>

#include "calib/snapshot.h"
#include "common/require.h"
#include "common/rng.h"
#include "exec/pool.h"
#include "noise/mitigation.h"
#include "noise/noise_model.h"

namespace qs {

namespace {

/// Applies calibrated per-site confusion-matrix mitigation to a sampled
/// histogram (request.readout_calibration set and counts nonempty).
/// Site i of the executed circuit -- the transpiled physical circuit for
/// hardware-targeted requests (one site per device mode), the logical
/// circuit otherwise -- uses the snapshot's confusion matrix for mode i.
/// Pure linear algebra: bitwise reproducible for a fixed (snapshot,
/// seed) pair.
void apply_readout_mitigation(const ExecutionRequest& request,
                              ExecutionResult& result) {
  if (request.readout_calibration == nullptr || result.counts.empty())
    return;
  const CalibrationSnapshot& snap = *request.readout_calibration;
  const QuditSpace& space = request.processor != nullptr &&
                                    request.transpiled != nullptr
                                ? request.transpiled->physical.space()
                                : request.circuit.space();
  const std::size_t sites = space.num_sites();
  require(snap.confusion.size() >= sites,
          "ExecutionSession: calibration snapshot covers " +
              std::to_string(snap.confusion.size()) +
              " modes but the executed circuit has " +
              std::to_string(sites) + " sites");
  std::vector<std::vector<std::vector<double>>> site_matrices;
  site_matrices.reserve(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    require(snap.confusion[s].size() ==
                static_cast<std::size_t>(space.dim(s)),
            "ExecutionSession: calibrated confusion dimension (" +
                std::to_string(snap.confusion[s].size()) +
                ") does not match site " + std::to_string(s) +
                " dimension (" + std::to_string(space.dim(s)) + ")");
    site_matrices.push_back(snap.confusion[s]);
  }
  std::vector<double> observed(result.counts.begin(), result.counts.end());
  obs::SpanTimer span = request.trace.span(obs::Phase::kMitigate);
  span.set_epoch(snap.epoch);
  result.mitigated =
      mitigate_readout_product(site_matrices, space.dims(), observed);
  result.calib_epoch = snap.epoch;
}

}  // namespace

ExecutionSession::ExecutionSession(const Backend& backend,
                                   SessionOptions options)
    : backend_(backend),
      options_(std::move(options)),
      plan_cache_(options_.shared_plan_cache != nullptr
                      ? options_.shared_plan_cache
                      : std::make_shared<PlanCache>(kPlanCacheCapacity)),
      transpile_cache_(options_.shared_transpile_cache != nullptr
                           ? options_.shared_transpile_cache
                           : std::make_shared<TranspileCache>(
                                 kTranspileCacheCapacity)) {
  if (options_.threads == 0) options_.threads = default_thread_count();
}

void ExecutionSession::assign_seed(ExecutionRequest& request) {
  if (request.seed == kAutoSeed)
    request.seed = split_seed(options_.seed, next_stream_++);
}

void ExecutionSession::attach_plan(ExecutionRequest& request) const {
  static const NoiseModel kNoiseless;
  const NoiseModel* nm = backend_.noise_model();
  const NoiseModel& noise = nm != nullptr ? *nm : kNoiseless;

  if (request.processor != nullptr) {
    // Hardware-targeted: transpilation is deterministic given the
    // request triple, so the artifact -- and the plan lowered from its
    // physical circuit -- are resolved through the caches and shared.
    if (request.transpiled == nullptr) {
      // A caller plan without its artifact cannot have been lowered from
      // the routed circuit (backends would rightly distrust it, and once
      // the session attaches an artifact they could not): drop it before
      // resolving, so the artifact is always paired with its own plan.
      request.plan = nullptr;
      obs::SpanTimer span = request.trace.span(obs::Phase::kTranspile);
      bool hit = false;
      request.transpiled = transpile_cache_->get_or_transpile(
          request.circuit, *request.processor, request.transpile_options,
          &hit);
      span.set_cache_hit(hit);
    }
    if (request.plan == nullptr) {
      obs::SpanTimer span = request.trace.span(obs::Phase::kLower);
      bool hit = false;
      request.plan = plan_cache_->get_or_compile(
          request.transpiled->physical, noise, PlanOptions{}, &hit);
      span.set_cache_hit(hit);
    }
    return;
  }

  // Explicit plans are the caller's responsibility -- bypass the cache.
  if (request.plan != nullptr) return;
  obs::SpanTimer span = request.trace.span(obs::Phase::kLower);
  bool hit = false;
  request.plan = plan_cache_->get_or_compile(request.circuit, noise,
                                             PlanOptions{}, &hit);
  span.set_cache_hit(hit);
}

ExecutionResult ExecutionSession::submit(ExecutionRequest request) {
  assign_seed(request);
  // Installs the request's trace identity on this thread so layers with
  // no request parameter (the pass pipeline, cache producers) can
  // attribute their spans to this job.
  obs::ScopedTraceContext trace_scope(request.trace);
  attach_plan(request);
  ExecutionResult result;
  {
    obs::SpanTimer span = request.trace.span(obs::Phase::kExecute);
    result = backend_.execute(request);
  }
  apply_readout_mitigation(request, result);
  ++requests_executed_;
  total_backend_seconds_ += result.wall_seconds;
  kernel_dispatch_ += result.kernel_dispatch;
  return result;
}

std::vector<ExecutionResult> ExecutionSession::submit_batch(
    std::vector<ExecutionRequest> requests) {
  // Seeds are fixed up front, in submission order (they are the only
  // order-dependent state). Artifact and plan resolution rides inside
  // the parallel region: the caches are thread-safe with in-flight
  // de-duplication, so same-key requests still compile once while
  // distinct keys -- e.g. a batch of different hardware-targeted
  // circuits, each paying the mapping anneal -- resolve concurrently.
  // Artifacts are pure functions of their request, so this does not
  // affect the bitwise-reproducibility contract.
  for (ExecutionRequest& request : requests) assign_seed(request);

  std::vector<ExecutionResult> results;
  results.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    results.emplace_back();
  parallel_for(requests.size(), options_.threads, [&](std::size_t i) {
    obs::ScopedTraceContext trace_scope(requests[i].trace);
    attach_plan(requests[i]);
    {
      obs::SpanTimer span = requests[i].trace.span(obs::Phase::kExecute);
      results[i] = backend_.execute(requests[i]);
    }
    apply_readout_mitigation(requests[i], results[i]);
  });

  for (const ExecutionResult& result : results) {
    ++requests_executed_;
    total_backend_seconds_ += result.wall_seconds;
    kernel_dispatch_ += result.kernel_dispatch;
  }
  return results;
}

}  // namespace qs
