#include "exec/backend.h"

#include "common/require.h"
#include "common/rng.h"
#include "exec/plan.h"

namespace qs {

std::vector<double> Backend::run_state(const Circuit& circuit,
                                       std::uint64_t seed) const {
  ExecutionRequest request(circuit);
  request.seed = seed;
  return execute(request).probabilities;
}

std::vector<std::size_t> Backend::sample_counts(const Circuit& circuit,
                                                std::size_t shots,
                                                std::uint64_t seed) const {
  require(shots > 0, "Backend::sample_counts: shots must be positive");
  ExecutionRequest request(circuit);
  request.shots = shots;
  request.seed = seed;
  return execute(request).counts;
}

double Backend::expectation(const Circuit& circuit,
                            const std::vector<double>& diag,
                            std::uint64_t seed) const {
  ExecutionRequest request(circuit);
  request.seed = seed;
  request.observables.push_back({"value", diag});
  return execute(request).expectation("value");
}

std::shared_ptr<const TranspiledCircuit> Backend::resolve_transpiled(
    const ExecutionRequest& request) {
  if (request.processor == nullptr) return nullptr;
  if (request.transpiled != nullptr) return request.transpiled;
  return transpile(request.circuit, *request.processor,
                   request.transpile_options);
}

std::shared_ptr<const CompiledCircuit> Backend::resolve_plan(
    const ExecutionRequest& request, const Circuit& routed,
    const NoiseModel& noise) {
  // Validated binding of this request (empty for non-parametric work).
  const std::vector<double>& params = effective_parameters(request);

  // An attached plan is trusted only when it can have been lowered from
  // `routed`: for a hardware-targeted request that requires the artifact
  // the plan was paired with (the session attaches both together). A
  // stray plan on a processor request with no artifact -- lowered from
  // the unrouted logical circuit -- is ignored even when the spaces
  // coincide.
  const bool plan_trusted =
      request.processor == nullptr || request.transpiled != nullptr;
  std::shared_ptr<const CompiledCircuit> plan;
  if (plan_trusted && request.plan != nullptr &&
      request.plan->space() == routed.space()) {
    plan = request.plan;
  } else {
    // Self-compile fallback: no trusted cached plan, lower here.
    obs::SpanTimer span = request.trace.span(obs::Phase::kLower);
    span.set_detail("self-compile");
    plan = std::make_shared<const CompiledCircuit>(routed, noise);
  }
  // A parametric plan executes at this request's binding. The shared
  // structural artifact (or one bound for a different request) re-binds
  // here: bind() re-derives every parametric step from value-independent
  // factors, so the result is bitwise the plan of the fully-bound
  // circuit no matter which binding populated the cache.
  if (plan->parametric() && plan->bound_parameters() != params) {
    obs::SpanTimer span = request.trace.span(obs::Phase::kBind);
    plan = plan->bind(params);
  }
  return plan;
}

void Backend::fill_expectations(const ExecutionRequest& request,
                                ExecutionResult& result) {
  for (const Observable& obs : request.observables) {
    require(obs.diagonal.size() == result.probabilities.size(),
            "Backend: observable '" + obs.name +
                "' length does not match the executed circuit's dimension");
    double value = 0.0;
    for (std::size_t i = 0; i < obs.diagonal.size(); ++i)
      value += obs.diagonal[i] * result.probabilities[i];
    result.expectations[obs.name] = value;
  }
}

}  // namespace qs
