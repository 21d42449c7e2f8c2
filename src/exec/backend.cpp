#include "exec/backend.h"

#include <stdexcept>
#include <string>

#include "calib/snapshot.h"
#include "common/require.h"
#include "common/stopwatch.h"
#include "compiler/transpile_cache.h"
#include "exec/plan.h"
#include "noise/mitigation.h"
#include "noise/noise_model.h"

namespace qs {

namespace {

/// Seed a request carrying kAutoSeed draws from when no session derived
/// one for it.
constexpr std::uint64_t kDefaultSeed = 0x5eedf00dcafef00dull;

/// Applies calibrated per-site confusion-matrix mitigation to a sampled
/// histogram (request.readout_calibration set and counts nonempty).
/// Site i of the executed register `space` -- the transpiled physical
/// circuit for hardware-targeted requests (one site per device mode), the
/// logical circuit otherwise -- uses the snapshot's confusion matrix for
/// mode i. Pure linear algebra: bitwise reproducible for a fixed
/// (snapshot, seed) pair.
void apply_readout_mitigation(const ExecutionRequest& request,
                              const QuditSpace& space,
                              ExecutionResult& result) {
  if (request.readout_calibration == nullptr || result.counts.empty())
    return;
  const CalibrationSnapshot& snap = *request.readout_calibration;
  const std::size_t sites = space.num_sites();
  require(snap.confusion.size() >= sites,
          "Backend::execute: calibration snapshot covers " +
              std::to_string(snap.confusion.size()) +
              " modes but the executed circuit has " +
              std::to_string(sites) + " sites");
  std::vector<std::vector<std::vector<double>>> site_matrices;
  site_matrices.reserve(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    require(snap.confusion[s].size() ==
                static_cast<std::size_t>(space.dim(s)),
            "Backend::execute: calibrated confusion dimension (" +
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

ExecutionArtifacts resolve_artifacts(const ExecutionRequest& request,
                                     const NoiseModel& noise,
                                     TranspileCache* transpiles,
                                     PlanCache* plans) {
  ExecutionArtifacts artifacts;
  const Circuit* routed = &request.circuit;
  if (request.processor != nullptr) {
    // The pass pipeline has no request parameter; the scoped context
    // attributes its kPass spans to this request.
    obs::ScopedTraceContext trace_scope(request.trace);
    obs::SpanTimer span = request.trace.span(obs::Phase::kTranspile);
    if (transpiles != nullptr) {
      bool hit = false;
      artifacts.transpiled = transpiles->get_or_transpile(
          request.circuit, *request.processor, request.transpile_options,
          &hit);
      span.set_cache_hit(hit);
    } else {
      artifacts.transpiled = transpile(request.circuit, *request.processor,
                                       request.transpile_options);
    }
    routed = &artifacts.transpiled->physical;
  }
  obs::SpanTimer span = request.trace.span(obs::Phase::kLower);
  if (plans != nullptr) {
    bool hit = false;
    artifacts.plan = plans->get_or_compile(*routed, noise, PlanOptions{}, &hit);
    span.set_cache_hit(hit);
  } else {
    artifacts.plan = std::make_shared<const CompiledCircuit>(*routed, noise);
  }
  return artifacts;
}

const NoiseModel& Backend::noise_model() const {
  static const NoiseModel kNoiseless;
  return kNoiseless;
}

bool Backend::is_noisy() const { return !noise_model().is_trivial(); }

ExecutionResult Backend::execute(const ExecutionRequest& request) const {
  return execute(request, resolve_artifacts(request, noise_model()));
}

ExecutionResult Backend::execute(const ExecutionRequest& request,
                                 const ExecutionArtifacts& artifacts) const {
  require(artifacts.plan != nullptr, "Backend::execute: no plan");
  require(request.processor == nullptr || artifacts.transpiled != nullptr,
          "Backend::execute: hardware-targeted request without its "
          "transpile artifact");
  require(request.processor != nullptr || artifacts.transpiled == nullptr,
          "Backend::execute: transpile artifact on a request without a "
          "processor");
  const Circuit& circuit = artifacts.transpiled != nullptr
                               ? artifacts.transpiled->physical
                               : request.circuit;
  require(artifacts.plan->space() == circuit.space(),
          "Backend::execute: plan lowered over another register");

  obs::SpanTimer span = request.trace.span(obs::Phase::kExecute);
  const Stopwatch timer;
  // A parametric plan executes at this request's binding. The shared
  // structural artifact (or one bound for another request) re-binds
  // here: bind() re-derives every parametric step from value-independent
  // factors, so the result is bitwise the plan of the fully-bound
  // circuit no matter which binding populated the cache.
  std::shared_ptr<const CompiledCircuit> plan = artifacts.plan;
  const std::vector<double>& params = effective_parameters(request);
  if (plan->parametric() && plan->bound_parameters() != params) {
    obs::SpanTimer bind_span = request.trace.span(obs::Phase::kBind);
    plan = plan->bind(params);
  }

  ExecutionResult result;
  result.backend = name();
  result.seed = request.seed == kAutoSeed ? kDefaultSeed : request.seed;
  if (artifacts.transpiled != nullptr)
    result.compile_summary = artifacts.transpiled->summary();
  run(request, *plan, result);
  for (const Observable& obs : request.observables) {
    if (obs.diagonal.size() != result.probabilities.size())
      throw std::invalid_argument(
          "Backend: observable '" + obs.name +
          "' length does not match the executed circuit's dimension");
    double value = 0.0;
    for (std::size_t i = 0; i < obs.diagonal.size(); ++i)
      value += obs.diagonal[i] * result.probabilities[i];
    result.expectations[obs.name] = value;
  }
  apply_readout_mitigation(request, plan->space(), result);
  result.wall_seconds = timer.seconds();
  return result;
}

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

}  // namespace qs
