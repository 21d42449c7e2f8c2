#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "exec/exec.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "hardware/processor.h"
#include "noise/noise_model.h"

namespace qs {
namespace {

/// Two-qutrit "Bell" circuit: F on site 0, then CSUM -- a maximally
/// entangled pair with populations 1/3 on |00>, |11>, |22>.
Circuit bell_circuit() {
  Circuit c(QuditSpace::uniform(2, 3));
  c.add("F", fourier(3), {0});
  c.add("CSUM", csum(3, 3), {0, 1});
  return c;
}

NoiseModel lossy_noise() {
  NoiseParams p;
  p.loss_per_gate = 0.05;
  p.depol_2q = 0.02;
  return NoiseModel(p);
}

// ---------------------------------------------------------------------
// Backend agreement.
// ---------------------------------------------------------------------

TEST(Backends, AgreeOnNoiselessBellCircuit) {
  const Circuit c = bell_circuit();
  const StateVectorBackend sv;
  const DensityMatrixBackend dm;
  const TrajectoryBackend traj{NoiseModel()};

  const auto p_sv = sv.run_state(c);
  const auto p_dm = dm.run_state(c);
  const auto p_traj = traj.run_state(c);
  ASSERT_EQ(p_sv.size(), 9u);
  ASSERT_EQ(p_dm.size(), 9u);
  ASSERT_EQ(p_traj.size(), 9u);
  for (std::size_t i = 0; i < p_sv.size(); ++i) {
    EXPECT_NEAR(p_sv[i], p_dm[i], 1e-12);
    EXPECT_NEAR(p_sv[i], p_traj[i], 1e-12);
  }
  // Bell populations: 1/3 on the three |kk> states.
  const auto& space = c.space();
  for (int k = 0; k < 3; ++k)
    EXPECT_NEAR(p_sv[space.index_of({k, k})], 1.0 / 3.0, 1e-12);
  // Both run one pure state; the noiseless trajectory backend samples it
  // from the request seed's first split stream.
  const std::uint64_t seeds[] = {1, 42, 0x5eed};
  for (const std::uint64_t seed : seeds)
    EXPECT_EQ(traj.sample_counts(c, 300, seed),
              sv.sample_counts(c, 300, split_seed(seed, 0)))
        << "seed " << seed;

  EXPECT_FALSE(sv.is_noisy());
  EXPECT_FALSE(dm.is_noisy());
  EXPECT_FALSE(traj.is_noisy());
  EXPECT_TRUE(TrajectoryBackend{lossy_noise()}.is_noisy());
  EXPECT_TRUE(DensityMatrixBackend{lossy_noise()}.is_noisy());
}

TEST(Backends, ExpectationMatchesDiagonalContraction) {
  const Circuit c = bell_circuit();
  std::vector<double> diag(c.space().dimension(), 0.0);
  for (int k = 0; k < 3; ++k) diag[c.space().index_of({k, k})] = 1.0;
  // All population sits on |kk>: expectation 1 on every backend.
  EXPECT_NEAR(StateVectorBackend().expectation(c, diag), 1.0, 1e-12);
  EXPECT_NEAR(DensityMatrixBackend().expectation(c, diag), 1.0, 1e-12);
  // Under loss some weight leaves the |kk> manifold.
  const double noisy =
      DensityMatrixBackend{lossy_noise()}.expectation(c, diag);
  EXPECT_LT(noisy, 1.0);
  EXPECT_GT(noisy, 0.5);
}

TEST(Backends, TrajectoryCountsConvergeToDensityMatrixPopulations) {
  const Circuit c = bell_circuit();
  const auto exact = DensityMatrixBackend{lossy_noise()}.run_state(c);

  const std::size_t shots = 8000;
  const auto counts =
      TrajectoryBackend{lossy_noise()}.sample_counts(c, shots, 1234);
  ASSERT_EQ(counts.size(), exact.size());
  std::size_t total = 0;
  for (std::size_t n : counts) total += n;
  EXPECT_EQ(total, shots);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double freq = static_cast<double>(counts[i]) / shots;
    // 4-sigma band of the binomial estimator.
    const double sigma =
        std::sqrt(exact[i] * (1.0 - exact[i]) / static_cast<double>(shots));
    EXPECT_NEAR(freq, exact[i], 4.0 * sigma + 1e-3) << "index " << i;
  }
}

TEST(Backends, TrajectoryAveragedPopulationsConvergeToo) {
  const Circuit c = bell_circuit();
  const auto exact = DensityMatrixBackend{lossy_noise()}.run_state(c);
  ExecutionRequest request(c);
  request.trajectories = 3000;
  request.seed = 99;
  const ExecutionResult r = TrajectoryBackend{lossy_noise()}.execute(request);
  EXPECT_EQ(r.trajectories, 3000u);
  EXPECT_TRUE(r.counts.empty());  // no shots requested
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_NEAR(r.probabilities[i], exact[i], 0.03) << "index " << i;
}

// ---------------------------------------------------------------------
// Requests and results.
// ---------------------------------------------------------------------

TEST(ExecutionRequest, InitialDigitsAndObservables) {
  Circuit c(QuditSpace::uniform(2, 3));
  c.add("CSUM", csum(3, 3), {0, 1});  // adds site 0's digit onto site 1
  std::vector<double> target_pop(c.space().dimension(), 0.0);
  target_pop[c.space().index_of({1, 2})] = 1.0;
  const ExecutionResult r = StateVectorBackend().execute(
      ExecutionRequest(c).with_initial({1, 1}).with_observable("hit",
                                                               target_pop));
  // |1,1> -> |1, 1+1>.
  EXPECT_NEAR(r.expectation("hit"), 1.0, 1e-12);
  EXPECT_THROW(r.expectation("missing"), std::invalid_argument);
  EXPECT_EQ(r.backend, "statevector");
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(ExecutionRequest, SampledCountsAreSeededAndReproducible) {
  const Circuit c = bell_circuit();
  const StateVectorBackend sv;
  const auto a = sv.sample_counts(c, 500, 42);
  const auto b = sv.sample_counts(c, 500, 42);
  const auto other = sv.sample_counts(c, 500, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(ExecutionRequest, CompiledExecutionReportsSummary) {
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const ExecutionResult r = StateVectorBackend().execute(
      ExecutionRequest(bell_circuit()).with_compilation(proc).with_seed(5));
  EXPECT_FALSE(r.compile_summary.empty());
  // The physical register has one site per device mode.
  EXPECT_EQ(r.probabilities.size(), 27u);
  // Compiled execution is deterministic under a fixed seed.
  const ExecutionResult r2 = StateVectorBackend().execute(
      ExecutionRequest(bell_circuit()).with_compilation(proc).with_seed(5));
  EXPECT_EQ(r.probabilities, r2.probabilities);
}

TEST(ExecutionRequest, ExecuteRejectsArtifactsOfAnotherRequest) {
  // execute(request, artifacts) runs exactly the artifacts it is handed:
  // a pairing that cannot belong to the request is a caller bug and
  // throws, instead of being recompiled behind the caller's back.
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const StateVectorBackend backend;
  const NoiseModel& noise = backend.noise_model();
  const ExecutionRequest logical(bell_circuit());
  const ExecutionRequest targeted =
      ExecutionRequest(bell_circuit()).with_compilation(proc);
  const ExecutionArtifacts own = resolve_artifacts(logical, noise);
  const ExecutionArtifacts routed = resolve_artifacts(targeted, noise);
  EXPECT_NO_THROW(backend.execute(logical, own));
  EXPECT_NO_THROW(backend.execute(targeted, routed));

  // No plan.
  EXPECT_THROW(backend.execute(logical, ExecutionArtifacts{}),
               std::invalid_argument);
  // A plan lowered over another register (three qutrits, not two).
  const ExecutionArtifacts wide = resolve_artifacts(
      ExecutionRequest(Circuit(QuditSpace::uniform(3, 3))), noise);
  EXPECT_THROW(backend.execute(logical, wide), std::invalid_argument);
  // A hardware-targeted request without its transpile artifact, and a
  // transpile artifact on a request without a processor.
  EXPECT_THROW(backend.execute(targeted, own), std::invalid_argument);
  EXPECT_THROW(backend.execute(logical, routed), std::invalid_argument);
}

TEST(ExecutionSession, RepeatedCompiledRequestTranspilesExactlyOnce) {
  // The acceptance contract of the transpile cache: a repeated
  // ExecutionRequest with `processor` set transpiles once; the second
  // submission is a cache hit and reuses the artifact (and its plan).
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const StateVectorBackend backend;
  ExecutionSession session(backend);
  const ExecutionResult a = session.submit(
      ExecutionRequest(bell_circuit()).with_compilation(proc).with_seed(5));
  const ExecutionResult b = session.submit(
      ExecutionRequest(bell_circuit()).with_compilation(proc).with_seed(5));
  EXPECT_EQ(session.transpile_cache().misses(), 1u);
  EXPECT_EQ(session.transpile_cache().hits(), 1u);
  EXPECT_EQ(session.transpile_cache().size(), 1u);
  // Identical seeds => bitwise-identical simulation results.
  EXPECT_EQ(a.probabilities, b.probabilities);
  EXPECT_FALSE(a.compile_summary.empty());
  // The physical-circuit plan is cached too: one miss, one hit.
  EXPECT_EQ(session.plan_cache().misses(), 1u);
  EXPECT_EQ(session.plan_cache().hits(), 1u);
}

// ---------------------------------------------------------------------
// Parametric requests: binding resolution and the sweep fast path.
// ---------------------------------------------------------------------

/// Bell pair followed by a parametric phase layer (one parameter slot).
Circuit parametric_bell() {
  Circuit c = bell_circuit();
  c.add_parametric("PH",
                   make_diagonal_generator(0xbe11,
                                           [](double angle) {
                                             return std::vector<cplx>{
                                                 cplx{1.0, 0.0},
                                                 std::exp(cplx{0.0, angle}),
                                                 std::exp(cplx{0.0,
                                                               2.0 * angle})};
                                           }),
                   ParamExpr{0, 1.0, 0.0}, {1});
  return c;
}

TEST(ParametricRequests, BindingResolutionIsValidatedAtTheDoor) {
  // Parameters on a non-parametric circuit are a caller bug.
  ExecutionRequest plain(bell_circuit());
  plain.with_parameters({0.1});
  EXPECT_THROW(effective_parameters(plain), std::invalid_argument);
  // A symbolic circuit cannot execute without a binding.
  EXPECT_THROW(effective_parameters(ExecutionRequest(parametric_bell())),
               std::invalid_argument);
  EXPECT_THROW(
      StateVectorBackend().execute(ExecutionRequest(parametric_bell())),
      std::invalid_argument);
  // Arity must match.
  ExecutionRequest wrong(parametric_bell());
  wrong.with_parameters({0.1, 0.2});
  EXPECT_THROW(effective_parameters(wrong), std::invalid_argument);
  // Request-level binding and bound-circuit fallback both resolve.
  ExecutionRequest by_request(parametric_bell());
  by_request.with_parameters({0.4});
  EXPECT_EQ(effective_parameters(by_request), std::vector<double>{0.4});
  const ExecutionRequest by_circuit(parametric_bell().bind({0.4}));
  EXPECT_EQ(effective_parameters(by_circuit), std::vector<double>{0.4});
}

TEST(ExecutionSession, ParametricSweepLowersOnceAndMatchesRebuild) {
  // A sweep of distinct bindings over one symbolic circuit compiles one
  // plan (1 miss, N-1 hits) and every point is bitwise identical to
  // executing the bound circuit from scratch.
  const StateVectorBackend backend;
  ExecutionSession session(backend);
  const Circuit symbolic = parametric_bell();
  constexpr std::size_t kPoints = 16;
  auto angle_of = [](std::size_t k) { return 0.1 + 0.37 * k; };

  std::vector<ExecutionRequest> sweep;
  for (std::size_t k = 0; k < kPoints; ++k) {
    ExecutionRequest request(symbolic);
    request.with_parameters({angle_of(k)}).with_shots(32).with_seed(7);
    sweep.push_back(std::move(request));
  }
  const auto results = session.submit_batch(std::move(sweep));
  EXPECT_EQ(session.plan_cache().misses(), 1u);
  EXPECT_EQ(session.plan_cache().hits(), kPoints - 1);

  ASSERT_EQ(results.size(), kPoints);
  for (std::size_t k = 0; k < kPoints; ++k) {
    ExecutionRequest rebuilt(symbolic.bind({angle_of(k)}));
    rebuilt.with_shots(32).with_seed(7);
    const ExecutionResult direct = backend.execute(rebuilt);
    EXPECT_EQ(results[k].counts, direct.counts);
    ASSERT_EQ(results[k].probabilities.size(), direct.probabilities.size());
    for (std::size_t i = 0; i < direct.probabilities.size(); ++i)
      EXPECT_EQ(results[k].probabilities[i], direct.probabilities[i])
          << "point " << k << " index " << i;
  }
}

TEST(DensityMatrixBackendGuard, RejectsOversizedDenseAllocation) {
  const Circuit c = bell_circuit();  // dim 9
  EXPECT_THROW(
      DensityMatrixBackend().execute(ExecutionRequest(c).with_max_dim(8)),
      std::invalid_argument);
  DensityMatrix rho(c.space());
  EXPECT_THROW(DensityMatrixBackend::apply(c, rho, NoiseModel(), 8),
               std::invalid_argument);
  // Within the cap everything runs.
  EXPECT_NO_THROW(
      DensityMatrixBackend().execute(ExecutionRequest(c).with_max_dim(9)));
}

// ---------------------------------------------------------------------
// Session batching and determinism.
// ---------------------------------------------------------------------

std::vector<ExecutionRequest> bell_batch(std::size_t n) {
  std::vector<ExecutionRequest> batch;
  for (std::size_t i = 0; i < n; ++i)
    batch.push_back(ExecutionRequest(bell_circuit()).with_shots(64));
  return batch;
}

TEST(ExecutionSession, BatchIsBitwiseIdenticalForAnyThreadCount) {
  const TrajectoryBackend backend{lossy_noise()};
  std::vector<std::vector<ExecutionResult>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SessionOptions opts;
    opts.threads = threads;
    opts.seed = 777;
    ExecutionSession session(backend, opts);
    runs.push_back(session.submit_batch(bell_batch(10)));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].seed, runs[1][i].seed);
    EXPECT_EQ(runs[0][i].counts, runs[1][i].counts);
    // Bitwise, not approximate: the whole point of seed-splitting.
    ASSERT_EQ(runs[0][i].probabilities.size(),
              runs[1][i].probabilities.size());
    for (std::size_t k = 0; k < runs[0][i].probabilities.size(); ++k)
      EXPECT_EQ(runs[0][i].probabilities[k], runs[1][i].probabilities[k]);
  }
}

TEST(ExecutionSession, TrajectoryInternalThreadsDontChangeResults) {
  // Same request, trajectory backend worker count 1 vs 4: the fixed-size
  // block reduction keeps results bitwise identical.
  ExecutionRequest request(bell_circuit());
  request.shots = 600;
  request.seed = 4242;
  const ExecutionResult serial =
      TrajectoryBackend(lossy_noise(), 1).execute(request);
  const ExecutionResult parallel =
      TrajectoryBackend(lossy_noise(), 4).execute(request);
  EXPECT_EQ(serial.counts, parallel.counts);
  ASSERT_EQ(serial.probabilities.size(), parallel.probabilities.size());
  for (std::size_t k = 0; k < serial.probabilities.size(); ++k)
    EXPECT_EQ(serial.probabilities[k], parallel.probabilities[k]);
}

TEST(ExecutionSession, AutoSeedsFollowSubmissionOrder) {
  const StateVectorBackend backend;
  SessionOptions opts;
  opts.seed = 31337;
  ExecutionSession a(backend, opts);
  ExecutionSession b(backend, opts);
  // submit + submit on one session == submit_batch of two on another.
  const ExecutionResult first = a.submit(bell_batch(1)[0]);
  const ExecutionResult second = a.submit(bell_batch(1)[0]);
  const auto batch = b.submit_batch(bell_batch(2));
  EXPECT_EQ(first.seed, batch[0].seed);
  EXPECT_EQ(second.seed, batch[1].seed);
  EXPECT_NE(first.seed, second.seed);
  EXPECT_EQ(first.counts, batch[0].counts);
  EXPECT_EQ(second.counts, batch[1].counts);
  // Explicit seeds pass through untouched.
  const ExecutionResult fixed =
      a.submit(bell_batch(1)[0].with_seed(123456789));
  EXPECT_EQ(fixed.seed, 123456789u);
}

// ---------------------------------------------------------------------
// Failure paths: a backend that throws mid-batch must not deadlock the
// pool, and the first exception must reach the submitter.
// ---------------------------------------------------------------------

/// Statevector-like backend that throws on requests whose seed satisfies
/// `poisoned(seed)`. Seeds are assigned before fan-out, so which request
/// blows up is deterministic for any thread count.
class FaultInjectionBackend final : public Backend {
 public:
  explicit FaultInjectionBackend(bool (*poisoned)(std::uint64_t))
      : poisoned_(poisoned) {}

  std::string name() const override { return "faulty"; }

 private:
  void run(const ExecutionRequest& request, const CompiledCircuit& plan,
           ExecutionResult& result) const override {
    if (poisoned_(request.seed))
      throw std::runtime_error("injected fault for seed " +
                               std::to_string(request.seed));
    StateVector psi(plan.space());
    kernels::Scratch scratch;
    scratch.reserve_block(plan.max_block());
    plan.run_pure(psi, scratch);
    for (const cplx& a : psi.amplitudes())
      result.probabilities.push_back(std::norm(a));
  }

  bool (*poisoned_)(std::uint64_t);
};

TEST(ExecutionSessionFailure, MidBatchThrowSurfacesAndPoolSurvives) {
  const FaultInjectionBackend backend(
      [](std::uint64_t seed) { return seed % 3 == 0; });
  SessionOptions opts;
  opts.threads = 4;
  ExecutionSession session(backend, opts);

  std::vector<ExecutionRequest> batch;
  for (std::uint64_t s = 0; s < 12; ++s)
    batch.push_back(ExecutionRequest(bell_circuit()).with_seed(s + 1));
  // Seeds 3, 6, 9, 12 are poisoned; the batch must throw (first failure
  // wins) instead of hanging a worker.
  EXPECT_THROW(session.submit_batch(std::move(batch)), std::runtime_error);

  // The session (and its thread fan-out) stays usable afterwards.
  std::vector<ExecutionRequest> clean;
  for (std::uint64_t s = 0; s < 8; ++s)
    clean.push_back(ExecutionRequest(bell_circuit()).with_seed(3 * s + 1));
  const auto results = session.submit_batch(std::move(clean));
  ASSERT_EQ(results.size(), 8u);
  for (const ExecutionResult& r : results)
    EXPECT_NEAR(r.probabilities[0], 1.0 / 3.0, 1e-12);
}

TEST(ExecutionSessionFailure, EveryRequestThrowingStillReturns) {
  // Degenerate corner: every worker task throws at once; the pool must
  // join all workers and rethrow exactly one exception.
  const FaultInjectionBackend backend([](std::uint64_t) { return true; });
  SessionOptions opts;
  opts.threads = 4;
  ExecutionSession session(backend, opts);
  std::vector<ExecutionRequest> batch;
  for (std::uint64_t s = 0; s < 16; ++s)
    batch.push_back(ExecutionRequest(bell_circuit()).with_seed(s + 1));
  try {
    session.submit_batch(std::move(batch));
    FAIL() << "expected the injected fault to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
}

TEST(ExecutionSessionFailure, SingleSubmitPropagatesBackendError) {
  const FaultInjectionBackend backend([](std::uint64_t) { return true; });
  ExecutionSession session(backend);
  EXPECT_THROW(session.submit(ExecutionRequest(bell_circuit()).with_seed(1)),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Seed splitting.
// ---------------------------------------------------------------------

TEST(SplitSeed, StreamsAreDistinctAndPure) {
  EXPECT_EQ(split_seed(1, 0), split_seed(1, 0));
  EXPECT_NE(split_seed(1, 0), split_seed(1, 1));
  EXPECT_NE(split_seed(1, 0), split_seed(2, 0));
  // No short-cycle collisions over a small window.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 4096; ++s) seen.push_back(split_seed(9, s));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace qs
