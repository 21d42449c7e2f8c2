// Equivalence suite for the compiled execution layer (exec/plan.h).
//
// The contract under test: a CompiledCircuit lowered with
// PlanOptions::none() performs the same arithmetic in the same order as
// the gate-by-gate seed path -- amplitudes, probabilities, counts, and RNG
// stream consumption all agree exactly (EXPECT_EQ, not EXPECT_NEAR) -- on
// randomized mixed-radix spaces (d = 2..5) across all three backends,
// including noisy trajectories under fixed seeds. Fused plans reassociate
// floating-point products and agree to tolerance instead.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "exec/exec.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/expm.h"
#include "noise/noise_model.h"
#include "qudit/kernels.h"

namespace qs {
namespace {

/// Mixed-radix space with 3-5 sites of local dimension 2..5.
QuditSpace random_space(Rng& rng) {
  const int sites = rng.integer(3, 5);
  std::vector<int> dims;
  for (int s = 0; s < sites; ++s) dims.push_back(rng.integer(2, 5));
  return QuditSpace(dims);
}

std::vector<cplx> random_phase_diag(std::size_t n, Rng& rng) {
  std::vector<cplx> diag(n);
  for (std::size_t i = 0; i < n; ++i)
    diag[i] = std::exp(cplx{0.0, rng.uniform(0.0, 6.28)});
  return diag;
}

/// Random circuit mixing dense 1-site and 2-site gates, diagonals, and a
/// CSUM (monomial) gate; with_repeats appends adjacent same-site pairs so
/// fusion has something to do.
Circuit random_circuit(const QuditSpace& space, Rng& rng, int gates,
                       bool with_repeats) {
  Circuit c(space);
  const int n = static_cast<int>(space.num_sites());
  for (int g = 0; g < gates; ++g) {
    const int s = rng.integer(0, n - 1);
    const int d = space.dim(static_cast<std::size_t>(s));
    switch (rng.integer(0, 3)) {
      case 0:
        c.add("U1", random_unitary(d, rng), {s});
        break;
      case 1: {
        const int t = (s + 1) % n;
        const int dt = space.dim(static_cast<std::size_t>(t));
        c.add("U2", random_unitary(d * dt, rng), {s, t});
        break;
      }
      case 2:
        c.add_diagonal("P", random_phase_diag(static_cast<std::size_t>(d),
                                              rng),
                       {s});
        break;
      default: {
        const int t = (s + 1) % n;
        const int dt = space.dim(static_cast<std::size_t>(t));
        // csum needs control dim <= target dim; orient accordingly.
        if (d <= dt)
          c.add("CSUM", csum(d, dt), {s, t});
        else
          c.add("CSUM", csum(dt, d), {t, s});
        break;
      }
    }
    if (with_repeats && rng.bernoulli(0.4)) {
      // Same-site follow-up of the same kind: a fusion candidate.
      const Operation& prev = c.operations().back();
      if (prev.diagonal)
        c.add_diagonal("P'",
                       random_phase_diag(prev.diag.size(), rng), prev.sites);
      else
        c.add("U'", random_unitary(static_cast<int>(prev.matrix.rows()), rng),
              prev.sites);
    }
  }
  return c;
}

NoiseModel mixed_noise() {
  NoiseParams p;
  p.depol_1q = 0.004;
  p.depol_2q = 0.008;
  p.dephase_1q = 0.002;
  p.loss_per_gate = 0.003;
  return NoiseModel(p);
}

void expect_amplitudes_eq(const StateVector& a, const StateVector& b) {
  ASSERT_EQ(a.dimension(), b.dimension());
  for (std::size_t i = 0; i < a.dimension(); ++i)
    EXPECT_EQ(a.amplitude(i), b.amplitude(i)) << "amplitude " << i;
}

// ---------------------------------------------------------------------
// Compiled == gate-by-gate, exact.
// ---------------------------------------------------------------------

TEST(CompiledCircuit, UnfusedMatchesGateByGateExactly) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(1000 + trial);
    const QuditSpace space = random_space(rng);
    const Circuit c = random_circuit(space, rng, 12, false);

    StateVector reference(space);
    StateVectorBackend::apply(c, reference);

    const CompiledCircuit plan(c, NoiseModel(), PlanOptions::none());
    EXPECT_EQ(plan.source_operations(), c.size());
    EXPECT_EQ(plan.steps().size(), c.size());
    StateVector compiled(space);
    kernels::Scratch scratch;
    plan.run_pure(compiled, scratch);

    expect_amplitudes_eq(reference, compiled);
  }
}

TEST(CompiledCircuit, FusedAgreesToToleranceAndActuallyFuses) {
  std::size_t total_fused = 0;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(2000 + trial);
    const QuditSpace space = random_space(rng);
    const Circuit c = random_circuit(space, rng, 10, true);

    StateVector reference(space);
    StateVectorBackend::apply(c, reference);

    const CompiledCircuit plan(c, NoiseModel(), PlanOptions{});
    total_fused += plan.fused_operations();
    EXPECT_EQ(plan.source_operations(),
              plan.steps().size() + plan.fused_operations());
    StateVector compiled(space);
    kernels::Scratch scratch;
    plan.run_pure(compiled, scratch);

    for (std::size_t i = 0; i < reference.dimension(); ++i) {
      EXPECT_NEAR(reference.amplitude(i).real(), compiled.amplitude(i).real(),
                  1e-12);
      EXPECT_NEAR(reference.amplitude(i).imag(), compiled.amplitude(i).imag(),
                  1e-12);
    }
  }
  // With 40% same-site repeats over 8 trials something must have fused.
  EXPECT_GT(total_fused, 0u);
}

TEST(CompiledCircuit, NoisyTrajectoryMatchesSeedPathExactly) {
  const NoiseModel noise = mixed_noise();
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(3000 + trial);
    const QuditSpace space = random_space(rng);
    const Circuit c = random_circuit(space, rng, 8, false);

    Rng ref_rng(42 + trial);
    StateVector reference(space);
    TrajectoryBackend::apply(c, reference, noise, ref_rng);

    const CompiledCircuit plan(c, noise, PlanOptions::none());
    EXPECT_TRUE(plan.noisy());
    Rng compiled_rng(42 + trial);
    StateVector compiled(space);
    kernels::Scratch scratch;
    plan.run_trajectory(compiled, compiled_rng, scratch);

    expect_amplitudes_eq(reference, compiled);
    // Both paths must have consumed the identical RNG stream.
    EXPECT_EQ(ref_rng.draw_seed(), compiled_rng.draw_seed());
  }
}

TEST(CompiledCircuit, DensityMatrixPathMatchesGateByGateExactly) {
  const NoiseModel noise = mixed_noise();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(4000 + trial);
    QuditSpace space({2, 3, 4});  // keep dim^2 cheap
    const Circuit c = random_circuit(space, rng, 6, false);

    DensityMatrix reference(space);
    DensityMatrixBackend::apply(c, reference, noise);

    const CompiledCircuit plan(c, noise, PlanOptions::none());
    DensityMatrix compiled(space);
    kernels::Scratch scratch;
    plan.run_density(compiled, scratch);

    for (std::size_t r = 0; r < reference.dimension(); ++r)
      for (std::size_t col = 0; col < reference.dimension(); ++col)
        EXPECT_EQ(reference.matrix()(r, col), compiled.matrix()(r, col))
            << "entry (" << r << ", " << col << ")";
  }
}

// ---------------------------------------------------------------------
// Parametric plans: bind() == compile-the-bound-circuit, bitwise.
// ---------------------------------------------------------------------

/// Random parametric circuit: the random_circuit gate mix interleaved
/// with dense rotation families exp(-i angle H) and diagonal phase
/// families, plus same-site dense follow-ups so fusion chains cross
/// parametric operations. Every parameter index 0..num_params-1 is used.
Circuit random_parametric_circuit(const QuditSpace& space, Rng& rng,
                                  int gates, int num_params) {
  Circuit c(space);
  const int n = static_cast<int>(space.num_sites());
  std::uint64_t tag = 0xfeed0000 + 1000 * rng.integer(1, 9);
  int added_params = 0;
  for (int g = 0; g < gates; ++g) {
    const int s = rng.integer(0, n - 1);
    const int d = space.dim(static_cast<std::size_t>(s));
    if (g % 2 == 1) {  // alternate plain / parametric
      // Cycle through the slots so index num_params-1 is always used.
      const ParamExpr expr{added_params % num_params,
                           rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)};
      ++added_params;
      if (rng.bernoulli(0.5)) {
        const Matrix u = random_unitary(d, rng);
        const Matrix h = u + u.adjoint();  // hermitian generator
        c.add_parametric(
            "ROT",
            make_dense_generator(++tag,
                                 [h](double angle) {
                                   return expm_hermitian(h,
                                                         cplx{0.0, -angle});
                                 }),
            expr, {s});
      } else {
        c.add_parametric(
            "PH",
            make_diagonal_generator(++tag,
                                    [d](double angle) {
                                      std::vector<cplx> diag(
                                          static_cast<std::size_t>(d));
                                      for (int k = 0; k < d; ++k)
                                        diag[static_cast<std::size_t>(k)] =
                                            std::exp(cplx{0.0, angle * k});
                                      return diag;
                                    }),
            expr, {s});
      }
      if (rng.bernoulli(0.5)) {
        // Same-site dense follow-up: fuses into the parametric chain.
        c.add("U'", random_unitary(d, rng), {s});
      }
    } else {
      switch (rng.integer(0, 2)) {
        case 0:
          c.add("U1", random_unitary(d, rng), {s});
          break;
        case 1:
          c.add_diagonal("P",
                         random_phase_diag(static_cast<std::size_t>(d), rng),
                         {s});
          break;
        default: {
          const int t = (s + 1) % n;
          const int dt = space.dim(static_cast<std::size_t>(t));
          c.add("U2", random_unitary(d * dt, rng), {s, t});
          break;
        }
      }
    }
  }
  return c;
}

std::vector<double> random_binding(std::size_t count, Rng& rng) {
  std::vector<double> params(count);
  for (double& p : params) p = rng.uniform(-3.0, 3.0);
  return params;
}

TEST(ParametricPlan, BindMatchesCompilingBoundCircuitBitwise) {
  // The parametric correctness contract: plan(symbolic).bind(p) performs
  // the same arithmetic in the same order as plan(symbolic.bind(p)) --
  // amplitudes agree with EXPECT_EQ, fused or not, on random mixed-radix
  // circuits.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(11000 + trial);
    const QuditSpace space = random_space(rng);
    const Circuit symbolic =
        random_parametric_circuit(space, rng, 10, 2);
    const std::vector<double> params = random_binding(2, rng);

    for (const bool fuse : {false, true}) {
      const PlanOptions options = fuse ? PlanOptions{} : PlanOptions::none();
      const CompiledCircuit plan(symbolic, NoiseModel(), options);
      ASSERT_TRUE(plan.parametric());
      EXPECT_EQ(plan.num_parameters(), 2u);
      const auto bound = plan.bind(params);
      EXPECT_EQ(bound->bound_parameters(), params);
      EXPECT_EQ(bound->steps().size(), plan.steps().size());

      const CompiledCircuit rebuilt(symbolic.bind(params), NoiseModel(),
                                    options);
      ASSERT_EQ(bound->steps().size(), rebuilt.steps().size());
      StateVector via_bind(space);
      StateVector via_rebuild(space);
      kernels::Scratch scratch;
      bound->run_pure(via_bind, scratch);
      rebuilt.run_pure(via_rebuild, scratch);
      expect_amplitudes_eq(via_rebuild, via_bind);
    }
  }
}

TEST(ParametricPlan, NoisyTrajectoryBindMatchesRebuildExactly) {
  // Channel resolution reads only structure (sites, duration,
  // multiplicity), so the bound plan consumes the identical RNG stream
  // and lands on bitwise the same trajectory.
  const NoiseModel noise = mixed_noise();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(12000 + trial);
    const QuditSpace space = random_space(rng);
    const Circuit symbolic = random_parametric_circuit(space, rng, 8, 3);
    const std::vector<double> params = random_binding(3, rng);

    const CompiledCircuit plan(symbolic, noise, PlanOptions::none());
    const auto bound = plan.bind(params);
    const CompiledCircuit rebuilt(symbolic.bind(params), noise,
                                  PlanOptions::none());

    Rng bind_rng(500 + trial), rebuild_rng(500 + trial);
    StateVector via_bind(space);
    StateVector via_rebuild(space);
    kernels::Scratch scratch;
    bound->run_trajectory(via_bind, bind_rng, scratch);
    rebuilt.run_trajectory(via_rebuild, rebuild_rng, scratch);
    expect_amplitudes_eq(via_rebuild, via_bind);
    EXPECT_EQ(bind_rng.draw_seed(), rebuild_rng.draw_seed());
  }
}

/// Bit-for-bit equality of complex entries (EXPECT_EQ on cplx accepts
/// -0.0 for +0.0).
void expect_bits_eq(const cplx* want, const cplx* got, std::size_t n,
                    const std::string& what) {
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(cplx)), 0)
        << what << " entry " << i << ": " << want[i] << " vs " << got[i];
}

/// exp(-i angle k) on the k-th level, spelled as the CK generator spells
/// its phases: at angle +0.0 the imaginary parts read -0.0, at -0.0 they
/// read +0.0.
std::vector<cplx> level_phases(double angle, int d) {
  std::vector<cplx> diag(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k)
    diag[static_cast<std::size_t>(k)] =
        std::exp(cplx{0.0, -angle * static_cast<double>(k)});
  return diag;
}

TEST(ParametricPlan, RepeatedGeneratorsBindBitwiseUnderNoise) {
  // bind() evaluates each (generator, angle) once and reuses the payload
  // across operations. That reuse must be invisible: one dense and one
  // diagonal generator each serve several sites (some fused behind a
  // constant gate), a second generator object carries the first one's
  // tag, and two slots feed one generator +0.0 and -0.0, which compare
  // equal but yield different payload bits.
  const QuditSpace space(std::vector<int>{3, 3, 3});
  Rng rng(15000);
  const Matrix u = random_unitary(3, rng);
  const Matrix h = u + u.adjoint();
  const auto rot = make_dense_generator(0xfeed0001, [h](double angle) {
    return expm_hermitian(h, cplx{0.0, -angle});
  });
  const auto phase = make_diagonal_generator(
      0xfeed0002, [](double angle) { return level_phases(angle, 3); });
  const auto phase_twin = make_diagonal_generator(
      0xfeed0002, [](double angle) { return level_phases(angle, 3); });
  const ParamExpr beta{0, 1.0, 0.0};
  const ParamExpr gamma{1, 0.5, 0.0};
  // Offset -0.0 keeps a -0.0 slot at -0.0 (p + 0.0 would make it +0.0).
  const ParamExpr plus_zero{2, 1.0, -0.0};
  const ParamExpr minus_zero{3, 1.0, -0.0};

  Circuit symbolic(space);
  symbolic.add("F", fourier(3), {0});
  symbolic.add_parametric("ROT", rot, beta, {0});  // fuses behind F
  symbolic.add_parametric("ROT", rot, beta, {1});
  symbolic.add("U", random_unitary(3, rng), {1});  // fuses behind ROT
  symbolic.add("CSUM", csum(3, 3), {0, 1});
  symbolic.add_diagonal("P", random_phase_diag(3, rng), {2});
  symbolic.add_parametric("PH", phase, gamma, {2});  // fuses behind P
  symbolic.add_parametric("PH", phase, gamma, {0});
  symbolic.add_parametric("PH", phase_twin, gamma, {1});
  symbolic.add_parametric("PH", phase, plus_zero, {2});
  symbolic.add_parametric("PH", phase, minus_zero, {1});
  symbolic.add("CSUM", csum(3, 3), {1, 2});
  const std::vector<double> params{0.7, -1.3, 0.0, -0.0};

  // mixed_noise() puts channels after every gate, so nothing fuses; with
  // two-site depolarizing alone the three one-site chains above do.
  NoiseParams two_site;
  two_site.depol_2q = 0.05;
  struct Case {
    NoiseModel noise;
    std::size_t fused;
  };
  for (const Case& c : {Case{mixed_noise(), 0}, Case{NoiseModel(two_site), 3}}) {
    const NoiseModel& noise = c.noise;
    for (const bool fuse : {false, true}) {
      const PlanOptions options = fuse ? PlanOptions{} : PlanOptions::none();
      const CompiledCircuit plan(symbolic, noise, options);
      EXPECT_EQ(plan.fused_operations(), fuse ? c.fused : 0u);
      const auto bound = plan.bind(params);
      const CompiledCircuit rebuilt(symbolic.bind(params), noise, options);

      ASSERT_EQ(bound->steps().size(), rebuilt.steps().size());
      for (std::size_t i = 0; i < rebuilt.steps().size(); ++i) {
        const CompiledStep& want = rebuilt.steps()[i];
        const CompiledStep& got = bound->steps()[i];
        const std::string what = "step " + std::to_string(i);
        ASSERT_EQ(got.kind, want.kind) << what;
        ASSERT_EQ(got.channels.size(), want.channels.size()) << what;
        if (want.kind == CompiledStep::Kind::kDiagonal) {
          ASSERT_EQ(got.diag.size(), want.diag.size()) << what;
          expect_bits_eq(want.diag.data(), got.diag.data(), want.diag.size(),
                         what);
        } else {
          EXPECT_EQ(got.op.kind, want.op.kind) << what;
          ASSERT_EQ(got.op.block, want.op.block) << what;
          expect_bits_eq(want.op.dense.data(), got.op.dense.data(),
                         want.op.block * want.op.block, what);
        }
      }

      for (std::uint64_t seed : {600u, 601u, 602u}) {
        Rng bind_rng(seed), rebuild_rng(seed);
        StateVector via_bind(space);
        StateVector via_rebuild(space);
        kernels::Scratch scratch;
        bound->run_trajectory(via_bind, bind_rng, scratch);
        rebuilt.run_trajectory(via_rebuild, rebuild_rng, scratch);
        expect_bits_eq(via_rebuild.amplitudes().data(),
                       via_bind.amplitudes().data(), space.dimension(),
                       "amplitude");
        EXPECT_EQ(bind_rng.draw_seed(), rebuild_rng.draw_seed());
      }
    }
  }
}

TEST(ParametricPlan, BindSharesStorageAndEvaluatesEachAngleOnce) {
  // A bound plan views the structural plan's channel lists and BlockPlans
  // instead of copying them, and calls each generator once per distinct
  // angle however many operations it serves.
  const QuditSpace space(std::vector<int>{3, 3});
  Rng rng(16000);
  const Matrix u = random_unitary(3, rng);
  const Matrix h = u + u.adjoint();
  int dense_calls = 0;
  int diagonal_calls = 0;
  const auto rot =
      make_dense_generator(0xfeed0003, [h, &dense_calls](double angle) {
        ++dense_calls;
        return expm_hermitian(h, cplx{0.0, -angle});
      });
  const auto phase =
      make_diagonal_generator(0xfeed0004, [&diagonal_calls](double angle) {
        ++diagonal_calls;
        return level_phases(angle, 3);
      });
  Circuit symbolic(space);
  symbolic.add_parametric("ROT", rot, ParamExpr{0, 1.0, 0.0}, {0});
  symbolic.add_parametric("ROT", rot, ParamExpr{0, 1.0, 0.0}, {1});
  symbolic.add_parametric("ROT", rot, ParamExpr{1, 1.0, 0.0}, {0});
  symbolic.add("CSUM", csum(3, 3), {0, 1});
  symbolic.add_parametric("PH", phase, ParamExpr{1, 1.0, 0.0}, {0});
  symbolic.add_parametric("PH", phase, ParamExpr{1, 1.0, 0.0}, {1});
  const CompiledCircuit plan(symbolic, mixed_noise());

  dense_calls = diagonal_calls = 0;
  const auto bound = plan.bind({0.4, 0.9});
  EXPECT_EQ(dense_calls, 2);  // angles 0.4 and 0.9
  EXPECT_EQ(diagonal_calls, 1);
  ASSERT_EQ(bound->steps().size(), plan.steps().size());
  for (std::size_t i = 0; i < plan.steps().size(); ++i) {
    const CompiledStep& shared = plan.steps()[i];
    const CompiledStep& step = bound->steps()[i];
    EXPECT_EQ(step.plan, shared.plan) << "step " << i;
    ASSERT_FALSE(shared.channels.empty()) << "step " << i;
    ASSERT_EQ(step.channels.size(), shared.channels.size()) << "step " << i;
    EXPECT_EQ(&*step.channels.begin(), &*shared.channels.begin())
        << "step " << i;
  }

  // The table lives in one call: the next bind evaluates afresh, and
  // equal angles in two slots share one evaluation.
  dense_calls = diagonal_calls = 0;
  plan.bind({0.4, 0.4});
  EXPECT_EQ(dense_calls, 1);
  EXPECT_EQ(diagonal_calls, 1);
}

TEST(ParametricPlan, RebindRecipesAreValueIndependent) {
  // Any cached plan binds correctly no matter which binding populated
  // it: bind(p2) from a plan compiled at p1 equals compiling at p2.
  Rng rng(13000);
  const QuditSpace space = random_space(rng);
  const Circuit symbolic = random_parametric_circuit(space, rng, 10, 2);
  const std::vector<double> p1 = random_binding(2, rng);
  const std::vector<double> p2 = random_binding(2, rng);

  const CompiledCircuit from_p1(symbolic.bind(p1), NoiseModel(),
                                PlanOptions{});
  const auto rebound = from_p1.bind(p2);
  const CompiledCircuit fresh(symbolic.bind(p2), NoiseModel(), PlanOptions{});
  StateVector a(space), b(space);
  kernels::Scratch scratch;
  rebound->run_pure(a, scratch);
  fresh.run_pure(b, scratch);
  expect_amplitudes_eq(b, a);
}

TEST(ParametricPlanCache, StructuralKeySharesPlansAcrossBindings) {
  Rng rng(14000);
  const QuditSpace space = random_space(rng);
  const Circuit symbolic = random_parametric_circuit(space, rng, 8, 2);
  const std::vector<double> p1 = random_binding(2, rng);
  const std::vector<double> p2 = random_binding(2, rng);

  PlanCache cache(8);
  const auto plan1 =
      cache.get_or_compile(symbolic.bind(p1), NoiseModel(), PlanOptions{});
  const auto plan2 =
      cache.get_or_compile(symbolic.bind(p2), NoiseModel(), PlanOptions{});
  const auto plan3 =
      cache.get_or_compile(symbolic, NoiseModel(), PlanOptions{});
  EXPECT_EQ(plan1, plan2);  // one structural key, one artifact
  EXPECT_EQ(plan1, plan3);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CompiledExecution, TrajectoryBackendMatchesHandRolledReference) {
  Rng rng(5001);
  const QuditSpace space = random_space(rng);
  const Circuit c = random_circuit(space, rng, 8, false);
  const NoiseModel noise = mixed_noise();
  const std::uint64_t seed = 909;

  // <= 16 trajectories keeps the backend in a single reduction block, so
  // the reference's flat accumulation matches the block-ordered one.
  const std::size_t total = 12;
  std::vector<double> ref_probs(space.dimension(), 0.0);
  for (std::size_t t = 0; t < total; ++t) {
    Rng traj_rng(split_seed(seed, t));
    StateVector psi(space);
    TrajectoryBackend::apply(c, psi, noise, traj_rng);
    for (std::size_t i = 0; i < space.dimension(); ++i)
      ref_probs[i] += std::norm(psi.amplitude(i));
  }
  for (double& p : ref_probs) p /= static_cast<double>(total);

  const TrajectoryBackend backend{noise};
  ExecutionArtifacts unfused;
  unfused.plan =
      std::make_shared<const CompiledCircuit>(c, noise, PlanOptions::none());
  ExecutionRequest request(c);
  request.trajectories = total;
  request.seed = seed;
  const ExecutionResult result = backend.execute(request, unfused);
  ASSERT_EQ(result.probabilities.size(), ref_probs.size());
  for (std::size_t i = 0; i < ref_probs.size(); ++i)
    EXPECT_EQ(result.probabilities[i], ref_probs[i]) << "index " << i;

  // Counts path: every shot is one trajectory plus one readout draw.
  std::vector<std::size_t> ref_counts(space.dimension(), 0);
  const std::size_t shots = 16;
  for (std::size_t t = 0; t < shots; ++t) {
    Rng traj_rng(split_seed(seed, t));
    StateVector psi(space);
    TrajectoryBackend::apply(c, psi, noise, traj_rng);
    ++ref_counts[psi.sample_index(traj_rng)];
  }
  ExecutionRequest counts_request(c);
  counts_request.shots = shots;
  counts_request.seed = seed;
  EXPECT_EQ(backend.execute(counts_request, unfused).counts, ref_counts);
}

TEST(CompiledExecution, AllBackendsAgreeOnRandomCircuits) {
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(6000 + trial);
    QuditSpace space({3, 2, 4});
    const Circuit c = random_circuit(space, rng, 8, true);
    const auto p_sv = StateVectorBackend().run_state(c);
    const auto p_dm = DensityMatrixBackend().run_state(c);
    const auto p_traj = TrajectoryBackend{NoiseModel()}.run_state(c);
    for (std::size_t i = 0; i < p_sv.size(); ++i) {
      EXPECT_NEAR(p_sv[i], p_dm[i], 1e-12);
      EXPECT_NEAR(p_sv[i], p_traj[i], 1e-12);
    }
  }
}

// ---------------------------------------------------------------------
// Session plan cache.
// ---------------------------------------------------------------------

TEST(PlanCache, SessionReusesPlansAndResultsAreIdentical) {
  Rng rng(7001);
  const QuditSpace space = random_space(rng);
  const Circuit c = random_circuit(space, rng, 8, false);
  const TrajectoryBackend backend{mixed_noise()};

  ExecutionSession session(backend);
  auto make_request = [&] {
    ExecutionRequest r(c);
    r.shots = 64;
    r.seed = 1234;
    return r;
  };
  const ExecutionResult first = session.submit(make_request());
  EXPECT_EQ(session.plan_cache().misses(), 1u);
  EXPECT_EQ(session.plan_cache().hits(), 0u);
  const ExecutionResult second = session.submit(make_request());
  EXPECT_EQ(session.plan_cache().misses(), 1u);
  EXPECT_EQ(session.plan_cache().hits(), 1u);
  EXPECT_EQ(first.counts, second.counts);
  ASSERT_EQ(first.probabilities.size(), second.probabilities.size());
  for (std::size_t i = 0; i < first.probabilities.size(); ++i)
    EXPECT_EQ(first.probabilities[i], second.probabilities[i]);

  // Session-cached execution == direct backend execution (same default
  // lowering, same seed).
  const ExecutionResult direct = backend.execute(make_request());
  EXPECT_EQ(first.counts, direct.counts);

  // A batch of the same circuit compiles nothing new.
  std::vector<ExecutionRequest> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(make_request());
  session.submit_batch(std::move(batch));
  EXPECT_EQ(session.plan_cache().misses(), 1u);
  EXPECT_EQ(session.plan_cache().hits(), 7u);
}

TEST(PlanCache, DistinguishesCircuitsNoiseAndOptions) {
  Rng rng(7500);
  const QuditSpace space(std::vector<int>{3, 3});
  Circuit a(space);
  a.add("F", fourier(3), {0});
  Circuit b(space);
  b.add("F", fourier(3), {1});  // same gate, different site

  EXPECT_NE(fingerprint(a), fingerprint(b));
  Circuit a2(space);
  a2.add("F", fourier(3), {0});
  EXPECT_EQ(fingerprint(a), fingerprint(a2));
  EXPECT_NE(fingerprint(NoiseModel()), fingerprint(mixed_noise()));

  PlanCache cache(8);
  const auto p1 = cache.get_or_compile(a, NoiseModel(), PlanOptions{});
  const auto p2 = cache.get_or_compile(a, NoiseModel(), PlanOptions::none());
  const auto p3 = cache.get_or_compile(a, mixed_noise(), PlanOptions{});
  const auto p4 = cache.get_or_compile(b, NoiseModel(), PlanOptions{});
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_NE(p1, p4);
  EXPECT_EQ(p1, cache.get_or_compile(a, NoiseModel(), PlanOptions{}));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  const QuditSpace space(std::vector<int>{3, 3});
  PlanCache cache(2);
  auto circuit_with_phase = [&](double phi) {
    Circuit c(space);
    c.add_diagonal("P", {cplx{1.0, 0.0}, std::exp(cplx{0.0, phi}),
                         cplx{1.0, 0.0}},
                   {0});
    return c;
  };
  const Circuit c1 = circuit_with_phase(0.1);
  const Circuit c2 = circuit_with_phase(0.2);
  const Circuit c3 = circuit_with_phase(0.3);
  cache.get_or_compile(c1, NoiseModel(), PlanOptions{});
  cache.get_or_compile(c2, NoiseModel(), PlanOptions{});
  cache.get_or_compile(c1, NoiseModel(), PlanOptions{});  // c1 now MRU
  cache.get_or_compile(c3, NoiseModel(), PlanOptions{});  // evicts c2
  EXPECT_EQ(cache.size(), 2u);
  cache.get_or_compile(c1, NoiseModel(), PlanOptions{});
  EXPECT_EQ(cache.hits(), 2u);
  cache.get_or_compile(c2, NoiseModel(), PlanOptions{});  // recompiles
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(PlanCache, SafeUnderConcurrentHammering) {
  // The serve layer's workers resolve plans from one shared cache; hammer
  // get_or_compile from N threads over a working set larger than the
  // capacity so hits, compiles, and evictions all race. Run under
  // ThreadSanitizer in CI (the tsan job builds this suite).
  const QuditSpace space(std::vector<int>{3, 3});
  std::vector<Circuit> circuits;
  for (int k = 0; k < 6; ++k) {
    Circuit c(space);
    c.add("F", fourier(3), {k % 2});
    c.add_diagonal("P", {cplx{1.0, 0.0},
                         std::exp(cplx{0.0, 0.1 * (k + 1)}),
                         cplx{1.0, 0.0}},
                   {0});
    circuits.push_back(std::move(c));
  }
  PlanCache cache(4);  // smaller than the working set: evictions happen
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Circuit& c = circuits[(t + round) % circuits.size()];
        const auto plan =
            cache.get_or_compile(c, NoiseModel(), PlanOptions{});
        // Every caller must see a plan compiled from its own circuit.
        if (plan == nullptr || plan->steps().size() != c.size())
          mismatch = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(mismatch);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kRounds);
  // Each circuit compiles at least once; evictions may force recompiles.
  EXPECT_GE(cache.misses(), circuits.size());
}

// ---------------------------------------------------------------------
// Lowering structure.
// ---------------------------------------------------------------------

TEST(CompiledCircuit, ResolvesChannelsOnceAndReportsSummary) {
  const QuditSpace space(std::vector<int>{3, 3});
  Circuit c(space);
  c.add("F", fourier(3), {0});
  c.add("CSUM", csum(3, 3), {0, 1});
  const NoiseModel noise = mixed_noise();

  const CompiledCircuit plan(c, noise);
  // F: depol+dephase+loss on site 0 = 3 channels. CSUM: depol+loss per
  // site = 4 channels (dephase_2q is zero).
  EXPECT_EQ(plan.total_channels(), 7u);
  ASSERT_EQ(plan.steps().size(), 2u);
  EXPECT_EQ(plan.steps()[0].channels.size(), 3u);
  EXPECT_EQ(plan.steps()[1].channels.size(), 4u);
  EXPECT_GE(plan.max_block(), 9u);
  EXPECT_NE(plan.summary().find("2 steps"), std::string::npos);

  // CSUM is a permutation: the analyzer must classify it monomial.
  EXPECT_EQ(plan.steps()[1].op.kind, kernels::OpKernel::Kind::kMonomial);
  // Fourier is dense.
  EXPECT_EQ(plan.steps()[0].op.kind, kernels::OpKernel::Kind::kDense);
  // Standard noise Kraus operators are all monomial.
  for (const CompiledStep& step : plan.steps())
    for (const CompiledChannel& ch : step.channels)
      for (const kernels::OpKernel& k : ch.kraus)
        EXPECT_EQ(k.kind, kernels::OpKernel::Kind::kMonomial);
}

TEST(CompiledCircuit, FusionNeverCrossesNoiseChannels) {
  const QuditSpace space(std::vector<int>{3, 3});
  Circuit c(space);
  c.add("A", fourier(3), {0});
  c.add("B", fourier(3), {0});  // fusible when noiseless
  EXPECT_EQ(CompiledCircuit(c, NoiseModel()).steps().size(), 1u);
  // With per-gate noise a channel follows A, so B must not fuse into it.
  EXPECT_EQ(CompiledCircuit(c, mixed_noise()).steps().size(), 2u);
}

// ---------------------------------------------------------------------
// Satellite regressions: expectation and site_probabilities rewrites.
// ---------------------------------------------------------------------

TEST(StateVectorKernels, ExpectationMatchesNaiveContraction) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(8000 + trial);
    const QuditSpace space = random_space(rng);
    Circuit c = random_circuit(space, rng, 6, false);
    StateVector psi(space);
    StateVectorBackend::apply(c, psi);

    const int s = rng.integer(0, static_cast<int>(space.num_sites()) - 1);
    const int t = (s + 1) % static_cast<int>(space.num_sites());
    const int d = space.dim(static_cast<std::size_t>(s)) *
                  space.dim(static_cast<std::size_t>(t));
    const Matrix op = random_unitary(d, rng);

    // Naive reference: copy, apply, inner product.
    StateVector copy = psi;
    copy.apply(op, {s, t});
    const cplx naive = inner(psi.amplitudes(), copy.amplitudes());
    const cplx block_local = psi.expectation(op, {s, t});
    EXPECT_NEAR(naive.real(), block_local.real(), 1e-12);
    EXPECT_NEAR(naive.imag(), block_local.imag(), 1e-12);
  }
}

TEST(StateVectorKernels, SiteProbabilitiesMatchDigitScan) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(9000 + trial);
    const QuditSpace space = random_space(rng);
    Circuit c = random_circuit(space, rng, 6, false);
    StateVector psi(space);
    StateVectorBackend::apply(c, psi);

    for (int s = 0; s < static_cast<int>(space.num_sites()); ++s) {
      std::vector<double> reference(
          static_cast<std::size_t>(space.dim(static_cast<std::size_t>(s))),
          0.0);
      for (std::size_t i = 0; i < psi.dimension(); ++i)
        reference[static_cast<std::size_t>(
            space.digit(i, static_cast<std::size_t>(s)))] +=
            std::norm(psi.amplitude(i));
      const std::vector<double> strided = psi.site_probabilities(s);
      ASSERT_EQ(reference.size(), strided.size());
      // The stride loop visits each outcome's amplitudes in the same
      // ascending order as the digit scan: sums agree exactly.
      for (std::size_t k = 0; k < reference.size(); ++k)
        EXPECT_EQ(reference[k], strided[k]) << "site " << s << " digit " << k;
    }
  }
}

TEST(StateVectorKernels, MeasureSiteProjectsAndNormalizes) {
  Rng rng(9500);
  const QuditSpace space(std::vector<int>{3, 4, 2});
  Circuit c = random_circuit(space, rng, 6, false);
  StateVector psi(space);
  StateVectorBackend::apply(c, psi);

  StateVector copy = psi;
  Rng m1(77), m2(77);
  const int outcome = psi.measure_site(1, m1);
  const int outcome2 = copy.measure_site(1, m2);
  EXPECT_EQ(outcome, outcome2);
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-12);
  for (std::size_t i = 0; i < psi.dimension(); ++i) {
    if (space.digit(i, 1) != outcome) {
      EXPECT_EQ(psi.amplitude(i), (cplx{0.0, 0.0}));
    }
  }
  const std::vector<double> probs = psi.site_probabilities(1);
  EXPECT_NEAR(probs[static_cast<std::size_t>(outcome)], 1.0, 1e-12);
}

TEST(StateVectorKernels, ResetRestoresBasisState) {
  const QuditSpace space(std::vector<int>{3, 3});
  StateVector psi(space);
  psi.apply(fourier(3), {0});
  psi.reset();
  EXPECT_EQ(psi.amplitude(0), (cplx{1.0, 0.0}));
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-15);
  psi.reset({2, 1});
  EXPECT_EQ(psi.amplitude(space.index_of({2, 1})), (cplx{1.0, 0.0}));
  StateVector fresh(space, std::vector<int>{2, 1});
  expect_amplitudes_eq(fresh, psi);
}

}  // namespace
}  // namespace qs
