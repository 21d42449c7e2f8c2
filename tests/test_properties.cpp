// Property-based suites: randomized invariants checked across parameter
// sweeps (dimension, channel strength, circuit shape).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/eigen.h"
#include "linalg/expm.h"
#include "linalg/metrics.h"
#include "noise/channels.h"
#include "noise/noise_model.h"
#include "dynamics/trotter.h"
#include "exec/density_matrix_backend.h"
#include "exec/state_vector_backend.h"
#include "exec/trajectory_backend.h"
#include "qudit/density_matrix.h"
#include "qudit/state_vector.h"
#include "sqed/gauge_model.h"
#include "synth/snap_displacement.h"
#include "tomo/reservoir_tomography.h"

namespace qs {
namespace {

// ---------------------------------------------------------------------
// Gate properties across dimensions.
// ---------------------------------------------------------------------

class DimSweep : public ::testing::TestWithParam<int> {};

TEST_P(DimSweep, RandomUnitariesPreserveEverything) {
  const int d = GetParam();
  Rng rng(1000 + d);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix u = random_unitary(d, rng);
    EXPECT_TRUE(u.is_unitary(1e-9));
    const std::vector<cplx> psi = random_state(d, rng);
    const std::vector<cplx> upsi = u * psi;
    EXPECT_NEAR(norm(upsi), 1.0, 1e-10);
  }
}

TEST_P(DimSweep, EighRoundTripRandom) {
  const int d = GetParam();
  Rng rng(2000 + d);
  Matrix h(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
  for (int r = 0; r < d; ++r) {
    h(static_cast<std::size_t>(r), static_cast<std::size_t>(r)) =
        rng.normal();
    for (int c = r + 1; c < d; ++c) {
      h(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          rng.complex_normal();
      h(static_cast<std::size_t>(c), static_cast<std::size_t>(r)) =
          std::conj(h(static_cast<std::size_t>(r),
                      static_cast<std::size_t>(c)));
    }
  }
  const Matrix u = evolution_unitary(h, 0.37);
  EXPECT_TRUE(u.is_unitary(1e-9));
  // Inverse evolution returns to identity.
  const Matrix back = evolution_unitary(h, -0.37);
  EXPECT_LT(max_abs_diff(u * back,
                         Matrix::identity(static_cast<std::size_t>(d))),
            1e-9);
}

TEST_P(DimSweep, WeylGroupClosure) {
  const int d = GetParam();
  // X^a Z^b X^c Z^e = phase * X^{a+c} Z^{b+e}.
  const Matrix lhs = weyl(d, 1, 1) * weyl(d, 1, 0);
  const Matrix rhs = weyl(d, 2, 1);
  EXPECT_NEAR(unitary_fidelity(lhs, rhs), 1.0, 1e-9);
}

TEST_P(DimSweep, ChannelsAreCptpAcrossStrengths) {
  const int d = GetParam();
  for (double p : {1e-4, 0.1, 0.5, 0.9}) {
    EXPECT_TRUE(is_cptp(depolarizing_channel(d, p)));
    EXPECT_TRUE(is_cptp(dephasing_channel(d, p)));
    EXPECT_TRUE(is_cptp(amplitude_damping_channel(d, p)));
  }
}

TEST_P(DimSweep, ChannelContractsTraceDistance) {
  // CPTP maps are contractive: D(E(rho), E(sigma)) <= D(rho, sigma).
  const int d = GetParam();
  Rng rng(3000 + d);
  const Matrix rho = random_density(d, 2, rng);
  const Matrix sigma = random_density(d, 2, rng);
  const double before = trace_distance(rho, sigma);
  auto apply_channel = [&](const std::vector<Matrix>& kraus,
                           const Matrix& x) {
    Matrix out(x.rows(), x.cols());
    for (const Matrix& k : kraus) out += k * x * k.adjoint();
    return out;
  };
  for (const auto& kraus :
       {depolarizing_channel(d, 0.3), amplitude_damping_channel(d, 0.4)}) {
    const double after =
        trace_distance(apply_channel(kraus, rho), apply_channel(kraus, sigma));
    EXPECT_LE(after, before + 1e-9);
  }
}

TEST_P(DimSweep, CsumFourierCzIdentityHolds) {
  const int d = GetParam();
  const Matrix f = fourier(d);
  const Matrix id = Matrix::identity(static_cast<std::size_t>(d));
  const Matrix lhs = csum(d, d);
  const Matrix rhs = two_site(id, f.adjoint()) * cz(d, d) * two_site(id, f);
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-9);
}

TEST_P(DimSweep, DisplacementGroupLaw) {
  // D(a) D(b) = e^{i Im(a b*)} D(a+b) on a large-enough truncation.
  const int d = GetParam();
  const int dim = d + 14;
  Rng rng(4000 + d);
  const cplx a{0.3 * rng.normal(), 0.3 * rng.normal()};
  const cplx b{0.3 * rng.normal(), 0.3 * rng.normal()};
  const Matrix lhs = displacement(dim, a) * displacement(dim, b);
  const Matrix rhs = displacement(dim, a + b);
  // Compare on the low-Fock corner where truncation effects are absent.
  const cplx phase = std::exp(cplx{0.0, (a * std::conj(b)).imag()});
  for (int r = 0; r < d; ++r)
    for (int c = 0; c < d; ++c)
      EXPECT_NEAR(std::abs(lhs(static_cast<std::size_t>(r),
                               static_cast<std::size_t>(c)) -
                           phase * rhs(static_cast<std::size_t>(r),
                                       static_cast<std::size_t>(c))),
                  0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Dims, DimSweep, ::testing::Values(2, 3, 4, 5, 6));

// ---------------------------------------------------------------------
// Noisy-execution properties.
// ---------------------------------------------------------------------

class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, DensityMatrixStaysPhysical) {
  const double p = GetParam();
  Rng rng(17);
  Circuit c(QuditSpace({3, 3}));
  c.add("F", fourier(3), {0});
  c.add("CSUM", csum(3, 3), {0, 1});
  c.add("F", fourier(3), {1});
  NoiseParams np;
  np.depol_1q = p;
  np.depol_2q = 2.0 * p;
  np.loss_per_gate = 0.5 * p;
  DensityMatrix rho(c.space());
  DensityMatrixBackend::apply(c, rho, NoiseModel(np));
  EXPECT_NEAR(rho.trace(), 1.0, 1e-9);
  EXPECT_TRUE(rho.matrix().is_hermitian(1e-9));
  const EigResult er = eigh(rho.matrix());
  for (double lam : er.values) EXPECT_GT(lam, -1e-9);
  EXPECT_LE(rho.purity(), 1.0 + 1e-9);
}

TEST_P(NoiseSweep, PurityDecreasesWithNoise) {
  const double p = GetParam();
  Circuit c(QuditSpace({3}));
  c.add("F", fourier(3), {0});
  NoiseParams weak, strong;
  weak.depol_1q = p;
  strong.depol_1q = std::min(1.0, 3.0 * p);
  DensityMatrix rho_w(c.space()), rho_s(c.space());
  DensityMatrixBackend::apply(c, rho_w, NoiseModel(weak));
  DensityMatrixBackend::apply(c, rho_s, NoiseModel(strong));
  EXPECT_GE(rho_w.purity(), rho_s.purity() - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Strengths, NoiseSweep,
                         ::testing::Values(0.01, 0.05, 0.2));

// ---------------------------------------------------------------------
// Model-level properties.
// ---------------------------------------------------------------------

TEST(Properties, GaugeChainSpectrumScalesWithCoupling) {
  // Electric-term-only spectrum is exactly known; hopping lowers the
  // ground state (variational bound).
  for (int d : {2, 3, 4}) {
    const Hamiltonian free_h = gauge_chain(2, {d, 1.0, 0.0});
    const Hamiltonian coupled = gauge_chain(2, {d, 1.0, 1.0});
    const EigResult e_free = eigh(free_h.dense());
    const EigResult e_coupled = eigh(coupled.dense());
    EXPECT_LE(e_coupled.values[0], e_free.values[0] + 1e-12) << "d=" << d;
  }
}

TEST(Properties, TrotterErrorDecreasesWithStepCount) {
  const Hamiltonian h = gauge_chain(2, {3, 1.0, 1.0});
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  double prev = 1e9;
  for (int steps : {2, 4, 8, 16}) {
    TrotterOptions opt{2, t / steps, steps};
    const double err =
        1.0 - unitary_fidelity(circuit_unitary(trotter_circuit(h, opt)),
                               exact);
    EXPECT_LE(err, prev * 1.05);
    prev = err;
  }
}

TEST(Properties, TrajectoriesUnbiasedAcrossChannels) {
  // Trajectory mean of a dephasing+loss channel matches the exact DM for
  // a random circuit.
  Rng rng(18);
  Circuit c(QuditSpace({4}));
  c.add("U", random_unitary(4, rng), {0});
  c.add("U2", random_unitary(4, rng), {0});
  NoiseParams p;
  p.dephase_1q = 0.15;
  p.loss_per_gate = 0.1;
  const NoiseModel noise(p);
  DensityMatrix rho(c.space());
  DensityMatrixBackend::apply(c, rho, noise);
  const auto exact = rho.probabilities();
  std::vector<double> traj(4, 0.0);
  const int shots = 8000;
  for (int s = 0; s < shots; ++s) {
    StateVector psi(c.space());
    TrajectoryBackend::apply(c, psi, noise, rng);
    for (std::size_t i = 0; i < 4; ++i)
      traj[i] += std::norm(psi.amplitude(i)) / shots;
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(traj[i], exact[i], 0.02);
}

TEST(Properties, SnapDisplacementFidelityImprovesWithDepth) {
  // More ansatz layers cannot make the best achievable fidelity worse.
  GateDurations dur;
  SnapSynthOptions shallow;
  shallow.layers = 1;
  shallow.max_layers = 1;
  shallow.iters = 150;
  shallow.restarts = 1;
  shallow.target_fidelity = 0.999999;  // force full optimization
  SnapSynthOptions deep = shallow;
  deep.layers = 5;
  deep.max_layers = 5;
  const double f_shallow =
      synthesize_fourier(3, shallow, dur).fidelity_truncated;
  const double f_deep = synthesize_fourier(3, deep, dur).fidelity_truncated;
  EXPECT_GE(f_deep, f_shallow - 0.02);
}

TEST(Properties, ProjectToDensityIsIdempotent) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix noisy(4, 4);
    for (std::size_t r = 0; r < 4; ++r)
      for (std::size_t c = 0; c < 4; ++c)
        noisy(r, c) = rng.complex_normal();
    const Matrix once = project_to_density(noisy);
    const Matrix twice = project_to_density(once);
    EXPECT_LT(max_abs_diff(once, twice), 1e-9);
    EXPECT_NEAR(once.trace().real(), 1.0, 1e-10);
  }
}

TEST(Properties, PartialTraceConsistentWithExpectation) {
  // Tr(rho (A (x) I)) == Tr(Tr_B(rho) A) for random states.
  Rng rng(20);
  const QuditSpace space({3, 4});
  StateVector psi(space, random_state(12, rng));
  const DensityMatrix rho(psi);
  const Matrix a = shift_mixer_hamiltonian(3);
  const DensityMatrix reduced = rho.partial_trace({0});
  const double via_full = rho.expectation(a, {0}).real();
  const double via_reduced = (reduced.matrix() * a).trace().real();
  EXPECT_NEAR(via_full, via_reduced, 1e-10);
}

}  // namespace
}  // namespace qs
