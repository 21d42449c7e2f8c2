#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/metrics.h"
#include "noise/channels.h"
#include "qudit/density_matrix.h"
#include "qudit/space.h"
#include "qudit/state_vector.h"

namespace qs {
namespace {

TEST(Space, StridesAndDigits) {
  const QuditSpace space({2, 3, 4});
  EXPECT_EQ(space.dimension(), 24u);
  EXPECT_EQ(space.stride(0), 1u);
  EXPECT_EQ(space.stride(1), 2u);
  EXPECT_EQ(space.stride(2), 6u);
  const std::size_t idx = space.index_of({1, 2, 3});
  EXPECT_EQ(idx, 1u + 2u * 2u + 3u * 6u);
  EXPECT_EQ(space.digits(idx), (std::vector<int>{1, 2, 3}));
}

TEST(Space, RoundTripAllIndices) {
  const QuditSpace space({3, 2, 5});
  for (std::size_t i = 0; i < space.dimension(); ++i)
    EXPECT_EQ(space.index_of(space.digits(i)), i);
}

TEST(Space, RejectsBadDigits) {
  const QuditSpace space({2, 2});
  EXPECT_THROW(space.index_of({2, 0}), std::invalid_argument);
  EXPECT_THROW(space.index_of({0}), std::invalid_argument);
}

TEST(StateVector, InitialState) {
  const StateVector psi(QuditSpace({3, 3}));
  EXPECT_EQ(psi.amplitude(0), cplx(1.0, 0.0));
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-14);
}

TEST(StateVector, ApplySingleSiteShift) {
  StateVector psi(QuditSpace({3, 3}));
  psi.apply(weyl_x(3), {0});
  // |00> -> |10> (site 0 digit becomes 1).
  EXPECT_NEAR(std::abs(psi.amplitude(1) - cplx{1.0, 0.0}), 0.0, 1e-14);
}

TEST(StateVector, ApplyOnSecondSite) {
  StateVector psi(QuditSpace({3, 3}));
  psi.apply(weyl_x(3), {1});
  // |00> -> |0,1>: index = 0 + 3*1 = 3.
  EXPECT_NEAR(std::abs(psi.amplitude(3) - cplx{1.0, 0.0}), 0.0, 1e-14);
}

TEST(StateVector, TwoSiteGateMatchesKron) {
  // Apply X on site0 and Z on site1 via a single two-site gate; compare
  // against sequential single-site applications.
  Rng rng(5);
  const QuditSpace space({3, 4, 2});
  std::vector<cplx> amps = random_state(static_cast<int>(space.dimension()),
                                        rng);
  StateVector a(space, amps), b(space, amps);
  a.apply(two_site(weyl_x(3), fourier(4)), {0, 1});
  b.apply(weyl_x(3), {0});
  b.apply(fourier(4), {1});
  for (std::size_t i = 0; i < space.dimension(); ++i)
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, 1e-12);
}

TEST(StateVector, SiteOrderConvention) {
  // CSUM with control site 1, target site 0, applied as sites {1, 0}.
  const QuditSpace space({3, 3});
  StateVector psi(space, std::vector<int>{0, 2});  // |site0=0, site1=2>
  psi.apply(csum(3, 3), {1, 0});  // control = listed first = site 1
  // target (site 0) becomes 0 + 2 mod 3 = 2.
  const std::size_t expect = space.index_of({2, 2});
  EXPECT_NEAR(std::abs(psi.amplitude(expect) - cplx{1.0, 0.0}), 0.0, 1e-14);
}

TEST(StateVector, DiagonalMatchesDense) {
  Rng rng(6);
  const QuditSpace space({2, 3, 2});
  std::vector<cplx> amps =
      random_state(static_cast<int>(space.dimension()), rng);
  StateVector a(space, amps), b(space, amps);
  const Matrix zz = two_site(weyl_z(2), weyl_z(3));
  std::vector<cplx> diag(6);
  for (std::size_t i = 0; i < 6; ++i) diag[i] = zz(i, i);
  a.apply_diagonal(diag, {0, 1});
  b.apply(zz, {0, 1});
  for (std::size_t i = 0; i < space.dimension(); ++i)
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, 1e-12);
}

TEST(StateVector, UnitaryPreservesNorm) {
  Rng rng(7);
  const QuditSpace space({4, 3});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  psi.apply(random_unitary(4, rng), {0});
  psi.apply(random_unitary(3, rng), {1});
  psi.apply(random_unitary(12, rng), {0, 1});
  EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-10);
}

TEST(StateVector, SiteProbabilities) {
  const QuditSpace space({2, 2});
  StateVector psi(space);
  psi.apply(fourier(2), {0});
  const std::vector<double> p = psi.site_probabilities(0);
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
  const std::vector<double> p1 = psi.site_probabilities(1);
  EXPECT_NEAR(p1[0], 1.0, 1e-12);
}

TEST(StateVector, MeasureCollapses) {
  Rng rng(8);
  const QuditSpace space({3, 3});
  StateVector psi(space);
  psi.apply(fourier(3), {0});
  const int outcome = psi.measure_site(0, rng);
  const std::vector<double> p = psi.site_probabilities(0);
  EXPECT_NEAR(p[static_cast<std::size_t>(outcome)], 1.0, 1e-12);
}

TEST(StateVector, MeasurementStatistics) {
  Rng rng(9);
  const QuditSpace space({3});
  StateVector base(space);
  base.apply(fourier(3), {0});
  std::vector<int> counts(3, 0);
  const int shots = 9000;
  for (int s = 0; s < shots; ++s) {
    StateVector psi = base;
    ++counts[static_cast<std::size_t>(psi.measure_site(0, rng))];
  }
  for (int k = 0; k < 3; ++k)
    EXPECT_NEAR(counts[static_cast<std::size_t>(k)] / double(shots), 1.0 / 3.0,
                0.03);
}

TEST(StateVector, SampleCountsDistribution) {
  Rng rng(10);
  const QuditSpace space({2});
  StateVector psi(space);
  psi.apply(givens(2, 0, 1, kPi / 3.0, 0.0), {0});  // P(1)=sin^2(pi/6)=0.25
  const auto counts = psi.sample_counts(20000, rng);
  EXPECT_NEAR(counts[1] / 20000.0, 0.25, 0.02);
}

TEST(StateVector, ExpectationOfNumberOperator) {
  const QuditSpace space({4});
  StateVector psi(space, std::vector<int>{2});
  Matrix n(4, 4);
  for (int k = 0; k < 4; ++k)
    n(static_cast<std::size_t>(k), static_cast<std::size_t>(k)) = k;
  EXPECT_NEAR(psi.expectation(n, {0}).real(), 2.0, 1e-12);
}

TEST(StateVector, ChannelProbabilitiesSumToOne) {
  // Amplitude damping Kraus on one qutrit of a random two-qutrit state.
  Rng rng(11);
  const QuditSpace space({3, 3});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  const double gamma = 0.3;
  // Qubit-style damping on levels (0,1,2) with sqrt(n) scaling.
  Matrix k0 = Matrix::identity(3);
  k0(1, 1) = std::sqrt(1.0 - gamma);
  k0(2, 2) = 1.0 - gamma;  // two-photon survival ~ (1-gamma)^n for n=2
  Matrix k1(3, 3);
  k1(0, 1) = std::sqrt(gamma);
  k1(1, 2) = std::sqrt(2.0 * gamma * (1.0 - gamma));
  Matrix k2(3, 3);
  k2(0, 2) = gamma;  // sqrt(gamma^2)
  // Verify CPTP: sum K^dag K = I.
  Matrix sum(3, 3);
  for (const Matrix& k : {k0, k1, k2}) sum += k.adjoint() * k;
  ASSERT_LT(max_abs_diff(sum, Matrix::identity(3)), 1e-10);
  const auto probs = psi.channel_probabilities({k0, k1, k2}, {0});
  double total = 0.0;
  for (double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(StateVector, SampledBranchFrequenciesMatchWeights) {
  // 10^5 trajectory draws on one fixed superposition: each Kraus branch
  // is taken with frequency ||K_m psi||^2 (within 5 sigma), and the state
  // it leaves is normalized. Depolarizing exercises the c I branch the
  // walk never weighs against psi; loss exercises per-branch weights.
  Rng rng(19);
  const QuditSpace space({2, 3});
  const StateVector start(
      space, random_state(static_cast<int>(space.dimension()), rng));
  const std::size_t draws = 100000;
  for (const std::vector<Matrix>& kraus :
       {amplitude_damping_channel(3, 0.3), depolarizing_channel(3, 0.5)}) {
    const std::vector<double> p = start.channel_probabilities(kraus, {1});
    std::vector<std::size_t> hits(kraus.size(), 0);
    Rng draw_rng(23);
    for (std::size_t t = 0; t < draws; ++t) {
      StateVector psi = start;
      ++hits[psi.apply_channel_sampled(kraus, {1}, draw_rng)];
      if (t < 100) {
        EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-12);
      }
    }
    for (std::size_t m = 0; m < kraus.size(); ++m) {
      const double freq =
          static_cast<double>(hits[m]) / static_cast<double>(draws);
      const double sigma =
          std::sqrt(p[m] * (1.0 - p[m]) / static_cast<double>(draws));
      EXPECT_NEAR(freq, p[m], 5.0 * sigma + 1e-12) << "branch " << m;
    }
  }
}

TEST(StateVector, ChannelSamplingRequiresTracePreservingSet) {
  StateVector psi(QuditSpace({3}));
  Rng rng(5);
  std::vector<Matrix> leaky = amplitude_damping_channel(3, 0.3);
  leaky.pop_back();  // drop K_2: sum K^dag K != I
  EXPECT_THROW(psi.apply_channel_sampled(leaky, {0}, rng),
               std::invalid_argument);
  EXPECT_THROW(psi.apply_channel_sampled({}, {0}, rng),
               std::invalid_argument);
  EXPECT_THROW(
      psi.apply_channel_sampled(amplitude_damping_channel(2, 0.3), {0}, rng),
      std::invalid_argument);  // 2x2 operators on a qutrit site
}

TEST(DensityMatrix, PureStateConstruction) {
  const QuditSpace space({2, 2});
  StateVector psi(space);
  psi.apply(fourier(2), {0});
  const DensityMatrix rho(psi);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, UnitaryMatchesStateVector) {
  Rng rng(12);
  const QuditSpace space({3, 2});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  DensityMatrix rho(psi);
  const Matrix u = random_unitary(3, rng);
  psi.apply(u, {0});
  rho.apply_unitary(u, {0});
  const DensityMatrix expected(psi);
  EXPECT_LT(max_abs_diff(rho.matrix(), expected.matrix()), 1e-10);
}

TEST(DensityMatrix, TwoSiteUnitaryMatchesStateVector) {
  Rng rng(13);
  const QuditSpace space({2, 3, 2});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  DensityMatrix rho(psi);
  const Matrix u = random_unitary(6, rng);
  psi.apply(u, {2, 1});
  rho.apply_unitary(u, {2, 1});
  const DensityMatrix expected(psi);
  EXPECT_LT(max_abs_diff(rho.matrix(), expected.matrix()), 1e-10);
}

TEST(DensityMatrix, ChannelPreservesTrace) {
  Rng rng(14);
  const QuditSpace space({3, 2});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  DensityMatrix rho(psi);
  // Dephasing channel: K0 = sqrt(1-p) I, K1..K_{d-1} = sqrt(p/(d-1)) Z^k.
  const double p = 0.4;
  std::vector<Matrix> kraus;
  kraus.push_back(Matrix::identity(3) * cplx{std::sqrt(1.0 - p), 0.0});
  const Matrix z = weyl_z(3);
  Matrix zk = z;
  for (int k = 1; k < 3; ++k) {
    kraus.push_back(zk * cplx{std::sqrt(p / 2.0), 0.0});
    zk = zk * z;
  }
  rho.apply_channel(kraus, {0});
  EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, PartialTraceOfProductState) {
  const QuditSpace space({2, 3});
  StateVector psi(space);
  psi.apply(fourier(2), {0});  // |+> (x) |0>
  const DensityMatrix rho(psi);
  const DensityMatrix reduced = rho.partial_trace({0});
  EXPECT_EQ(reduced.dimension(), 2u);
  EXPECT_NEAR(reduced.matrix()(0, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfEntangledStateIsMixed) {
  // Qutrit Bell state via Fourier + CSUM.
  const QuditSpace space({3, 3});
  StateVector psi(space);
  psi.apply(fourier(3), {0});
  psi.apply(csum(3, 3), {0, 1});
  const DensityMatrix rho(psi);
  const DensityMatrix reduced = rho.partial_trace({0});
  EXPECT_NEAR(reduced.purity(), 1.0 / 3.0, 1e-10);
}

TEST(DensityMatrix, ExpectationMatchesStateVector) {
  Rng rng(15);
  const QuditSpace space({3, 3});
  StateVector psi(space,
                  random_state(static_cast<int>(space.dimension()), rng));
  const DensityMatrix rho(psi);
  const Matrix obs = shift_mixer_hamiltonian(3);
  EXPECT_NEAR(rho.expectation(obs, {1}).real(),
              psi.expectation(obs, {1}).real(), 1e-10);
}

TEST(DensityMatrix, SampleCountsMatchDiagonal) {
  Rng rng(16);
  const QuditSpace space({2});
  StateVector psi(space);
  psi.apply(givens(2, 0, 1, kPi / 2.0, 0.0), {0});  // 50/50
  const DensityMatrix rho(psi);
  const auto counts = rho.sample_counts(20000, rng);
  EXPECT_NEAR(counts[0] / 20000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace qs
