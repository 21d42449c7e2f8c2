#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "dynamics/hamiltonian.h"
#include "dynamics/lindblad.h"
#include "dynamics/trotter.h"
#include "exec/state_vector_backend.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/eigen.h"
#include "linalg/expm.h"
#include "linalg/metrics.h"

namespace qs {
namespace {

/// Transverse-field Ising chain on qubits: H = -J sum Z Z - h sum X.
Hamiltonian tfim(int n, double j, double h) {
  Hamiltonian ham(QuditSpace::uniform(static_cast<std::size_t>(n), 2));
  const Matrix z = weyl_z(2);
  const Matrix x{{0.0, 1.0}, {1.0, 0.0}};
  for (int i = 0; i + 1 < n; ++i)
    ham.add("ZZ", two_site(z, z) * cplx{-j, 0.0}, {i, i + 1});
  for (int i = 0; i < n; ++i) ham.add("X", x * cplx{-h, 0.0}, {i});
  return ham;
}

/// Dense n x n matrix with complex standard-normal entries.
Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.complex_normal();
  return m;
}

Matrix random_hermitian(std::size_t n, Rng& rng) {
  const Matrix m = random_matrix(n, rng);
  return (m + m.adjoint()) * cplx{0.5, 0.0};
}

/// The master equation written out with dense products:
/// -i[H, rho] + sum_k (L rho L^dag - 1/2 {L^dag L, rho}), each L already
/// scaled by sqrt(rate).
Matrix dense_rhs(const Matrix& h, const std::vector<Matrix>& jumps,
                 const Matrix& rho) {
  Matrix out = (h * rho - rho * h) * cplx{0.0, -1.0};
  for (const Matrix& l : jumps) {
    const Matrix ldl = l.adjoint() * l;
    out += l * rho * l.adjoint();
    out -= (ldl * rho + rho * ldl) * cplx{0.5, 0.0};
  }
  return out;
}

TEST(Hamiltonian, DenseMatchesApply) {
  Rng rng(61);
  const Hamiltonian h = tfim(3, 1.0, 0.7);
  const Matrix dense = h.dense();
  const std::vector<cplx> v =
      random_state(static_cast<int>(h.space().dimension()), rng);
  const std::vector<cplx> via_dense = dense * v;
  const std::vector<cplx> via_apply = h.apply(v);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_NEAR(std::abs(via_dense[i] - via_apply[i]), 0.0, 1e-10);
}

TEST(Hamiltonian, EmbedPlacesOperatorCorrectly) {
  const QuditSpace space({2, 3});
  const Matrix x = weyl_x(2);
  const Matrix full = embed(x, {0}, space);
  // Should equal X (x) I3 arranged with site 0 least significant.
  const Matrix expect = kron(Matrix::identity(3), x);
  EXPECT_LT(max_abs_diff(full, expect), 1e-12);
}

TEST(Hamiltonian, RejectsNonHermitianTerm) {
  Hamiltonian h(QuditSpace({3}));
  EXPECT_THROW(h.add("a", annihilation(3), {0}), std::invalid_argument);
}

TEST(Hamiltonian, ExpectationOnBasisState) {
  const Hamiltonian h = tfim(2, 1.0, 0.0);
  StateVector psi(h.space());  // |00>: Z|0> = +|0>, so E = -J.
  EXPECT_NEAR(h.expectation(psi), -1.0, 1e-12);
}

TEST(Hamiltonian, LanczosGroundStateMatchesDense) {
  Rng rng(62);
  const Hamiltonian h = tfim(4, 1.0, 0.5);
  const EigResult er = eigh(h.dense());
  const auto low = h.lowest_eigenvalues(2, rng);
  EXPECT_NEAR(low[0], er.values[0], 1e-7);
  EXPECT_NEAR(low[1], er.values[1], 1e-7);
}

TEST(Trotter, FirstOrderConvergesLinearly) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  double prev_err = 1e9;
  for (int steps : {4, 8, 16}) {
    TrotterOptions opt;
    opt.order = 1;
    opt.dt = t / steps;
    opt.steps = steps;
    const Matrix u = circuit_unitary(trotter_circuit(h, opt));
    const double err = 1.0 - unitary_fidelity(u, exact);
    EXPECT_LT(err, prev_err);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 2e-3);
}

TEST(Trotter, SecondOrderBeatsFirstOrder) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  TrotterOptions o1{1, t / 8, 8};
  TrotterOptions o2{2, t / 8, 8};
  const double e1 =
      1.0 - unitary_fidelity(circuit_unitary(trotter_circuit(h, o1)), exact);
  const double e2 =
      1.0 - unitary_fidelity(circuit_unitary(trotter_circuit(h, o2)), exact);
  EXPECT_LT(e2, e1);
}

TEST(Trotter, SecondOrderQuadraticScaling) {
  const Hamiltonian h = tfim(2, 1.0, 0.6);
  const double t = 1.0;
  const Matrix exact = exact_evolution(h, t);
  auto err_for = [&](int steps) {
    TrotterOptions opt{2, t / steps, steps};
    return 1.0 -
           unitary_fidelity(circuit_unitary(trotter_circuit(h, opt)), exact);
  };
  // Infidelity of Strang splitting scales ~ dt^4 (error operator dt^2,
  // fidelity quadratic in it): doubling steps gains ~16x.
  const double e4 = err_for(4);
  const double e8 = err_for(8);
  EXPECT_GT(e4 / e8, 8.0);
}

TEST(Trotter, DiagonalTermsUseDiagonalPath) {
  Hamiltonian h(QuditSpace({3, 3}));
  Matrix nn(9, 9);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      const auto i = static_cast<std::size_t>(a + 3 * b);
      nn(i, i) = a * b;
    }
  h.add("nn", nn, {0, 1});
  const Circuit c = trotter_circuit(h, {1, 0.3, 2});
  for (const auto& op : c.operations()) EXPECT_TRUE(op.diagonal);
}

TEST(Lindblad, RhsMatchesDenseFormula) {
  struct Collapse {
    Matrix op;
    std::vector<int> sites;
    double rate;
  };
  Rng rng(64);
  const std::vector<std::vector<int>> shapes = {{2}, {3, 2}, {6, 6}, {2, 3, 2}};
  for (const std::vector<int>& dims : shapes) {
    const QuditSpace space(dims);
    const int last = static_cast<int>(dims.size()) - 1;
    Hamiltonian ham(space);
    for (int s = 0; s <= last; ++s)
      ham.add("h", random_hermitian(space.dim(s), rng), {s});
    for (int s = 0; s < last; ++s)
      ham.add("hh", random_hermitian(space.dim(s) * space.dim(s + 1), rng),
              {s, s + 1});
    const Matrix h = ham.dense();
    std::vector<Collapse> collapses = {
        {annihilation(dims.front()), {0}, 0.7},
        {number_operator(dims.back()), {last}, 0.3},
        {random_matrix(space.dim(0), rng), {0}, 0.45},
        {annihilation(dims.back()), {last}, 0.0},
    };
    if (last >= 1)
      collapses.push_back(
          {random_matrix(space.dim(0) * space.dim(1), rng), {0, 1}, 0.2});
    std::vector<Matrix> jumps;
    for (const Collapse& c : collapses)
      jumps.push_back(embed(c.op, c.sites, space) *
                      cplx{std::sqrt(c.rate), 0.0});
    // rhs is linear on all matrices: a Hermitian-only shortcut must fail.
    const Matrix rho = random_matrix(space.dimension(), rng);
    const Matrix ref = dense_rhs(h, jumps, rho);
    for (const bool dense : {false, true})
      for (std::size_t before = 0; before <= collapses.size(); ++before) {
        // The first `before` collapse operators precede the Hamiltonian.
        LindbladSystem sys(space);
        for (std::size_t k = 0; k <= collapses.size(); ++k) {
          if (k == before) {
            if (dense)
              sys.set_hamiltonian_dense(h);
            else
              sys.set_hamiltonian(ham);
          }
          if (k < collapses.size())
            sys.add_collapse(collapses[k].op, collapses[k].sites,
                             collapses[k].rate);
        }
        EXPECT_LE(max_abs_diff(sys.rhs(rho), ref), 1e-12 * ref.max_abs())
            << "dims " << dims.size() << " dense " << dense << " before "
            << before;
      }
  }
}

TEST(Lindblad, RejectsMisshapedMatrices) {
  const QuditSpace space({3, 2});
  LindbladSystem sys(space);
  sys.add_collapse(annihilation(3), {0}, 1.0);
  const Matrix square(6, 6);
  const auto expect_throw_naming = [](const std::string& name,
                                      const auto& call) {
    try {
      call();
      ADD_FAILURE() << name << " accepted a misshaped matrix";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  for (const Matrix& bad : {Matrix(6, 3), Matrix(3, 6), Matrix(5, 5)}) {
    Matrix rho = bad;
    expect_throw_naming("LindbladSystem::rhs", [&] { sys.rhs(bad); });
    expect_throw_naming("LindbladSystem::evolve",
                        [&] { sys.evolve(rho, 0.1, 2); });
    expect_throw_naming("LindbladSystem::evolve_recording", [&] {
      sys.evolve_recording(rho, 0.1, 2, 1, {square});
    });
    Matrix good = square;
    expect_throw_naming("LindbladSystem::evolve_recording", [&] {
      sys.evolve_recording(good, 0.1, 2, 1, {bad});
    });
  }
  EXPECT_THROW(sys.rhs(Matrix()), std::invalid_argument);
}

TEST(Lindblad, PureDecayToVacuum) {
  // Single mode, no Hamiltonian, loss rate kappa: <n>(t) = n0 e^{-kappa t}.
  const int d = 6;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  const double kappa = 2.0;
  sys.add_collapse(annihilation(d), {0}, kappa);
  StateVector psi(space, std::vector<int>{3});
  DensityMatrix rho0(psi);
  Matrix rho = rho0.matrix();
  const double t = 0.5;
  sys.evolve(rho, t, 500);
  double nbar = 0.0;
  for (int k = 0; k < d; ++k)
    nbar += k * rho(static_cast<std::size_t>(k),
                    static_cast<std::size_t>(k)).real();
  EXPECT_NEAR(nbar, 3.0 * std::exp(-kappa * t), 1e-5);
}

TEST(Lindblad, TracePreserved) {
  const int d = 5;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  sys.set_hamiltonian_dense(number_operator(d));
  sys.add_collapse(annihilation(d), {0}, 1.0);
  Matrix rho(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
  // Start from coherent-state projector.
  const auto coh = coherent_state(d, cplx{1.0, 0.0});
  for (int r = 0; r < d; ++r)
    for (int c = 0; c < d; ++c)
      rho(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          coh[static_cast<std::size_t>(r)] *
          std::conj(coh[static_cast<std::size_t>(c)]);
  sys.evolve(rho, 1.0, 400);
  EXPECT_NEAR(rho.trace().real(), 1.0, 1e-8);
  // Hermiticity preserved.
  EXPECT_TRUE(rho.is_hermitian(1e-8));
}

TEST(Lindblad, ClosedSystemMatchesUnitary) {
  // No collapse operators: RK4 must track exp(-iHt).
  const int d = 4;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  const Matrix h = shift_mixer_hamiltonian(d);
  sys.set_hamiltonian_dense(h);
  StateVector psi0(space, std::vector<int>{0});
  Matrix rho = DensityMatrix(psi0).matrix();
  const double t = 0.8;
  sys.evolve(rho, t, 400);
  const Matrix u = evolution_unitary(h, t);
  std::vector<cplx> evolved(static_cast<std::size_t>(d), cplx{0.0, 0.0});
  evolved[0] = 1.0;
  evolved = u * evolved;
  EXPECT_NEAR(density_pure_fidelity(rho, evolved), 1.0, 1e-7);
}

TEST(Lindblad, DampedRabiReachesSteadyState) {
  // Driven-dissipative qubit reaches a steady state with purity < 1.
  const QuditSpace space({2});
  LindbladSystem sys(space);
  Matrix drive(2, 2);
  drive(0, 1) = drive(1, 0) = 1.0;  // sigma_x drive
  sys.set_hamiltonian_dense(drive);
  sys.add_collapse(annihilation(2), {0}, 2.0);
  StateVector psi(space);
  Matrix rho = DensityMatrix(psi).matrix();
  sys.evolve(rho, 20.0, 4000);
  Matrix rho2 = rho;
  sys.evolve(rho2, 1.0, 200);
  EXPECT_LT(max_abs_diff(rho, rho2), 1e-5);  // stationary
  const double purity = (rho * rho).trace().real();
  EXPECT_LT(purity, 1.0);
  EXPECT_GT(purity, 0.4);
}

TEST(Lindblad, EvolveRecordingShapes) {
  const int d = 4;
  const QuditSpace space({d});
  LindbladSystem sys(space);
  sys.add_collapse(annihilation(d), {0}, 1.0);
  StateVector psi(space, std::vector<int>{2});
  Matrix rho = DensityMatrix(psi).matrix();
  const auto rec =
      sys.evolve_recording(rho, 1.0, 50, 4, {number_operator(d)});
  ASSERT_EQ(rec.size(), 4u);
  ASSERT_EQ(rec[0].size(), 1u);
  // Photon number decreases monotonically under pure loss.
  EXPECT_GT(rec[0][0], rec[1][0]);
  EXPECT_GT(rec[1][0], rec[2][0]);
  EXPECT_GT(rec[2][0], rec[3][0]);
}

}  // namespace
}  // namespace qs
