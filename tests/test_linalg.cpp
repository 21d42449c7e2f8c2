#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "linalg/expm.h"
#include "linalg/matrix.h"
#include "linalg/metrics.h"
#include "linalg/real_matrix.h"
#include "linalg/types.h"

namespace qs {
namespace {

Matrix pauli_x() { return Matrix{{0.0, 1.0}, {1.0, 0.0}}; }
Matrix pauli_z() { return Matrix{{1.0, 0.0}, {0.0, -1.0}}; }

TEST(Matrix, IdentityAndTrace) {
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(id.trace(), cplx(3.0, 0.0));
  EXPECT_TRUE(id.is_unitary());
  EXPECT_TRUE(id.is_hermitian());
}

TEST(Matrix, MultiplicationAgainstHandComputed) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), cplx(2.0, 0.0));
  EXPECT_EQ(c(0, 1), cplx(1.0, 0.0));
  EXPECT_EQ(c(1, 0), cplx(4.0, 0.0));
  EXPECT_EQ(c(1, 1), cplx(3.0, 0.0));
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
  Matrix a(2, 2);
  a(0, 1) = cplx{1.0, 2.0};
  const Matrix ad = a.adjoint();
  EXPECT_EQ(ad(1, 0), cplx(1.0, -2.0));
  EXPECT_EQ(ad(0, 1), cplx(0.0, 0.0));
}

TEST(Matrix, KroneckerDimensionsAndValues) {
  const Matrix k = kron(pauli_x(), Matrix::identity(2));
  EXPECT_EQ(k.rows(), 4u);
  // X (x) I: block anti-diagonal identity blocks.
  EXPECT_EQ(k(0, 2), cplx(1.0, 0.0));
  EXPECT_EQ(k(1, 3), cplx(1.0, 0.0));
  EXPECT_EQ(k(2, 0), cplx(1.0, 0.0));
  EXPECT_EQ(k(0, 0), cplx(0.0, 0.0));
}

TEST(Matrix, KronMixedDimensions) {
  const Matrix a(2, 3);
  const Matrix b(4, 5);
  const Matrix k = kron(a, b);
  EXPECT_EQ(k.rows(), 8u);
  EXPECT_EQ(k.cols(), 15u);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1.0, kI}, {0.0, 2.0}};
  const std::vector<cplx> x{1.0, 1.0};
  const std::vector<cplx> y = a * x;
  EXPECT_NEAR(std::abs(y[0] - (cplx{1.0, 1.0})), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(y[1] - cplx{2.0, 0.0}), 0.0, 1e-14);
}

TEST(Matrix, DiagonalBuilder) {
  const Matrix d = Matrix::diagonal({1.0, 2.0, 3.0});
  EXPECT_EQ(d(2, 2), cplx(3.0, 0.0));
  EXPECT_EQ(d(0, 1), cplx(0.0, 0.0));
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, TraceOfProductMatchesFullProduct) {
  Rng rng(23);
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {3, 5}, {5, 3}, {4, 4}, {1, 7}};
  for (const auto& [rows, cols] : shapes) {
    Matrix a(rows, cols), b(cols, rows);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c) {
        a(r, c) = rng.complex_normal();
        b(c, r) = rng.complex_normal();
      }
    a(0, 0) = 0.0;  // the full product skips zeros of its left operand
    EXPECT_EQ(trace_of_product(a, b), (a * b).trace())
        << rows << " x " << cols;
  }
  EXPECT_THROW(trace_of_product(Matrix(3, 5), Matrix(3, 5)),
               std::invalid_argument);
  EXPECT_THROW(trace_of_product(Matrix(3, 5), Matrix(4, 3)),
               std::invalid_argument);
}

TEST(Expm, HermitianRouteMatchesSeries) {
  Rng rng(9);
  // Random Hermitian 5x5.
  Matrix h(5, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    h(r, r) = rng.normal();
    for (std::size_t c = r + 1; c < 5; ++c) {
      h(r, c) = rng.complex_normal();
      h(c, r) = std::conj(h(r, c));
    }
  }
  const Matrix via_eig = expm_hermitian(h, cplx{0.0, -0.3});
  Matrix scaled = h * cplx{0.0, -0.3};
  const Matrix via_series = expm(scaled);
  EXPECT_LT(max_abs_diff(via_eig, via_series), 1e-10);
}

TEST(Expm, EvolutionUnitaryIsUnitary) {
  const Matrix h = pauli_x() + pauli_z();
  const Matrix u = evolution_unitary(h, 0.7);
  EXPECT_TRUE(u.is_unitary(1e-10));
}

TEST(Expm, PauliRotationClosedForm) {
  // exp(-i theta X) = cos(theta) I - i sin(theta) X.
  const double theta = 0.42;
  const Matrix u = evolution_unitary(pauli_x(), theta);
  Matrix expected = Matrix::identity(2) * cplx{std::cos(theta), 0.0};
  expected += pauli_x() * cplx{0.0, -std::sin(theta)};
  EXPECT_LT(max_abs_diff(u, expected), 1e-12);
}

TEST(Expm, IdentityExponentialOfZero) {
  const Matrix z(3, 3);
  EXPECT_LT(max_abs_diff(expm(z), Matrix::identity(3)), 1e-14);
}

TEST(Metrics, StateFidelityBounds) {
  const std::vector<cplx> a{1.0, 0.0};
  const std::vector<cplx> b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(state_fidelity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(state_fidelity(a, b), 0.0);
}

TEST(Metrics, UnitaryFidelityPhaseInvariant) {
  Rng rng(4);
  Matrix h(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    h(r, r) = rng.normal();
    for (std::size_t c = r + 1; c < 3; ++c) {
      h(r, c) = rng.complex_normal();
      h(c, r) = std::conj(h(r, c));
    }
  }
  const Matrix u = evolution_unitary(h, 0.3);
  const Matrix u_phase = u * std::exp(kI * 1.234);
  EXPECT_NEAR(unitary_fidelity(u, u_phase), 1.0, 1e-12);
}

TEST(Metrics, DensityFidelityPureStates) {
  // F(|0><0|, |+><+|) = 0.5.
  Matrix rho0(2, 2);
  rho0(0, 0) = 1.0;
  Matrix rhop(2, 2);
  rhop(0, 0) = rhop(0, 1) = rhop(1, 0) = rhop(1, 1) = 0.5;
  EXPECT_NEAR(density_fidelity(rho0, rhop), 0.5, 1e-9);
}

TEST(Metrics, TraceDistanceOrthogonalPureStates) {
  Matrix rho0(2, 2), rho1(2, 2);
  rho0(0, 0) = 1.0;
  rho1(1, 1) = 1.0;
  EXPECT_NEAR(trace_distance(rho0, rho1), 1.0, 1e-10);
}

TEST(Metrics, ProjectToDensityClipsNegativeEigenvalues) {
  Matrix a(2, 2);
  a(0, 0) = 1.2;
  a(1, 1) = -0.2;
  const Matrix rho = project_to_density(a);
  EXPECT_NEAR(rho.trace().real(), 1.0, 1e-12);
  EXPECT_GE(rho(1, 1).real(), -1e-12);
}

TEST(Metrics, AverageGateFidelityIdentity) {
  const Matrix u = Matrix::identity(4);
  EXPECT_NEAR(average_gate_fidelity(u, u), 1.0, 1e-12);
}

TEST(RealMatrix, CholeskySolveRoundTrip) {
  RMatrix a(3, 3);
  // SPD matrix A = M M^T + I.
  RMatrix m(3, 3);
  Rng rng(21);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = rng.normal();
  a = m * m.transpose();
  for (std::size_t i = 0; i < 3; ++i) a(i, i) += 1.0;
  RMatrix b(3, 2);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = rng.normal();
  const RMatrix x = cholesky_solve(a, b);
  const RMatrix ax = a * x;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_NEAR(ax(r, c), b(r, c), 1e-10);
}

TEST(RealMatrix, CholeskyRejectsIndefinite) {
  RMatrix a = RMatrix::identity(2);
  a(1, 1) = -1.0;
  RMatrix b(2, 1);
  EXPECT_THROW(cholesky_solve(a, b), std::invalid_argument);
}

TEST(RealMatrix, RidgeRecoversExactLinearMap) {
  Rng rng(33);
  const std::size_t samples = 50, features = 4;
  RMatrix x(samples, features), w_true(features, 2);
  for (std::size_t r = 0; r < samples; ++r)
    for (std::size_t c = 0; c < features; ++c) x(r, c) = rng.normal();
  for (std::size_t r = 0; r < features; ++r)
    for (std::size_t c = 0; c < 2; ++c) w_true(r, c) = rng.normal();
  const RMatrix y = x * w_true;
  const RMatrix w = ridge_fit(x, y, 0.0);
  for (std::size_t r = 0; r < features; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_NEAR(w(r, c), w_true(r, c), 1e-6);
}

TEST(RealMatrix, RidgeShrinksWeights) {
  Rng rng(34);
  RMatrix x(30, 3), y(30, 1);
  for (std::size_t r = 0; r < 30; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.normal();
    y(r, 0) = rng.normal();
  }
  const RMatrix w0 = ridge_fit(x, y, 0.0);
  const RMatrix w1 = ridge_fit(x, y, 100.0);
  double n0 = 0.0, n1 = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    n0 += w0(r, 0) * w0(r, 0);
    n1 += w1(r, 0) * w1(r, 0);
  }
  EXPECT_LT(n1, n0);
}

}  // namespace
}  // namespace qs
