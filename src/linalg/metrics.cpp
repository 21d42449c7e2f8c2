#include "linalg/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "linalg/eigen.h"

namespace qs {

double state_fidelity(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return std::norm(inner(a, b));
}

Matrix sqrtm_psd(const Matrix& a) {
  const EigResult er = eigh(a);
  const std::size_t n = a.rows();
  Matrix scaled = er.vectors;
  for (std::size_t j = 0; j < n; ++j) {
    const double lam = std::max(er.values[j], 0.0);
    const double root = std::sqrt(lam);
    for (std::size_t i = 0; i < n; ++i) scaled(i, j) *= root;
  }
  return scaled * er.vectors.adjoint();
}

double density_fidelity(const Matrix& rho, const Matrix& sigma) {
  require(rho.rows() == sigma.rows() && rho.cols() == sigma.cols(),
          "density_fidelity: shape mismatch");
  const Matrix root = sqrtm_psd(rho);
  const Matrix inner_m = root * sigma * root;
  const EigResult er = eigh(inner_m, 1e-6);
  double s = 0.0;
  for (double lam : er.values) s += std::sqrt(std::max(lam, 0.0));
  return s * s;
}

double density_pure_fidelity(const Matrix& rho, const std::vector<cplx>& psi) {
  const std::vector<cplx> rp = rho * psi;
  return inner(psi, rp).real();
}

double trace_distance(const Matrix& rho, const Matrix& sigma) {
  Matrix diff = rho;
  diff -= sigma;
  const EigResult er = eigh(diff, 1e-6);
  double s = 0.0;
  for (double lam : er.values) s += std::abs(lam);
  return 0.5 * s;
}

double purity(const Matrix& rho) { return trace_of_product(rho, rho).real(); }

double unitary_fidelity(const Matrix& u, const Matrix& v) {
  require(u.rows() == v.rows() && u.cols() == v.cols() && u.is_square(),
          "unitary_fidelity: shape mismatch");
  const double d = static_cast<double>(u.rows());
  const cplx tr = trace_of_product(u.adjoint(), v);
  return std::norm(tr) / (d * d);
}

double average_gate_fidelity(const Matrix& u, const Matrix& v) {
  const double d = static_cast<double>(u.rows());
  const double fpro = unitary_fidelity(u, v);
  return (d * fpro + 1.0) / (d + 1.0);
}

Matrix project_to_density(const Matrix& a) {
  require(a.is_square(), "project_to_density: square matrix required");
  // Symmetrize first to remove non-Hermitian noise from reconstruction.
  Matrix herm = a;
  herm += a.adjoint();
  herm *= cplx{0.5, 0.0};
  const EigResult er = eigh(herm, 1e-4);
  const std::size_t n = herm.rows();
  std::vector<double> lam(er.values);
  for (double& x : lam) x = std::max(x, 0.0);
  double total = 0.0;
  for (double x : lam) total += x;
  if (total <= 0.0) {
    // Degenerate reconstruction; fall back to the maximally mixed state.
    Matrix mixed = Matrix::identity(n);
    mixed *= cplx{1.0 / static_cast<double>(n), 0.0};
    return mixed;
  }
  for (double& x : lam) x /= total;
  Matrix scaled = er.vectors;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) scaled(i, j) *= lam[j];
  return scaled * er.vectors.adjoint();
}

}  // namespace qs
