#include "dynamics/lindblad.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/require.h"
#include "linalg/types.h"

namespace qs {

namespace {

double* doubles(Matrix& m) { return reinterpret_cast<double*>(m.data()); }
const double* doubles(const Matrix& m) {
  return reinterpret_cast<const double*>(m.data());
}

/// Throws unless `m` is dim x dim; `what` names the function and argument.
void require_dim(const Matrix& m, std::size_t dim, const char* what) {
  if (m.rows() != dim || m.cols() != dim)
    throw std::invalid_argument(
        std::string(what) + " must be " + std::to_string(dim) + " x " +
        std::to_string(dim) + ", got " + std::to_string(m.rows()) + " x " +
        std::to_string(m.cols()));
}

void set_zero(Matrix& m) {
  std::fill(m.data(), m.data() + m.rows() * m.cols(), cplx{0.0, 0.0});
}

/// out = x^dag for square x.
void adjoint_into(const Matrix& x, Matrix& out) {
  const std::size_t n = x.rows();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out(c, r) = std::conj(x(r, c));
}

/// out += x^dag for square x.
void add_adjoint(const Matrix& x, Matrix& out) {
  const std::size_t n = x.rows();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out(c, r) += std::conj(x(r, c));
}

/// out += m x for the nonzeros m of a D x D operator and a dense D x D x:
/// each nonzero m_rc adds m_rc * (row c of x) to row r of out. The loop is
/// written over the interleaved re/im doubles because std::complex's
/// operator* carries a NaN-recovery branch that keeps GCC from
/// vectorizing it. (A template only because the nonzero type is private.)
template <typename Nonzeros>
void add_product(const Nonzeros& m, const Matrix& x, Matrix& out) {
  const std::size_t width = 2 * x.cols();
  const double* xd = doubles(x);
  double* od = doubles(out);
  for (const auto& e : m) {
    const double re = e.value.real();
    const double im = e.value.imag();
    const double* in = xd + e.col * width;
    double* acc = od + e.row * width;
    for (std::size_t j = 0; j < width; j += 2) {
      const double a = in[j];
      const double b = in[j + 1];
      acc[j] += re * a - im * b;
      acc[j + 1] += re * b + im * a;
    }
  }
}

}  // namespace

struct LindbladSystem::Scratch {
  explicit Scratch(std::size_t d) : rho_dag(d, d), tmp(d, d), tmp_dag(d, d) {}
  Matrix rho_dag, tmp, tmp_dag;
};

LindbladSystem::LindbladSystem(QuditSpace space) : space_(std::move(space)) {}

LindbladSystem::Sparse LindbladSystem::nonzeros(const Matrix& m) {
  Sparse out;
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      if (m(r, c) != cplx{0.0, 0.0}) out.push_back({r, c, m(r, c)});
  return out;
}

void LindbladSystem::set_hamiltonian(const Hamiltonian& h) {
  require(h.space() == space_, "LindbladSystem: Hamiltonian space mismatch");
  hamiltonian_ = nonzeros(h.dense(space_.dimension()));
  rebuild_drift();
}

void LindbladSystem::set_hamiltonian_dense(Matrix h) {
  require(h.rows() == space_.dimension() && h.is_square(),
          "LindbladSystem: dense Hamiltonian dimension mismatch");
  require(h.is_hermitian(1e-8), "LindbladSystem: Hamiltonian not Hermitian");
  hamiltonian_ = nonzeros(h);
  rebuild_drift();
}

void LindbladSystem::add_collapse(const Matrix& op,
                                  const std::vector<int>& sites,
                                  double rate) {
  require(rate >= 0.0, "LindbladSystem: negative rate");
  Matrix full = embed(op, sites, space_);
  full *= cplx{std::sqrt(rate), 0.0};
  jumps_.push_back(nonzeros(full));
  rebuild_drift();
}

void LindbladSystem::rebuild_drift() {
  const std::size_t dim = space_.dimension();
  Matrix a(dim, dim);
  for (const Entry& e : hamiltonian_)
    a(e.row, e.col) += cplx{0.0, -1.0} * e.value;
  // (J^dag J)_ij = sum_r conj(J_ri) J_rj: pairs of nonzeros in each row.
  for (const Sparse& jump : jumps_) {
    for (std::size_t begin = 0, end = 0; begin < jump.size(); begin = end) {
      while (end < jump.size() && jump[end].row == jump[begin].row) ++end;
      for (std::size_t p = begin; p < end; ++p)
        for (std::size_t q = begin; q < end; ++q)
          a(jump[p].col, jump[q].col) -=
              0.5 * std::conj(jump[p].value) * jump[q].value;
    }
  }
  drift_ = nonzeros(a);
}

void LindbladSystem::rhs_into(const Matrix& rho, Matrix& out,
                              Scratch& ws) const {
  // rho A^dag = (A rho^dag)^dag and J rho J^dag = J (J rho^dag)^dag: every
  // product keeps the sparse operand on the left.
  adjoint_into(rho, ws.rho_dag);
  set_zero(out);
  add_product(drift_, rho, out);
  set_zero(ws.tmp);
  add_product(drift_, ws.rho_dag, ws.tmp);
  add_adjoint(ws.tmp, out);
  for (const Sparse& jump : jumps_) {
    set_zero(ws.tmp);
    add_product(jump, ws.rho_dag, ws.tmp);
    adjoint_into(ws.tmp, ws.tmp_dag);
    add_product(jump, ws.tmp_dag, out);
  }
}

Matrix LindbladSystem::rhs(const Matrix& rho) const {
  const std::size_t dim = space_.dimension();
  require_dim(rho, dim, "LindbladSystem::rhs: rho");
  Scratch ws(dim);
  Matrix out(dim, dim);
  rhs_into(rho, out, ws);
  return out;
}

void LindbladSystem::evolve(Matrix& rho, double t, int steps) const {
  require(steps >= 1, "LindbladSystem::evolve: steps >= 1 required");
  const std::size_t dim = space_.dimension();
  require_dim(rho, dim, "LindbladSystem::evolve: rho");
  const double dt = t / steps;
  // One slope buffer k and the running sum acc = k1 + 2 k2 + 2 k3, summed
  // in the textbook order; the stage loops run over the re/im doubles.
  Scratch ws(dim);
  Matrix k_buf(dim, dim), acc_buf(dim, dim), stage_buf(dim, dim);
  const std::size_t len = 2 * dim * dim;
  double* r = doubles(rho);
  const double* k = doubles(k_buf);
  double* acc = doubles(acc_buf);
  double* stage = doubles(stage_buf);
  for (int s = 0; s < steps; ++s) {
    rhs_into(rho, k_buf, ws);
    for (std::size_t i = 0; i < len; ++i) {
      acc[i] = k[i];
      stage[i] = r[i] + k[i] * (dt / 2.0);
    }
    rhs_into(stage_buf, k_buf, ws);
    for (std::size_t i = 0; i < len; ++i) {
      acc[i] += k[i] * 2.0;
      stage[i] = r[i] + k[i] * (dt / 2.0);
    }
    rhs_into(stage_buf, k_buf, ws);
    for (std::size_t i = 0; i < len; ++i) {
      acc[i] += k[i] * 2.0;
      stage[i] = r[i] + k[i] * dt;
    }
    rhs_into(stage_buf, k_buf, ws);
    for (std::size_t i = 0; i < len; ++i)
      r[i] += (acc[i] + k[i]) * (dt / 6.0);
  }
}

std::vector<std::vector<double>> LindbladSystem::evolve_recording(
    Matrix& rho, double t, int steps_per_sample, int samples,
    const std::vector<Matrix>& observables) const {
  require(samples >= 1,
          "LindbladSystem::evolve_recording: samples >= 1 required");
  const std::size_t dim = space_.dimension();
  require_dim(rho, dim, "LindbladSystem::evolve_recording: rho");
  for (const Matrix& obs : observables)
    require_dim(obs, dim, "LindbladSystem::evolve_recording: observable");
  std::vector<std::vector<double>> records;
  records.reserve(static_cast<std::size_t>(samples));
  const double t_sample = t / samples;
  for (int s = 0; s < samples; ++s) {
    evolve(rho, t_sample, steps_per_sample);
    std::vector<double> row;
    row.reserve(observables.size());
    for (const Matrix& obs : observables)
      row.push_back(trace_of_product(rho, obs).real());
    records.push_back(std::move(row));
  }
  return records;
}

}  // namespace qs
