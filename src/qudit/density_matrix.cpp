#include "qudit/density_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "linalg/metrics.h"
#include "qudit/block_plan.h"
#include "qudit/kernels.h"

namespace qs {

namespace {
/// Per-thread scratch for the plan-per-call entry points.
kernels::Scratch& local_scratch() {
  static thread_local kernels::Scratch scratch;
  return scratch;
}

void check_block(const Matrix& op, const detail::BlockPlan& plan,
                 const char* what) {
  require(op.rows() == plan.block && op.cols() == plan.block, what);
}
}  // namespace

DensityMatrix::DensityMatrix(QuditSpace space)
    : space_(std::move(space)),
      rho_(Matrix::zero(space_.dimension(), space_.dimension())) {
  rho_(0, 0) = 1.0;
}

DensityMatrix::DensityMatrix(const StateVector& psi)
    : space_(psi.space()),
      rho_(Matrix::zero(space_.dimension(), space_.dimension())) {
  const auto& a = psi.amplitudes();
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r] == cplx{0.0, 0.0}) continue;
    for (std::size_t c = 0; c < a.size(); ++c)
      rho_(r, c) = a[r] * std::conj(a[c]);
  }
}

DensityMatrix::DensityMatrix(QuditSpace space, Matrix rho)
    : space_(std::move(space)), rho_(std::move(rho)) {
  require(rho_.rows() == space_.dimension() && rho_.is_square(),
          "DensityMatrix: matrix does not match space dimension");
}

void DensityMatrix::apply_left(Matrix& rho, const Matrix& op,
                               const detail::BlockPlan& plan,
                               kernels::Scratch& scratch) {
  check_block(op, plan, "DensityMatrix: operator dimension mismatch");
  const std::size_t block = plan.block;
  const std::size_t n = rho.rows();
  scratch.reserve_block(block);
  // Row-space application: offsets scale by the row stride n.
  if (scratch.index.size() < block) scratch.index.resize(block);
  for (std::size_t a = 0; a < block; ++a)
    // lint:allow(amplitude-loop): row-stride index table fed to dense_block
    scratch.index[a] = plan.offsets[a] * n;
  cplx* data = rho.data();
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t base : plan.bases)
      kernels::dense_block(op.data(), block, data + base * n + c,
                           scratch.index.data(), scratch.temp.data(),
                           scratch.out.data());
}

void DensityMatrix::apply_right_adjoint(Matrix& rho, const Matrix& op,
                                        const detail::BlockPlan& plan,
                                        kernels::Scratch& scratch) {
  check_block(op, plan, "DensityMatrix: operator dimension mismatch");
  const std::size_t block = plan.block;
  const std::size_t n = rho.rows();
  scratch.reserve_block(block);
  cplx* data = rho.data();
  // (rho Op^dag)(r, c) = sum_b rho(r, b) * conj(Op(c_t, b_t)).
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t base : plan.bases)
      kernels::dense_block_conj(op.data(), block, data + r * n + base,
                                plan.offsets.data(), scratch.temp.data(),
                                scratch.out.data());
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  const std::vector<int>& sites) {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  apply_unitary(u, plan, local_scratch());
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  const detail::BlockPlan& plan,
                                  kernels::Scratch& scratch) {
  apply_left(rho_, u, plan, scratch);
  apply_right_adjoint(rho_, u, plan, scratch);
}

void DensityMatrix::apply_diagonal_unitary(const std::vector<cplx>& diag,
                                           const detail::BlockPlan& plan) {
  require(diag.size() == plan.block,
          "apply_diagonal_unitary: diagonal length mismatch");
  const std::size_t block = plan.block;
  const std::size_t n = rho_.rows();
  cplx* data = rho_.data();
  // D rho D^dag done as a row-scaling pass then a column-scaling pass --
  // the same values (and rounding) the dense conjugation would produce,
  // at O(n^2) instead of O(n^2 * block).
  for (std::size_t base : plan.bases)
    for (std::size_t a = 0; a < block; ++a) {
      // lint:allow(amplitude-loop): density-matrix row scaling, not a state
      cplx* row = data + (base + plan.offsets[a]) * n;
      const cplx f = diag[a];
      for (std::size_t c = 0; c < n; ++c) row[c] *= f;
    }
  for (std::size_t r = 0; r < n; ++r) {
    cplx* row = data + r * n;
    for (std::size_t base : plan.bases)
      for (std::size_t b = 0; b < block; ++b) {
        // lint:allow(amplitude-loop): density-matrix column scaling
        cplx& v = row[base + plan.offsets[b]];
        v = std::conj(diag[b]) * v;
      }
  }
}

void DensityMatrix::apply_channel(const std::vector<Matrix>& kraus,
                                  const std::vector<int>& sites) {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  apply_channel(kraus, plan, local_scratch());
}

void DensityMatrix::apply_channel(const std::vector<Matrix>& kraus,
                                  const detail::BlockPlan& plan,
                                  kernels::Scratch& scratch) {
  require(!kraus.empty(), "apply_channel: empty Kraus set");
  Matrix result = Matrix::zero(rho_.rows(), rho_.cols());
  for (const Matrix& k : kraus) {
    Matrix branch = rho_;
    apply_left(branch, k, plan, scratch);
    apply_right_adjoint(branch, k, plan, scratch);
    result += branch;
  }
  rho_ = std::move(result);
}

void DensityMatrix::apply_channel(const std::vector<kernels::OpKernel>& kraus,
                                  const detail::BlockPlan& plan,
                                  kernels::Scratch& scratch) {
  require(!kraus.empty(), "apply_channel: empty Kraus set");
  Matrix result = Matrix::zero(rho_.rows(), rho_.cols());
  for (const kernels::OpKernel& k : kraus) {
    Matrix branch = rho_;
    apply_left(branch, k.dense, plan, scratch);
    apply_right_adjoint(branch, k.dense, plan, scratch);
    result += branch;
  }
  rho_ = std::move(result);
}

double DensityMatrix::trace() const { return rho_.trace().real(); }

void DensityMatrix::normalize() {
  const double t = trace();
  require(std::abs(t) > 1e-300, "DensityMatrix::normalize: zero trace");
  rho_ *= cplx{1.0 / t, 0.0};
}

double DensityMatrix::purity() const { return qs::purity(rho_); }

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> p(rho_.rows());
  for (std::size_t i = 0; i < rho_.rows(); ++i) p[i] = rho_(i, i).real();
  return p;
}

std::vector<double> DensityMatrix::site_probabilities(int site) const {
  require(site >= 0 && static_cast<std::size_t>(site) < space_.num_sites(),
          "site_probabilities: site out of range");
  const std::size_t s = static_cast<std::size_t>(site);
  const std::size_t d = static_cast<std::size_t>(space_.dim(s));
  const std::size_t stride = space_.stride(s);
  const std::size_t span = stride * d;
  std::vector<double> probs(d, 0.0);
  for (std::size_t outer = 0; outer < rho_.rows(); outer += span)
    for (std::size_t k = 0; k < d; ++k)
      for (std::size_t inner = 0; inner < stride; ++inner) {
        // lint:allow(amplitude-loop): reads rho diagonal, not amplitudes
        const std::size_t i = outer + k * stride + inner;
        probs[k] += rho_(i, i).real();
      }
  return probs;
}

std::vector<std::size_t> DensityMatrix::sample_counts(std::size_t shots,
                                                      Rng& rng) const {
  const std::vector<double> p = probabilities();
  std::vector<double> cumulative(p.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    acc += std::max(p[i], 0.0);
    cumulative[i] = acc;
  }
  std::vector<std::size_t> counts(p.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), r);
    const std::size_t idx = std::min(
        static_cast<std::size_t>(it - cumulative.begin()), p.size() - 1);
    ++counts[idx];
  }
  return counts;
}

cplx DensityMatrix::expectation(const Matrix& op,
                                const std::vector<int>& sites) const {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  const std::size_t block = plan.offsets.size();
  require(op.rows() == block && op.cols() == block,
          "expectation: operator dimension mismatch");
  cplx tr = 0.0;
  // Tr(rho O) = sum_base sum_{a,b} rho(base+off_a, base+off_b) op(b, a).
  for (std::size_t base : plan.bases)
    for (std::size_t a = 0; a < block; ++a)
      for (std::size_t b = 0; b < block; ++b)
        // lint:allow(amplitude-loop): trace contraction over rho entries
        tr += rho_(base + plan.offsets[a], base + plan.offsets[b]) * op(b, a);
  return tr;
}

DensityMatrix DensityMatrix::partial_trace(
    const std::vector<int>& keep_sites) const {
  const detail::BlockPlan plan = detail::make_block_plan(space_, keep_sites);
  const std::size_t block = plan.offsets.size();
  std::vector<int> kept_dims;
  kept_dims.reserve(keep_sites.size());
  for (int s : keep_sites)
    kept_dims.push_back(space_.dim(static_cast<std::size_t>(s)));
  QuditSpace reduced(kept_dims);
  Matrix out = Matrix::zero(block, block);
  for (std::size_t base : plan.bases)
    for (std::size_t a = 0; a < block; ++a)
      for (std::size_t b = 0; b < block; ++b)
        // lint:allow(amplitude-loop): partial-trace gather over rho entries
        out(a, b) += rho_(base + plan.offsets[a], base + plan.offsets[b]);
  return DensityMatrix(reduced, std::move(out));
}

}  // namespace qs
